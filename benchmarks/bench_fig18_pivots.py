"""Figure 18: MkNNQ performance vs the number of pivots |P| (LA, Synthetic).

Paper shapes: compdists drop monotonically as |P| grows (better filtering);
PA / CPU first drop, then flatten or rise (larger pre-computed tables);
M-index* absent at |P| = 1 (hyperplane partitioning needs two pivots).
"""

from __future__ import annotations

import pytest

from repro.bench import build_all, format_table, run_knn_queries

from _bench_common import built_indexes, emit, workloads  # noqa: F401  (fixtures)

PIVOT_COUNTS = (1, 3, 5, 7, 9)
INDEXES = ("LAESA", "MVPT", "OmniR-tree", "M-index*", "SPB-tree")
K = 20


@pytest.fixture(scope="module")
def fig18(workloads):
    rows = []
    last_indexes = {}
    for wl_name in ("LA", "Synthetic"):
        workload = workloads[wl_name]
        for n_pivots in PIVOT_COUNTS:
            names = tuple(
                n for n in INDEXES if not (n == "M-index*" and n_pivots < 2)
            )
            indexes = build_all(workload, names, n_pivots=n_pivots)
            last_indexes = indexes
            for index_name, result in indexes.items():
                cost = run_knn_queries(result.index, workload.queries, K)
                rows.append(
                    {
                        "Dataset": wl_name,
                        "Index": index_name,
                        "|P|": n_pivots,
                        "Compdists": round(cost.mean_compdists, 1),
                        "PA": round(cost.mean_page_accesses, 1),
                        "CPU (ms)": round(cost.mean_cpu_seconds * 1000, 2),
                    }
                )
    return rows, last_indexes


def test_fig18_pivot_count(fig18, benchmark, workloads):
    rows, last_indexes = fig18
    emit(
        "fig18_pivots",
        format_table(rows, title="Figure 18: MkNNQ cost vs |P|", first_column="Dataset"),
    )
    by = {(r["Dataset"], r["Index"], r["|P|"]): r for r in rows}
    # compdists at |P|=9 should not exceed |P|=1 (more pivots filter better)
    for wl_name in ("LA", "Synthetic"):
        for index_name in ("LAESA", "MVPT", "SPB-tree"):
            assert (
                by[(wl_name, index_name, 9)]["Compdists"]
                <= by[(wl_name, index_name, 1)]["Compdists"] * 1.1
            )
    index = last_indexes["LAESA"].index
    q = workloads["Synthetic"].queries[0]
    benchmark(lambda: index.knn_query(q, K))
