"""Figure 15: M-index vs M-index* -- MkNNQ compdists, PA and CPU vs k.

Paper shape: the M-index answers MkNNQ by repeated range queries (redundant
page accesses and CPU); the M-index* traverses once, best-first, using the
cluster MBBs.  M-index* therefore wins on PA/CPU, with similar compdists.
"""

from __future__ import annotations

import pytest

from repro.bench import format_table, measure_build, run_knn_queries, shared_pivots

from _bench_common import built_indexes, emit, workloads  # noqa: F401  (fixtures)

KS = (5, 10, 20, 50, 100)


@pytest.fixture(scope="module")
def fig15(workloads):
    rows = []
    per_index = {}
    for wl_name, workload in workloads.items():
        pivots = shared_pivots(workload, 5)
        for index_name in ("M-index", "M-index*"):
            result = measure_build(index_name, workload, pivots)
            per_index[(wl_name, index_name)] = result.index
            for k in KS:
                cost = run_knn_queries(result.index, workload.queries, k)
                rows.append(
                    {
                        "Dataset": wl_name,
                        "Index": index_name,
                        "k": k,
                        "Compdists": round(cost.mean_compdists, 1),
                        "PA": round(cost.mean_page_accesses, 1),
                        "CPU (ms)": round(cost.mean_cpu_seconds * 1000, 2),
                    }
                )
    return rows, per_index


def test_fig15_mindex_vs_star(fig15, benchmark, workloads):
    rows, per_index = fig15
    emit(
        "fig15_mindex_star",
        format_table(
            rows, title="Figure 15: M-index vs M-index* (MkNNQ vs k)", first_column="Dataset"
        ),
    )
    by = {(r["Dataset"], r["Index"], r["k"]): r for r in rows}
    # shape: at the largest k (where repeated traversals hurt most), the
    # M-index* needs no more distance computations than the M-index
    for wl_name in ("LA", "Words", "Color", "Synthetic"):
        star = by[(wl_name, "M-index*", 100)]["Compdists"]
        plain = by[(wl_name, "M-index", 100)]["Compdists"]
        assert star <= plain * 1.2, f"M-index* compdists regressed on {wl_name}"
    index = per_index[("LA", "M-index*")]
    q = workloads["LA"].queries[0]
    benchmark(lambda: index.knn_query(q, 20))
