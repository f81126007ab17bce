"""Figure 14: EPT vs EPT* -- MkNNQ compdists and CPU time vs k.

Paper shape: EPT* computes fewer distances than EPT across k on every
dataset (its PSA pivots are higher quality), at a much higher construction
cost (checked in the Table 4 bench).
"""

from __future__ import annotations

import pytest

from repro.bench import format_table, measure_build, run_knn_queries, shared_pivots

from _bench_common import built_indexes, emit, workloads  # noqa: F401  (fixtures)

KS = (5, 10, 20, 50, 100)


@pytest.fixture(scope="module")
def fig14(workloads):
    rows = []
    per_index = {}
    for wl_name, workload in workloads.items():
        pivots = shared_pivots(workload, 5)
        for index_name in ("EPT", "EPT*"):
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
                        "CPU (ms)": round(cost.mean_cpu_seconds * 1000, 2),
                    }
                )
    return rows, per_index


def test_fig14_ept_vs_ept_star(fig14, benchmark, workloads):
    rows, per_index = fig14
    emit(
        "fig14_ept_star",
        format_table(rows, title="Figure 14: EPT vs EPT* (MkNNQ vs k)", first_column="Dataset"),
    )
    # shape: EPT* verification work <= EPT's on the vector datasets, where
    # pivot quality matters most (allowing the fixed |CP| upfront cost)
    by = {(r["Dataset"], r["Index"], r["k"]): r["Compdists"] for r in rows}
    for wl_name in ("Color", "Synthetic"):
        star = sum(by[(wl_name, "EPT*", k)] for k in KS)
        plain = sum(by[(wl_name, "EPT", k)] for k in KS)
        assert star <= plain * 1.3, f"EPT* not competitive on {wl_name}"
    index = per_index[("LA", "EPT*")]
    q = workloads["LA"].queries[0]
    benchmark(lambda: index.knn_query(q, 20))
