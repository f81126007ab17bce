"""Figure 14: EPT vs EPT* -- MkNNQ compdists and CPU time vs k.

Paper shape: EPT* computes fewer distances than EPT across k on every
dataset (its PSA pivots are higher quality), at a much higher construction
cost (checked in the Table 4 bench).  Both are scanning tables: each row
carries the paper's storage-order cost beside the best-first one their
``knn_query`` runs.
"""

from __future__ import annotations

import pytest

from repro.bench import exp_fig14_ept, format_table, measure_build, shared_pivots

from _bench_common import emit, workloads  # noqa: F401  (fixtures)

KS = (5, 10, 20, 50, 100)


@pytest.fixture(scope="module")
def fig14(workloads):
    return exp_fig14_ept(workloads, KS)


def test_fig14_ept_vs_ept_star(fig14, benchmark, workloads):
    emit(
        "fig14_ept_star",
        format_table(fig14, title="Figure 14: EPT vs EPT* (MkNNQ vs k)", first_column="Dataset"),
    )
    # shape: EPT* verification work <= EPT's on the vector datasets, where
    # pivot quality matters most (allowing the fixed |CP| upfront cost), in
    # either verification order
    for column in ("Compdists", "Compdists (paper order)"):
        by = {(r["Dataset"], r["Index"], r["k"]): r[column] for r in fig14}
        for wl_name in ("Color", "Synthetic"):
            star = sum(by[(wl_name, "EPT*", k)] for k in KS)
            plain = sum(by[(wl_name, "EPT", k)] for k in KS)
            assert star <= plain * 1.3, f"EPT* not competitive on {wl_name} ({column})"
    # best-first verifies no more than the paper's storage order, on every
    # EPT and EPT* row at every k
    for row in fig14:
        assert row["Compdists"] <= row["Compdists (paper order)"], (
            row["Dataset"],
            row["Index"],
            row["k"],
        )
    workload = workloads["LA"]
    index = measure_build("EPT*", workload, shared_pivots(workload, 5)).index
    q = workload.queries[0]
    benchmark(lambda: index.knn_query(q, 20))
