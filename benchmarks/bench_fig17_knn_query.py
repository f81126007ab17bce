"""Figure 17: MkNNQ performance vs k for all indexes on all datasets.

Paper shapes: cost grows with k; the in-memory indexes beat the disk
indexes on CPU; the SPB-tree has the best PA.  The paper's LAESA / CPT
verify in storage order and pay extra compdists relative to best-first
competitors: the scanning tables (LAESA, EPT*, CPT) report that order in
their paper-order columns, beside the best-first order their ``knn_query``
runs over the same columns.
"""

from __future__ import annotations

import pytest

from repro.bench import (
    DEFAULT_INDEX_NAMES,
    ascii_chart,
    exp_fig17_knn,
    format_table,
    series_from_rows,
)

from _bench_common import built_indexes, emit, workloads  # noqa: F401  (fixtures)

KS = (5, 10, 20, 50, 100)


@pytest.fixture(scope="module")
def fig17(workloads, built_indexes):
    built = {wl_name: built_indexes(wl_name) for wl_name in workloads}
    return exp_fig17_knn(workloads, DEFAULT_INDEX_NAMES, KS, built=built)


def test_fig17_knn_query_costs(fig17, benchmark, workloads, built_indexes):
    charts = []
    for wl_name in workloads:
        wl_rows = [r for r in fig17 if r["Dataset"] == wl_name]
        charts.append(
            ascii_chart(
                series_from_rows(wl_rows, "k", "Compdists"),
                title=f"Figure 17 ({wl_name}): MkNNQ compdists vs k",
                log_y=True,
            )
        )
    emit(
        "fig17_knn",
        format_table(fig17, title="Figure 17: MkNNQ cost vs k", first_column="Dataset")
        + "\n\n"
        + "\n\n".join(charts),
    )
    by = {(r["Dataset"], r["Index"], r["k"]): r for r in fig17}
    for wl_name in workloads:
        for index_name in ("LAESA", "MVPT", "SPB-tree"):
            assert (
                by[(wl_name, index_name, 100)]["Compdists"]
                >= by[(wl_name, index_name, 5)]["Compdists"]
            )
        # memory indexes touch no pages
        assert by[(wl_name, "MVPT", 20)]["PA"] == 0
    # the scanning tables, at every k: best-first verifies no more objects
    # than the paper's storage order over the same bounds
    scanning = [r for r in fig17 if "Compdists (paper order)" in r]
    assert {r["Index"] for r in scanning} == {"LAESA", "EPT*", "CPT"}
    assert len(scanning) == 3 * len(workloads) * len(KS)
    for row in scanning:
        assert row["Compdists"] <= row["Compdists (paper order)"], row
    index = built_indexes("Words")["MVPT"].index
    q = workloads["Words"].queries[0]
    benchmark(lambda: index.knn_query(q, 20))
