"""Figure 16: MRQ performance vs radius r for all indexes on all datasets.

Paper shapes: query cost grows with r; in-memory indexes have the lowest
CPU; the SPB-tree has the lowest PA among disk indexes; CPT and the PM-tree
have the highest PA; the pivot-based trees pay somewhat more compdists than
the tables (they store only part of the pre-computed distances).

"SPB-tree I/O <= CPT I/O" holds on LA at every cardinality tried.  One
query per call, r = 16 %, the SPB-tree reads 0.58-0.84 x CPT's bytes at
n = 400-1 000 (4 to 16 queries), 0.69 x at 1 200 and 0.64 x at 2 000, now
that an RAF page holds ~140 LA records instead of ~24.  (With RAF pages of
pickled record lists it read 1.3-1.7 x at n = 400 and only dropped to ~1 x
from n ~ 1 200, so the assertion used to start there.)  Words, Color and
Synthetic hold the shape at every scale tried.
"""

from __future__ import annotations

import pytest

from repro.bench import (
    DEFAULT_INDEX_NAMES,
    ascii_chart,
    exp_fig16_range,
    format_table,
    series_from_rows,
)

from _bench_common import built_indexes, emit, workloads  # noqa: F401  (fixtures)

SELECTIVITIES = (0.04, 0.08, 0.16, 0.32, 0.64)


@pytest.fixture(scope="module")
def fig16(workloads, built_indexes):
    built = {wl_name: built_indexes(wl_name) for wl_name in workloads}
    return exp_fig16_range(workloads, DEFAULT_INDEX_NAMES, SELECTIVITIES, built=built)


def test_fig16_range_query_costs(fig16, benchmark, workloads, built_indexes):
    charts = []
    for wl_name in workloads:
        wl_rows = [r for r in fig16 if r["Dataset"] == wl_name]
        charts.append(
            ascii_chart(
                series_from_rows(wl_rows, "r (%)", "Compdists"),
                title=f"Figure 16 ({wl_name}): MRQ compdists vs r",
                log_y=True,
            )
        )
    emit(
        "fig16_range",
        format_table(fig16, title="Figure 16: MRQ cost vs r", first_column="Dataset")
        + "\n\n"
        + "\n\n".join(charts),
    )
    by = {(r["Dataset"], r["Index"], r["r (%)"]): r for r in fig16}

    # cost grows with the radius
    for wl_name in workloads:
        for index_name in ("LAESA", "MVPT", "SPB-tree"):
            assert (
                by[(wl_name, index_name, 64)]["Compdists"]
                >= by[(wl_name, index_name, 4)]["Compdists"]
            )
    # SPB-tree I/O <= CPT and PM-tree I/O (disk shape, Section 6.5.1).
    # CPT/PM-tree run on 40 KB pages on Color/Synthetic (the paper's rule),
    # so compare bytes accessed, not raw page counts.
    def bytes_accessed(index_name: str, wl_name: str) -> float:
        page_kb = (
            40
            if index_name in ("CPT", "PM-tree") and wl_name in ("Color", "Synthetic")
            else 4
        )
        return by[(wl_name, index_name, 16)]["PA"] * page_kb

    for wl_name in workloads:
        spb = bytes_accessed("SPB-tree", wl_name)
        assert spb <= bytes_accessed("PM-tree", wl_name) * 1.2
        assert spb <= bytes_accessed("CPT", wl_name) * 1.2

    index = built_indexes("LA")["SPB-tree"].index
    workload = workloads["LA"]
    radius = workload.radius_for(0.16)
    benchmark(lambda: index.range_query(workload.queries[0], radius))
