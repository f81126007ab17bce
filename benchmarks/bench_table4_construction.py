"""Tables 4 + 5: construction costs, storage sizes, and rankings.

Paper shapes to check (Section 6.2): in-memory tables/trees build fastest;
EPT* is by far the costliest build (PSA); CPT and the PM-tree pay extra
distance computations for their M-trees; the SPB-tree has the lowest PA and
the smallest disk footprint; CPT/PM-tree storage is the largest.
"""

from __future__ import annotations

import pytest

from repro.bench import (
    DEFAULT_INDEX_NAMES,
    exp_table4_construction,
    exp_table5_ranking,
    format_ranking,
    format_table,
    measure_build,
    shared_pivots,
)

from _bench_common import built_indexes, emit, workloads  # noqa: F401  (fixtures)


@pytest.fixture(scope="module")
def table4(workloads, built_indexes):
    rows = []
    built = {}
    for wl_name, workload in workloads.items():
        built[wl_name] = built_indexes(wl_name)
        for index_name, result in built[wl_name].items():
            rows.append(
                {
                    "Dataset": wl_name,
                    "Index": index_name,
                    "PA": result.page_accesses,
                    "Compdists": result.compdists,
                    "Time (s)": round(result.seconds, 3),
                    "Mem (KB)": round(result.memory_bytes / 1024, 1),
                    "Disk (KB)": round(result.disk_bytes / 1024, 1),
                }
            )
    return rows


def test_table4_construction_costs(table4, benchmark, workloads):
    emit(
        "table4_construction",
        format_table(
            table4, title="Table 4: construction costs and storage", first_column="Dataset"
        ),
    )
    by_key = {(r["Dataset"], r["Index"]): r for r in table4}
    for wl_name in ("LA", "Words"):
        # EPT* is the costliest build in compdists (paper Table 4)
        star = by_key[(wl_name, "EPT*")]["Compdists"]
        assert star >= by_key[(wl_name, "LAESA")]["Compdists"]
        # CPT / PM-tree pay M-tree construction distances
        assert by_key[(wl_name, "CPT")]["Compdists"] > by_key[(wl_name, "LAESA")]["Compdists"]
        assert by_key[(wl_name, "PM-tree")]["Compdists"] > by_key[(wl_name, "LAESA")]["Compdists"]
        # SPB-tree beats PM-tree on construction PA
        assert by_key[(wl_name, "SPB-tree")]["PA"] < by_key[(wl_name, "PM-tree")]["PA"]
    # the SPB-tree has the smallest disk footprint (paper Table 4), on
    # every dataset: its leaf rows are a key, an id, a pointer and l cell
    # bytes, against M-index* key tuples and R-tree / M-tree node objects
    not_smallest = [
        row
        for row in table4
        if row["Disk (KB)"] > 0
        and row["Index"] != "SPB-tree"
        and row["Disk (KB)"] <= by_key[(row["Dataset"], "SPB-tree")]["Disk (KB)"]
    ]
    if not_smallest:
        print(format_table(not_smallest, title="at most the SPB-tree's disk", first_column="Dataset"))
    assert not not_smallest
    # time one representative build
    workload = workloads["Words"]
    pivots = shared_pivots(workload, 5)
    benchmark.pedantic(
        lambda: measure_build("MVPT", workload, pivots), rounds=2, iterations=1
    )


def test_table5_construction_ranking(table4, benchmark):
    metrics = exp_table5_ranking(table4)
    lines = [
        format_ranking(scores, metric)
        for metric, scores in metrics.items()
        if scores
    ]
    emit("table5_ranking", "Table 5: construction/storage ranking\n" + "\n".join(lines))
    benchmark.pedantic(lambda: exp_table5_ranking(table4), rounds=3, iterations=1)
