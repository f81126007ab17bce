"""Extended roster: every index in the repository on one workload.

Beyond the paper's ten-index comparison, this bench runs the *entire*
implemented family -- including AESA (the paper's "theoretical" baseline),
VPT, FQA, the full Omni trio, the plain M-index, and the extensions (DEPT,
M-tree) -- on the Words workload, giving one table to sanity-check every
structure side by side.
"""

from __future__ import annotations

import pytest

from repro.bench import (
    build_all,
    format_table,
    run_knn_queries,
    run_range_queries,
)

from _bench_common import built_indexes, emit, workloads  # noqa: F401  (fixtures)

ROSTER = (
    "AESA",
    "LAESA",
    "EPT",
    "EPT*",
    "CPT",
    "BKT",
    "FQT",
    "FQA",
    "VPT",
    "MVPT",
    "PM-tree",
    "Omni-seq",
    "OmniB+",
    "OmniR-tree",
    "M-index",
    "M-index*",
    "SPB-tree",
    "DEPT",
    "M-tree",
)


@pytest.fixture(scope="module")
def roster(workloads):
    workload = workloads["Words"]
    built = build_all(workload, ROSTER)
    radius = workload.radius_for(0.16)
    rows = []
    for name, result in built.items():
        range_cost = run_range_queries(result.index, workload.queries, radius)
        knn_cost = run_knn_queries(result.index, workload.queries, 20)
        rows.append(
            {
                "Index": name,
                "Build comp": result.compdists,
                "Build PA": result.page_accesses,
                "MRQ comp": round(range_cost.mean_compdists, 1),
                "MRQ PA": round(range_cost.mean_page_accesses, 1),
                "kNN comp": round(knn_cost.mean_compdists, 1),
                "kNN PA": round(knn_cost.mean_page_accesses, 1),
            }
        )
    return rows, built


def test_extended_roster(roster, benchmark, workloads):
    rows, built = roster
    emit(
        "extended_roster",
        format_table(
            rows,
            title="Extended roster: all 19 indexes on Words (r=16%, k=20)",
            first_column="Index",
        ),
    )
    assert len(rows) == len(ROSTER)
    by = {r["Index"]: r for r in rows}
    # AESA: the compdists floor for kNN among table methods
    assert by["AESA"]["kNN comp"] <= by["LAESA"]["kNN comp"]
    # every pivot-based index should beat the compact-partitioning baseline
    # on kNN distance computations (the paper's premise)
    assert by["SPB-tree"]["kNN comp"] <= by["M-tree"]["kNN comp"]
    assert by["LAESA"]["kNN comp"] <= by["M-tree"]["kNN comp"]
    index = built["AESA"].index
    q = workloads["Words"].queries[0]
    benchmark(lambda: index.knn_query(q, 20))
