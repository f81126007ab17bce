"""External-category batch engine: the grouped page-read gate.

Not a paper experiment -- this guards the repo's own external batch layer
(``repro.external.batch`` + the per-index ``*_query_many`` bodies): the
SPB-tree's batch MRQ must do its grouped page reads -- fewer page accesses
than the one-query-at-a-time loop from identical cold pools, with the saved
I/O visible as ``grouped_hits``.  The gate is on deterministic PA counters,
not wall clock: the batch descent either reads each touched B+-tree/RAF
page once per batch or it does not.  (``tests/test_external_batch.py``
holds all seven RAF-backed indexes to the same counters at a smaller
scale.)

There is no wall-ratio gate beside it: a one-query MRQ is the batch body
at ``q = 1``, so batch-over-loop wall time compares an implementation with
itself at two batch sizes, and ROADMAP keeps wall ratios out of CI.

The batch size here is serving-shaped (16 queries -- the amortisation the
engine exists for), independent of the tiny REPRO_BENCH_QUERIES used by the
per-query paper benches.
"""

from __future__ import annotations

import os

import pytest

from repro.bench import (
    build_all,
    format_table,
    make_workload,
    run_page_access_comparison,
)

from _bench_common import BENCH_N, emit  # noqa: F401

GATED = ("LA", "Synthetic")
N_QUERIES = int(os.environ.get("REPRO_EXTERNAL_BATCH_QUERIES", "16"))


@pytest.fixture(scope="module")
def external_workloads():
    return {name: make_workload(name, n=BENCH_N, n_queries=N_QUERIES) for name in GATED}


@pytest.fixture(scope="module")
def external_built(external_workloads):
    return {
        name: build_all(workload, ("SPB-tree",))
        for name, workload in external_workloads.items()
    }


def test_spbtree_grouped_page_reads(external_workloads, external_built):
    rows = []
    for name, workload in external_workloads.items():
        radius = workload.radius_for(0.16)
        row = run_page_access_comparison(
            external_built[name]["SPB-tree"].index, workload.queries, radius
        )
        rows.append({"Dataset": name, **row})
    emit(
        "spbtree_grouped_paging",
        format_table(
            rows,
            title="SPB-tree grouped batch reads: page accesses per batch",
            first_column="Dataset",
        ),
    )
    for row in rows:
        assert row["batch PA"] < row["seq PA"], row
        # the saved I/O must show up as grouped hits, not vanish
        assert row["grouped hits"] > 0, row
