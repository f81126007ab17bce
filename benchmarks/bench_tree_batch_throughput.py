"""Tree batch frontier engine: regression gate.

Not a paper experiment -- this guards the repo's own tree batch layer:
the tree family must answer a whole MRQ workload measurably faster
through the shared batch frontier engine (``repro.trees.common``) than
through the one-query-at-a-time loop, with bit-for-bit identical
answers (asserted inside :func:`repro.bench.run_batch_comparison`).
The wall-clock floor is asserted on MVPT (the paper's best tree) over
LA and Synthetic.  MkNNQ has no wall clause: ``knn_query_many`` is the
per-query walk run query after query, so the gate is the deterministic
one -- equal answers at exactly the loop's distance computations.

CPT's leaf-grouped paging has no gate here: a sequential CPT call is the
one-query view of the batch engine and already fetches leaf-grouped, so
there is no per-candidate baseline left to compare against; tier-1
``tests/test_tree_batch.py::TestCptLeafGroupedPaging`` keeps the
deterministic ``batch < sum of one-query calls`` and ``grouped_hits > 0``
assertions.

The batch sizes here are serving-shaped (16 queries -- the amortisation
the engine exists for), independent of the tiny REPRO_BENCH_QUERIES used
by the per-query paper benches.
"""

from __future__ import annotations

import os

import pytest

from repro.bench import (
    build_all,
    format_table,
    make_workload,
    run_batch_comparison,
)

from _bench_common import BENCH_N, emit  # noqa: F401

GATED = ("LA", "Synthetic")
N_QUERIES = int(os.environ.get("REPRO_TREE_BATCH_QUERIES", "16"))
# measured at n=600..2000: MVPT MRQ 3.2-4.2x, so 2.0 only trips on real
# regressions even on noisy shared CI runners
MIN_TREE_MRQ_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def tree_workloads():
    return {name: make_workload(name, n=BENCH_N, n_queries=N_QUERIES) for name in GATED}


@pytest.fixture(scope="module")
def tree_built(tree_workloads):
    return {
        name: build_all(workload, ("MVPT",))
        for name, workload in tree_workloads.items()
    }


def test_tree_batch_throughput(tree_workloads, tree_built, benchmark):
    rows = []
    for name, workload in tree_workloads.items():
        radius = workload.radius_for(0.16)
        row = run_batch_comparison(
            tree_built[name]["MVPT"].index, workload.queries, radius, 10, repeats=3
        )
        rows.append({"Dataset": name, **row})
    emit(
        "tree_batch_throughput",
        format_table(
            rows,
            title=f"Tree batch frontier engine: MVPT q/s, {N_QUERIES}-query batches",
            first_column="Dataset",
        ),
    )
    for row in rows:
        assert row["MRQ speedup"] >= MIN_TREE_MRQ_SPEEDUP, row
    # MkNNQ: a batch is the per-query walk, query after query, so its wall
    # against the loop's is noise; what must hold is the count
    for name, workload in tree_workloads.items():
        index = tree_built[name]["MVPT"].index
        counters = index.space.counters
        before = counters.snapshot()
        sequential = [index.knn_query(q, 10) for q in workload.queries]
        loop_cost = counters.snapshot() - before
        before = counters.snapshot()
        batch = index.knn_query_many(workload.queries, 10)
        batch_cost = counters.snapshot() - before
        assert batch == sequential, name
        assert batch_cost.distance_computations == loop_cost.distance_computations, name
    workload = tree_workloads["LA"]
    index = tree_built["LA"]["MVPT"].index
    benchmark(index.range_query_many, workload.queries, workload.radius_for(0.16))
