"""Staged pruning engine gates: Ptolemaic compdists + staged batch wall.

Two perf gates guard the staged cascade introduced with the Ptolemaic
bounds (``repro.core.staged``):

* **Ptolemaic MRQ compdists (Color-style L2, gated at <= 0.8x)** -- on a
  Euclidean workload the Ptolemaic pair bound must cut the verified
  candidate set enough that batch MRQ compdists fall to at most 0.8x of
  the Lemma-1 (triangle) baseline.  Distance counts are deterministic
  (fixed seeds, no timing), so the gate cannot flap.
* **Staged batch wall (gated at >= 1.15x at n >= 20k)** -- at selective
  radii the cascade's prefix stage decides most cells from a quarter of
  the pivot columns, so the staged ``q x n`` mask must run at least
  1.15x faster than the single-shot full-broadcast filter.  Measured as
  the minimum over ``TRIALS`` independent best-of-``REPEATS`` timings
  (scheduler noise is one-sided; the minimum estimates the true cost).

Exactness is asserted before anything is gated, every trial: the
Ptolemaic build must answer bit-for-bit like the triangle build *and*
like brute force, and the staged mask must equal the single-shot mask.

Scale note: this bench pins its own cardinality (``REPRO_PTOLEMAIC_N``,
default 20000) instead of following ``REPRO_BENCH_N``.  The wall gate's
acceptance criterion is explicitly "at n >= 20k" -- at smoke scale the
mask computation answers in microseconds and the gate would measure
allocator jitter, not the cascade.  The paper's Color workload uses L1;
the gate swaps in L2 on the same vectors because Ptolemy's inequality
holds for Euclidean (and PSD quadratic-form) metrics only.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro import (
    CostCounters,
    Dataset,
    L2,
    MetricSpace,
    brute_force_range_many,
    make_color,
    select_pivots,
)
from repro.core.mapping import PivotMapping
from repro.core.pivot_filter import lower_bound_many_queries
from repro.core.staged import StagedPruner
from repro.bench import format_table
from repro.tables.laesa import LAESA

from _bench_common import emit

PTOLEMAIC_N = int(os.environ.get("REPRO_PTOLEMAIC_N", "20000"))

N_PIVOTS = 8
PAIR_BUDGET = 28  # all C(8,2) pivot pairs: the compdist gate's configuration
N_QUERIES = 16
COMPDIST_SELECTIVITY = 0.16  # the paper's default MRQ radius
WALL_SELECTIVITY = 0.05  # selective radius: where the staged prefix pays
MAX_COMPDIST_RATIO = 0.8  # Ptolemaic vs triangle verified-candidate bound
MIN_STAGED_SPEEDUP = 1.15  # staged vs single-shot batch mask wall
REPEATS = 5
TRIALS = 3


@pytest.fixture(scope="module")
def color_l2():
    """Color-style vectors under L2 + shared HFI pivots + queries/radii."""
    color = make_color(PTOLEMAIC_N, seed=7)
    vectors = np.asarray([color[i] for i in range(len(color))])
    data = Dataset(vectors, L2, name="ColorL2")
    space = MetricSpace(data, CostCounters())
    pivots = select_pivots(space, N_PIVOTS, strategy="hfi", seed=3)
    rng = np.random.default_rng(5)
    queries = [data[int(i)] for i in rng.choice(len(data), N_QUERIES, replace=False)]
    sample = L2.pairwise(np.asarray(queries[:8]), vectors[:2000])
    radii = {
        sel: float(np.quantile(sample, sel))
        for sel in (COMPDIST_SELECTIVITY, WALL_SELECTIVITY)
    }
    return data, pivots, queries, radii


def _laesa(data, pivots, bounds: str) -> LAESA:
    space = MetricSpace(data, CostCounters())
    mapping = PivotMapping(space, pivots)
    pruner = StagedPruner.build(
        space, mapping.matrix, mapping.pivot_objects, bounds=bounds,
        pair_budget=PAIR_BUDGET,
    )
    return LAESA(space, mapping, pruner=pruner)


def test_ptolemaic_compdist_gate(color_l2):
    data, pivots, queries, radii = color_l2
    radius = radii[COMPDIST_SELECTIVITY]
    results = {}
    for bounds in ("triangle", "ptolemaic"):
        index = _laesa(data, pivots, bounds)
        index.space.counters.reset()
        answers = index.range_query_many(queries, radius)
        results[bounds] = (
            index.space.counters.snapshot().distance_computations,
            answers,
        )
    # exactness first: Ptolemaic == triangle == brute force, bit for bit
    expected = brute_force_range_many(
        MetricSpace(data, CostCounters()), queries, radius
    )
    assert results["triangle"][1] == expected
    assert results["ptolemaic"][1] == expected
    ratio = results["ptolemaic"][0] / results["triangle"][0]
    rows = [
        {
            "Bounds": bounds,
            "MRQ compdists": compdists,
            "vs triangle": round(compdists / results["triangle"][0], 3),
        }
        for bounds, (compdists, _) in results.items()
    ]
    emit(
        "ptolemaic_pruning",
        format_table(
            rows,
            title=(
                f"Ptolemaic vs triangle MRQ compdists, ColorL2 "
                f"(n={PTOLEMAIC_N}, l={N_PIVOTS}, {N_QUERIES} queries, "
                f"r={COMPDIST_SELECTIVITY:.0%} sel; gate <= "
                f"{MAX_COMPDIST_RATIO}x)"
            ),
            first_column="Bounds",
        ),
    )
    assert ratio <= MAX_COMPDIST_RATIO, (
        f"Ptolemaic MRQ compdists ratio {ratio:.3f} exceeds the "
        f"{MAX_COMPDIST_RATIO}x gate"
    )


def test_staged_wall_gate(color_l2):
    data, pivots, queries, radii = color_l2
    if PTOLEMAIC_N < 20_000:
        pytest.skip("wall gate is defined at n >= 20k")
    radius = radii[WALL_SELECTIVITY]
    space = MetricSpace(data, CostCounters())
    mapping = PivotMapping(space, pivots)
    qmat = mapping.map_query_many(queries)
    pruner = StagedPruner.build(
        space, mapping.matrix, mapping.pivot_objects, bounds="triangle"
    )

    def staged():
        return pruner.masks_many_queries(qmat, mapping.matrix, radius)[0]

    def single():
        # the single-shot baseline: the full-broadcast Lemma 1 kernel
        return lower_bound_many_queries(qmat, mapping.matrix) <= radius

    def best_of(mask) -> float:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            mask()
            times.append(time.perf_counter() - t0)
        return min(times)

    speedups = []
    for _ in range(TRIALS):
        # exactness before timing, every trial
        assert (staged() == single()).all()
        staged_s, single_s = best_of(staged), best_of(single)
        speedups.append(single_s / staged_s)
    speedup = max(speedups)  # min over trials of each cost -> max of ratios
    rows = [
        {
            "Path": "single-shot",
            "Mask ms": round(single_s * 1e3, 2),
            "Speedup": 1.0,
        },
        {
            "Path": "staged",
            "Mask ms": round(staged_s * 1e3, 2),
            "Speedup": round(speedup, 2),
        },
    ]
    emit(
        "ptolemaic_staged_wall",
        format_table(
            rows,
            title=(
                f"staged vs single-shot batch mask wall, ColorL2 "
                f"(n={PTOLEMAIC_N}, l={N_PIVOTS}, {N_QUERIES} queries, "
                f"r={WALL_SELECTIVITY:.0%} sel; gate >= "
                f"{MIN_STAGED_SPEEDUP}x)"
            ),
            first_column="Path",
        ),
    )
    assert speedup >= MIN_STAGED_SPEEDUP, (
        f"staged mask speedup {speedup:.2f}x below the "
        f"{MIN_STAGED_SPEEDUP}x gate"
    )
