"""Staged pruning engine: the Ptolemaic compdist gate + staged mask exactness.

* **Ptolemaic MRQ compdists (Color-style L2, gated at <= 0.8x)** -- on a
  Euclidean workload the Ptolemaic pair bound must cut the verified
  candidate set enough that batch MRQ compdists fall to at most 0.8x of
  the Lemma-1 (triangle) baseline.  Distance counts are deterministic
  (fixed seeds, no timing), so the gate cannot flap.
* **Staged batch mask (exactness, reported cost, no gate)** -- the staged
  ``q x n`` mask must equal the single-shot Lemma 1 mask at bench scale.
  The >= 1.15x wall-ratio gate that used to sit here compared the cascade
  with a ``q x n x l`` broadcast; Lemma 1 is now a column-at-a-time kernel
  (~5x faster on this case), so the ratio stopped measuring the cascade.
  What staging is for is gated as a count in tier-1
  (``tests/test_staged_cascade.py``: column-cells evaluated, from the
  per-stage counters); here both wall times are printed beside that count.

The triangle baseline is the Ptolemaic pruner's own column order and
prefix with no pivot-pair matrix (an L2 build always makes one), so the
two differ in stage 4 alone.  Exactness is asserted before anything is
gated: the Ptolemaic table must answer bit-for-bit like the baseline *and*
like brute force, and the staged mask must equal the single-shot mask.

Scale note: this bench pins its own cardinality (``REPRO_PTOLEMAIC_N``,
default 20000) instead of following ``REPRO_BENCH_N``.  The paper's Color
workload uses L1; the gate swaps in L2 on the same vectors because
Ptolemy's inequality holds for Euclidean (and PSD quadratic-form) metrics
only.
"""

from __future__ import annotations

import os

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
from repro.bench.runner import _best_seconds
from repro.tables.laesa import LAESA
from repro.tables.store import PivotTable

from _bench_common import emit

PTOLEMAIC_N = int(os.environ.get("REPRO_PTOLEMAIC_N", "20000"))

N_PIVOTS = 8
PAIR_BUDGET = 28  # all C(8,2) pivot pairs: the compdist gate's configuration
N_QUERIES = 16
COMPDIST_SELECTIVITY = 0.16  # the paper's default MRQ radius
WALL_SELECTIVITY = 0.05  # selective radius: where the staged prefix pays
MAX_COMPDIST_RATIO = 0.8  # Ptolemaic vs triangle verified-candidate bound
REPEATS = 5


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


def _lemma1_baseline(pruner: StagedPruner) -> StagedPruner:
    """The same column order and prefix with no pair matrix: stages 1-3
    only, the triangle-inequality baseline the Ptolemaic stage is gated
    against."""
    return StagedPruner(pruner.order, pruner.prefix)


def _laesas(data, pivots) -> dict[str, LAESA]:
    """One L2 table, searched with and without the Ptolemaic stage."""
    space = MetricSpace(data, CostCounters())
    mapping = PivotTable(space, pivots)
    pruner = StagedPruner.build(
        space, mapping.table.view.table, mapping.pivot_objects, pair_budget=PAIR_BUDGET
    )
    assert pruner.use_ptolemaic
    return {
        "triangle": LAESA(space, mapping, pruner=_lemma1_baseline(pruner)),
        "ptolemaic": LAESA(space, mapping, pruner=pruner),
    }


def test_ptolemaic_compdist_gate(color_l2):
    data, pivots, queries, radii = color_l2
    radius = radii[COMPDIST_SELECTIVITY]
    results = {}
    for bounds, index in _laesas(data, pivots).items():
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


def test_staged_mask_exact_and_costed(color_l2):
    """The staged mask equals the single-shot mask at bench scale; what
    staging saves is reported as a count (column-cells evaluated, from the
    per-stage counters) with both wall times beside it, ungated: since the
    single-shot side became a column-at-a-time kernel the wall ratio no
    longer measures the cascade (tests/test_staged_cascade.py pins the
    count on the tier-1 Color set)."""
    data, pivots, queries, radii = color_l2
    radius = radii[WALL_SELECTIVITY]
    space = MetricSpace(data, CostCounters())
    mapping = PivotMapping(space, pivots)
    qmat = mapping.map_query_many(queries)
    pruner = _lemma1_baseline(
        StagedPruner.build(space, mapping.matrix, mapping.pivot_objects)
    )
    counters = CostCounters()

    def staged():
        return pruner.masks_many_queries(
            qmat, mapping.matrix, radius, counters=counters
        )[0]

    def single():
        return lower_bound_many_queries(qmat, mapping.matrix) <= radius

    assert (staged() == single()).all()
    decided_by_prefix = counters.snapshot().prune_prefix
    q, n = qmat.shape[0], mapping.matrix.shape[0]
    evaluated = pruner.prefix * q * n + (N_PIVOTS - pruner.prefix) * (
        q * n - decided_by_prefix
    )

    rows = [
        {
            "Path": "single-shot",
            "Mask ms": round(_best_seconds(single, REPEATS) * 1e3, 2),
            "Column-cells": N_PIVOTS * q * n,
        },
        {
            "Path": "staged",
            "Mask ms": round(_best_seconds(staged, REPEATS) * 1e3, 2),
            "Column-cells": evaluated,
        },
    ]
    emit(
        "ptolemaic_staged_wall",
        format_table(
            rows,
            title=(
                f"staged vs single-shot batch mask, ColorL2 "
                f"(n={PTOLEMAIC_N}, l={N_PIVOTS}, {N_QUERIES} queries, "
                f"r={WALL_SELECTIVITY:.0%} sel; exactness asserted, no gate)"
            ),
            first_column="Path",
        ),
    )
    assert evaluated < N_PIVOTS * q * n
