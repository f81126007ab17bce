"""Property-based bound correctness: triangle, MBB, and Ptolemaic.

Hypothesis draws random vector datasets, pivot sets, and queries; every
drawn case must satisfy the bound sandwich ``lower <= d(q, o) <= upper``
for each bound family, and the Ptolemaic bound must only be offered on
metrics that declare Ptolemy's inequality (L2, PSD quadratic form --
never Hamming).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    CostCounters,
    Dataset,
    HammingDistance,
    L2,
    MetricSpace,
    QuadraticFormDistance,
)
from repro.core.pivot_filter import (
    lower_bound_many,
    lower_bound_many_queries,
    mbb_max_dist,
    mbb_min_dist,
    ptolemaic_lower_bound_many,
    ptolemaic_lower_bound_many_queries,
    ptolemaic_pairs,
    upper_bound_many,
)
from repro.core.staged import StagedPruner, score_pivot_order

EPS = 1e-7


def _metric_for(kind: str, dim: int, rng):
    if kind == "l2":
        return L2
    if kind == "quadratic":
        basis = rng.normal(size=(dim, dim))
        return QuadraticFormDistance(basis @ basis.T + dim * np.eye(dim))
    return HammingDistance()


@st.composite
def bound_cases(draw):
    kind = draw(st.sampled_from(["l2", "quadratic", "hamming"]))
    n = draw(st.integers(4, 24))
    dim = draw(st.integers(1, 5))
    n_pivots = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    if kind == "hamming":
        points = rng.integers(0, 2, size=(n + n_pivots + 1, max(2, dim * 3)))
    else:
        style = draw(st.sampled_from(["uniform", "degenerate"]))
        shape = (n + n_pivots + 1, dim)
        if style == "uniform":
            points = rng.uniform(-10, 10, size=shape)
        else:  # duplicates / collinear-ish points stress zero denominators
            base = rng.uniform(0, 3, size=(max(2, n // 4), dim))
            points = base[rng.integers(0, len(base), size=shape[0])]
    metric = _metric_for(kind, dim, rng)
    query, pivots, objects = points[0], points[1 : 1 + n_pivots], points[1 + n_pivots :]
    return kind, metric, query, pivots, objects


@given(case=bound_cases())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.data_too_large],
)
def test_bound_sandwich_holds_for_every_family(case):
    kind, metric, query, pivots, objects = case
    qdists = metric.one_to_many(query, pivots)
    omat = metric.pairwise(objects, pivots)
    true_d = metric.one_to_many(query, objects)

    # triangle (Lemma 1 / Lemma 4)
    lower = lower_bound_many(qdists, omat)
    upper = upper_bound_many(qdists, omat)
    assert (lower <= true_d + EPS).all()
    assert (true_d <= upper + EPS).all()

    # MBB: the pivot-space bounding box of the whole object set must
    # sandwich every member's true distance
    lows, highs = omat.min(axis=0), omat.max(axis=0)
    lo = mbb_min_dist(qdists, lows, highs)
    hi = mbb_max_dist(qdists, lows, highs)
    assert (lo <= true_d + EPS).all()
    assert (true_d <= hi + EPS).all()
    # and it can never beat the per-object triangle bound
    assert (lo <= lower + EPS).all()

    # Ptolemaic -- only on metrics declaring the inequality
    if metric.is_ptolemaic and len(pivots) > 1:
        pair = metric.pairwise(pivots, pivots)
        pt = ptolemaic_lower_bound_many(qdists, omat, pair)
        assert (pt <= true_d + EPS).all()
    else:
        assert kind == "hamming" or len(pivots) == 1


@given(case=bound_cases())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.data_too_large],
)
def test_staged_pruner_bound_dominates_triangle(case):
    """The cascade's kNN bound is the max of triangle and Ptolemaic, so it
    is always at least as tight as triangle alone and still a true lower
    bound of the exact distance."""
    kind, metric, query, pivots, objects = case
    space = MetricSpace(
        Dataset(np.vstack([pivots, objects]), metric, name="prop"), CostCounters()
    )
    qdists = metric.one_to_many(query, pivots)
    omat = metric.pairwise(objects, pivots)
    true_d = metric.one_to_many(query, objects)
    pruner = StagedPruner.build(
        space, omat, [space.dataset[i] for i in range(len(pivots))]
    )
    combined = pruner.lower_bounds_many(qdists, omat)
    triangle = lower_bound_many(qdists, omat)
    assert (combined >= triangle - EPS).all()
    assert (combined <= true_d + EPS).all()
    if not metric.is_ptolemaic:
        # non-Ptolemaic: the combined bound IS the triangle bound
        assert np.allclose(combined, triangle)
        assert not pruner.use_ptolemaic


@given(case=bound_cases(), n_queries=st.integers(1, 4))
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.data_too_large],
)
def test_lazy_knn_bounds_equal_the_broadcast_kernels(case, n_queries):
    """The MkNNQ path tightens only the rows it reaches; the full matrix it
    would reach in the limit is max(Lemma 1, the ``q x n x pairs``
    Ptolemaic broadcast) bit for bit, and any subset of positions
    tightens to the same values as the whole column."""
    kind, metric, query, pivots, objects = case
    space = MetricSpace(
        Dataset(np.vstack([pivots, objects]), metric, name="prop"), CostCounters()
    )
    queries = np.vstack([query, objects[: n_queries - 1]])
    qmat = metric.pairwise(queries, pivots)
    omat = metric.pairwise(objects, pivots)
    pruner = StagedPruner.build(
        space, omat, [space.dataset[i] for i in range(len(pivots))]
    )
    want = lower_bound_many_queries(qmat, omat)
    if pruner.use_ptolemaic:
        np.maximum(
            want,
            ptolemaic_lower_bound_many_queries(
                qmat, omat, pruner.pair_matrix, pairs=pruner.pairs
            ),
            out=want,
        )
    assert np.array_equal(pruner.lower_bounds_many_queries(qmat, omat), want)
    assert np.array_equal(pruner.lower_bounds_many(qmat[0], omat), want[0])
    lower, tighteners = pruner.knn_bounds(qmat, omat)
    assert np.array_equal(lower, lower_bound_many_queries(qmat, omat))
    some = np.arange(len(objects))[::2][::-1]
    for i, tighten in enumerate(tighteners):
        assert (tighten is not None) == (pruner.use_ptolemaic and pruner.pairs.size > 0)
        if tighten is not None:
            assert np.array_equal(tighten(some), want[i, some])


@given(
    radius=st.floats(0.0, 30.0),
    case=bound_cases(),
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.data_too_large],
)
def test_cascade_never_prunes_an_answer(radius, case):
    """Soundness of the full mask cascade at arbitrary radii: every true
    answer is either a survivor or validated, never pruned."""
    kind, metric, query, pivots, objects = case
    space = MetricSpace(
        Dataset(np.vstack([pivots, objects]), metric, name="prop"), CostCounters()
    )
    qdists = metric.one_to_many(query, pivots)
    omat = metric.pairwise(objects, pivots)
    true_d = metric.one_to_many(query, objects)
    pruner = StagedPruner.build(
        space, omat, [space.dataset[i] for i in range(len(pivots))]
    )
    survivors, validated = pruner.masks_many(qdists, omat, radius, validate=True)
    answers = true_d <= radius
    assert (answers <= (survivors | validated)).all()
    # validated objects really are answers (Lemma 4 is an upper bound)
    assert (true_d[validated] <= radius + EPS).all()


def test_score_pivot_order_is_a_permutation():
    rng = np.random.default_rng(0)
    mat = rng.uniform(0, 5, size=(40, 6))
    order = score_pivot_order(mat)
    assert sorted(int(i) for i in order) == list(range(6))
    # deterministic in the seed
    assert np.array_equal(order, score_pivot_order(mat))


def test_ptolemaic_pairs_budget_respected():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 5, size=(6, 3))
    pair = L2.pairwise(pts, pts)
    for budget in (1, 3, 8, 100):
        pairs = ptolemaic_pairs(pair, budget=budget)
        assert pairs.shape[0] <= budget
        assert pairs.shape[0] == min(budget, 15)  # C(6,2) distinct pairs
