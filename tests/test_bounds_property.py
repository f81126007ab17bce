"""Property-based bound correctness: triangle, MBB, Ptolemaic, and the
one-byte path-distance codes of MVPT / VPT leaves.

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
    MVPT,
    VPT,
    CostCounters,
    Dataset,
    DiscreteMetricAdapter,
    HammingDistance,
    L2,
    MetricSpace,
    QuadraticFormDistance,
    brute_force_knn,
    brute_force_range,
)
from repro.core.pivot_filter import (
    lower_bound_many_queries,
    ptolemaic_lower_bound_many_queries,
    ptolemaic_pairs,
    upper_bound_many_queries,
)
from repro.core.staged import StagedPruner, score_pivot_order
from repro.core.quantise import Frame, Marks, gap_tables

from conftest import assert_codes_hold

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
    lower = lower_bound_many_queries(qdists, omat)[0]
    upper = upper_bound_many_queries(qdists, omat)[0]
    assert (lower <= true_d + EPS).all()
    assert (true_d <= upper + EPS).all()

    # MBB: the pivot-space bounding box of the whole object set must
    # sandwich every member's true distance
    lows, highs = omat.min(axis=0), omat.max(axis=0)
    lo = lower_bound_many_queries(qdists, lows, highs)[0, 0]
    hi = upper_bound_many_queries(qdists, highs)[0, 0]
    assert (lo <= true_d + EPS).all()
    assert (true_d <= hi + EPS).all()
    # and it can never beat the per-object triangle bound
    assert (lo <= lower + EPS).all()

    # Ptolemaic -- only on metrics declaring the inequality
    if metric.is_ptolemaic and len(pivots) > 1:
        pair = metric.pairwise(pivots, pivots)
        pt = ptolemaic_lower_bound_many_queries(qdists, omat, pair)[0]
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
    triangle = lower_bound_many_queries(qdists, omat)[0]
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


# -- pivot-distance codes: MVPT / VPT paths, FQA signatures, SPB-tree grid --------

DISTS = st.floats(min_value=0.0, max_value=5000.0, allow_nan=False)


@st.composite
def frame_cases(draw):
    """A frame fitted to a column's build-time distances by one index's
    policy, then distances met later (inserts, some on cell edges, some
    outside the frame) and query-to-pivot distances."""
    policy = draw(st.sampled_from(["mvpt", "fqa", "spb"]))
    discrete = policy == "fqa" or draw(st.booleans())
    shape = draw(st.sampled_from(["spread", "narrow", "equal", "byte", "past-byte"]))
    top = {"spread": 5000.0, "narrow": 1e-6, "equal": 0.0, "byte": 255.0, "past-byte": 3000.0}[shape]
    base = draw(st.floats(min_value=0.0, max_value=1000.0, allow_nan=False))
    if shape in ("byte", "past-byte"):
        base = 0.0
    build = draw(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30)
    )
    build = [base + top * x for x in build]
    later = draw(st.lists(DISTS, max_size=10)) + [0.0, base / 2, base + 2 * top + 1]
    if discrete:
        build, later = [float(round(d)) for d in build], [float(round(d)) for d in later]
    build = np.asarray(build)
    if policy == "mvpt":  # one node's band: the build's distances span it
        frame = Frame.band(build.min(), build.max(), discrete)
    elif policy == "fqa":  # low end 0, the integer width that leaves the top cell open
        frame = Frame(0.0, max(1.0, np.ceil((build.max() + 1) / 255)), True)
    else:  # a uniform grid as the SPB-tree's was (the frame its old files
        # convert from): low end 0, width eps, 2^bits cells
        bits = draw(st.sampled_from([4, 8, 12]))
        eps = max(build.max(), 1e-9) / ((1 << bits) - 1) * (1 + 1e-9)
        frame = Frame(0.0, eps, discrete, 1 << bits)
    # cell edges, the frame's own two ends and past them included (on a
    # discrete metric, the whole distances nearest them)
    cells = draw(st.lists(st.integers(-2, frame.cells + 2), max_size=6)) + [frame.cells]
    edges = [float(frame.low + frame.width * c) for c in cells]
    later += [float(round(d)) if discrete else d for d in edges if d >= 0]
    queries = draw(st.lists(DISTS, min_size=1, max_size=6)) + list(build[:3])
    return policy, discrete, frame, build, later, queries


def _searchsorted_codes(frame, dists) -> np.ndarray:
    """The cell of each distance by ``searchsorted`` over the 2^k + 1 cell
    edges: the form ``Frame.encode`` computed before it went by arithmetic."""
    edges = frame.low + frame.width * np.arange(frame.cells + 1, dtype=np.float64)
    cells = np.searchsorted(edges, np.asarray(dists, dtype=np.float64), side="right") - 1
    return np.clip(cells, 0, frame.cells - 1)


@given(
    case=frame_cases(),
    steps=st.lists(st.integers(-3, 3), max_size=8),
    far=st.floats(min_value=1e3, max_value=1e12),
)
@settings(max_examples=400, deadline=None)
def test_arithmetic_encode_is_the_searchsorted_form(case, steps, far):
    """``floor((d - low) / width)`` plus the edge check gives every code
    ``searchsorted`` gives: on the frame's cell edges and one ulp either
    side of them, past both ends, on exact (discrete) frames and on frames
    of zero width."""
    _, _, frame, build, later, _ = case
    edges = frame.low + frame.width * np.arange(frame.cells + 1, dtype=np.float64)
    picked = edges[[s % len(edges) for s in steps] + [0, frame.cells - 1, frame.cells]]
    near = np.concatenate([picked, np.nextafter(picked, -np.inf), np.nextafter(picked, np.inf)])
    if frame.discrete:  # whole distances only: the nearest to the edges
        near = np.round(near)
    dists = np.concatenate(
        [build, later, near, [frame.low - far, frame.low + far * max(frame.width, 1.0)]]
    )
    dists = dists[dists >= 0]
    if frame.discrete:
        dists = np.round(dists)
    assert np.array_equal(frame.encode(dists), _searchsorted_codes(frame, dists))
    # blocks past the first, and a matrix of them, code the same
    grid = np.resize(dists, (3, 9000))
    assert np.array_equal(frame.encode(grid), _searchsorted_codes(frame, grid))


@given(case=frame_cases())
@settings(max_examples=400, deadline=None)
def test_codes_never_exclude_their_distance(case):
    """A code's decoded interval holds the exact distance -- at build, and
    for distances on cell edges, below and above the frame fixed then -- so
    the gap table built from a query-to-pivot distance is a Lemma 1 lower
    bound, whichever index fitted the frame."""
    policy, discrete, frame, build, later, queries = case
    if policy == "mvpt":  # a cell a distance from the band's low end, if that fits a byte
        assert frame.low == build.min() and frame.discrete == discrete
        span = build.max() - build.min()
        assert frame.width == (1.0 if discrete and span <= 255 else span / 256)
    codes = frame.encode(build)
    assert codes.dtype == (np.uint16 if frame.cells > 256 else np.uint8)
    assert codes.shape == build.shape
    if policy != "mvpt":  # fitted so the build leaves the open top cell free
        assert codes.max() < frame.cells - 1
    dists = np.concatenate([build, later])
    codes = np.concatenate([codes, frame.encode(later)])
    assert [frame.encode_one(float(d)) for d in dists] == codes.tolist()
    low, high = frame.bounds(np.arange(frame.cells))
    assert low[0] == -np.inf and high[-1] == np.inf  # the end cells are open
    assert (low[1:] <= high[1:]).all() and (high[:-1] <= low[1:]).all()
    assert (low[codes] <= dists).all() and (dists <= high[codes]).all()
    assert all(np.array_equal(a, b) for a, b in zip(frame.bounds(codes), (low[codes], high[codes])))
    tables = gap_tables([frame] * len(queries), queries)
    assert tables.shape == (len(queries), frame.cells) and (tables >= 0).all()
    for dq, table in zip(queries, tables):
        assert np.array_equal(table, np.maximum(np.maximum(low - dq, dq - high), 0.0))
        assert (table[codes] <= np.abs(dq - dists)).all()
        if frame.discrete and frame.width == 1.0:  # a distance a cell: the
            # bounded cells lose nothing
            inside = (codes > 0) & (codes < frame.cells - 1)
            assert (table[codes][inside] == np.abs(dq - dists)[inside]).all()


@st.composite
def marks_cases(draw):
    """A build table of one column kind -- spread, constant, a few values
    many times over, whole distances whose span fits the cells or does not
    -- the marks and codes fitted to it, and distances met later: below the
    first edge, past the last, on the edges and one ulp either side."""
    kind = draw(st.sampled_from(["spread", "constant", "duplicates", "fits", "edge", "past"]))
    discrete = kind in ("fits", "edge", "past") or (kind != "spread" and draw(st.booleans()))
    bits = draw(st.sampled_from([2, 4, 8]))
    n = draw(st.integers(0, 60))
    l = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = float(draw(st.integers(0, 500)))
    below = (1 << bits) - 1
    if kind == "spread":
        table = base + rng.uniform(0, 5000, size=(n, l))
    elif kind == "constant":
        table = np.full((n, l), base)
    elif kind == "duplicates":
        table = rng.choice(base + rng.uniform(0, 50, size=3), size=(n, l))
    elif kind == "fits":  # fewer whole distances than cells under the top one
        table = base + rng.integers(0, below, size=(n, l))
    elif kind == "edge":  # as many whole distances as those cells, or one fewer
        table = base + rng.integers(0, below + 1, size=(n, l))
        table[:1], table[-1:] = base, base + below - draw(st.integers(0, 1))
    else:
        table = base + rng.integers(0, 4 * below + 2, size=(n, l))
    if discrete:
        table = np.round(table)
    marks, codes = Marks.fit(table, bits, discrete)
    picked = marks.edges.reshape(-1)
    later = np.concatenate(
        [picked, np.nextafter(picked, -np.inf), np.nextafter(picked, np.inf)]
        + [[0.0, base / 2, base + 1e4, 1e12]]
    )
    later = later[later >= 0]
    if discrete:
        later = np.round(later)
    later = np.resize(later, (-(-len(later) // l), l))
    return kind, discrete, bits, table, marks, codes, later


@given(case=marks_cases())
@settings(max_examples=400, deadline=None)
def test_marks_refine_the_uniform_grid(case):
    """Marks fitted by rank code the build as ``encode`` does; every build
    distance, and every one met later, lies in its decoded cell, the end
    cells open; the build leaves the top cell free; each build distance's
    cell lies inside its cell on the uniform grid, so no bound loosens; no
    two edges under the top cell's coincide (but for a cell 0 left below
    the least distance), and a discrete metric's edges are whole numbers;
    within a uniform cell, the cells hold equal shares of a column's
    distinct distances; and on a discrete metric whose span fits them, one
    whole distance each."""
    kind, discrete, bits, table, marks, codes, later = case
    n, l = table.shape
    cells = 1 << bits
    assert marks.cells == cells and marks.edges.shape == (l, cells)
    assert (np.diff(marks.edges, axis=1) >= 0).all()
    assert codes.dtype == np.uint8 and codes.shape == table.shape
    assert np.array_equal(codes, marks.encode(table))
    assert codes.max(initial=0) < cells - 1
    for dists in (table, later):
        low, high = marks.bounds(marks.encode(dists))
        assert (low <= dists).all() and (dists <= high).all()
    low, high = marks.bounds(np.tile(np.arange(cells), (l, 1)).T)
    assert (low[0] == -np.inf).all() and (high[-1] == np.inf).all()
    assert (low[1:] <= high[1:]).all()
    # one row, as an insert codes it
    for row in later[:3]:
        assert np.array_equal(marks.encode(row), marks.encode(row[None])[0])
    uniform = Frame.uniform(table.max(initial=-np.inf), discrete, cells)
    grid = uniform.encode(table)
    (mine_low, mine_high), (grid_low, grid_high) = marks.bounds(codes), uniform.bounds(grid)
    assert (mine_low >= grid_low).all() and (mine_high <= grid_high).all()
    if discrete:  # whole-number edges: no cell between two whole distances
        assert (marks.edges == np.round(marks.edges)).all()
    for p in range(l):
        column = table[:, p]
        # a least distance past the uniform grid's open cell 0 has cell 0 below it
        bottom = int(n > 0 and grid[:, p].min() > 0)
        # no two edges under the ceiling coincide: the unspent cells pad the top
        spent = marks.edges[p][marks.edges[p] < marks.edges[p, -1]]
        assert (np.diff(spent)[bottom:] > 0).all()
        if discrete and n and column.max() - column.min() < cells - 1 - bottom:
            assert (marks.edges[p] == column.min() - bottom + np.arange(cells)).all()
            inside = slice(1, cells - 1)
            assert (low[inside, p] == high[inside, p]).all()
            assert (low[inside, p] == marks.edges[p, inside]).all()
        elif len(np.unique(column)) == n:  # distinct: shares differ by one at most
            for j in np.unique(grid[:, p]):
                share = np.unique(codes[grid[:, p] == j, p], return_counts=True)[1]
                assert np.ptp(share) <= 1


@given(case=marks_cases(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_marks_code_one_row_as_the_matrix_path_does(case, data):
    """``encode`` of one row (an insert's or a delete's, on Python floats)
    gives the codes and dtype the matrix path gives that row as a ``1 x l``
    matrix -- on the build, on every edge and an ulp either side, past both
    ends -- on the case's grid and on 2^10 cells of the same table; a row
    holding NaN, or a fraction where a discrete cell holds one whole
    distance, raises on both paths alike, and a row of the wrong length
    raises."""
    _, discrete, _, table, marks, _, later = case
    for grid in (marks, Marks.fit(table, 10, discrete)[0]):
        rows = np.concatenate([table, later]) if len(table) else later
        for row in rows:
            one, matrix = grid.encode(row), grid.encode(row[None])[0]
            assert one.dtype == matrix.dtype == np.min_scalar_type(grid.cells - 1)
            assert np.array_equal(one, matrix)
        bad = np.array(later[0], dtype=np.float64)
        bad[data.draw(st.integers(0, len(bad) - 1))] = data.draw(
            st.sampled_from([np.nan, 0.5] if discrete else [np.nan])
        )
        if discrete and not np.isnan(bad).any():
            # a fraction raises only where its cell holds one whole distance
            try:
                expected = grid.encode(bad[None])[0]
            except AssertionError:
                expected = None
        else:
            expected = None
        if expected is None:
            for form in (bad, bad[None]):
                with pytest.raises(AssertionError, match="marks lost"):
                    grid.encode(form)
        else:
            assert np.array_equal(grid.encode(bad), expected)
        with pytest.raises(ValueError):
            grid.encode(np.append(later[0], 1.0))


def test_marks_refuse_a_distance_no_cell_holds():
    """No interval holds NaN, and a whole-distance cell holds no fraction:
    fitting or coding one raises instead of filing it in a cell a Lemma 1
    filter would trust."""
    with pytest.raises(AssertionError, match="marks lost"):
        Marks.fit(np.array([[1.0], [2.0], [np.nan]]), 8, False)
    marks, _ = Marks.fit(np.array([[1.0, 4.0], [2.0, 9.0]]), 8, True)
    for dists in ([np.nan, 4.0], [1.0, 4.5]):
        with pytest.raises(AssertionError, match="marks lost"):
            marks.encode(np.array(dists))
    # cell 0 is left below each column's least: both are past the uniform
    # grid's cell 0
    assert marks.encode(np.array([1.0, 5.0])).tolist() == [1, 2]


@given(case=frame_cases(), columns=st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_marks_of_a_uniform_frame_are_the_frame(case, columns):
    """A uniform frame's cells as marks code every distance as
    ``Frame.encode`` does and decode every code as ``Frame.bounds`` does,
    bit for bit: how an SPB-tree file written on a uniform grid converts
    without moving a key, a bound or a count."""
    _, _, frame, build, later, _ = case
    marks = Marks.of_frame(frame, columns)
    assert marks.cells == frame.cells and marks.discrete == frame.discrete
    dists = np.concatenate([build, later])
    dists = np.resize(dists, (-(-len(dists) // columns), columns))
    codes = frame.encode(dists)
    assert np.array_equal(marks.encode(dists), codes)
    every = np.tile(np.arange(frame.cells), (columns, 1)).T
    for mine, theirs in zip(marks.bounds(every), frame.bounds(every)):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
    for mine, theirs in zip(marks.bounds(codes), frame.bounds(codes)):
        assert np.array_equal(mine, theirs)


@st.composite
def band_cases(draw):
    """Bands as MVPT nodes hold them -- zero width, a byte wide or under on
    a discrete metric, wider -- and distances met in each: the band's ends,
    its cell edges and one ulp either side, and inserts far outside it."""
    discrete = draw(st.booleans())
    n = draw(st.integers(1, 6))
    lows, highs, dists = [], [], []
    for _ in range(n):
        low = draw(DISTS)
        span = draw(st.sampled_from([0.0, 1e-6, 1.0, 37.0, 255.0, 256.0, 4000.0]))
        high = low + span
        if discrete:
            low, high = float(round(low)), float(round(high))
        frame = Frame.band(low, high, discrete)
        cells = draw(st.lists(st.integers(0, 256), max_size=5)) + [0, 256]
        mine = [low, high] + [float(frame.low + frame.width * c) for c in cells]
        mine = [d for d in mine if low <= d <= high]
        mine += [float(np.nextafter(d, side)) for d in mine for side in (-np.inf, np.inf)]
        mine = [d for d in mine if low <= d <= high]
        far = draw(st.lists(st.floats(1.0, 1e9), max_size=3))
        mine += [low + f for f in far] + [max(0.0, low - f) for f in far]
        if discrete:
            mine = [float(round(d)) for d in mine]
        lows += [low] * len(mine)
        highs += [high] * len(mine)
        dists += mine
    return discrete, np.array(lows), np.array(highs), np.array(dists)


@given(case=band_cases())
@settings(max_examples=300, deadline=None)
def test_band_codes_hold_within_their_bands(case):
    """One call codes every distance in its own band, as the band's frame
    alone codes it; a code decodes, its end cells ending at the band as an
    insert stretched it, to an interval that holds the distance -- a whole
    distance's own on a discrete band a byte wide, 1/256 of the band on a
    wider one."""
    discrete, lows, highs, dists = case
    codes = Frame.band(lows, highs, discrete).encode(dists)
    assert codes.dtype == np.uint8
    for low, high, d, code in zip(lows, highs, dists, codes.tolist()):
        frame = Frame.band(low, high, discrete)
        assert frame.encode_one(d) == code == int(frame.encode(np.array([d]))[0])
        now_low, now_high = min(low, d), max(high, d)  # stretched by the insert
        decoded_low, decoded_high = (float(v) for v in frame.bounds(code))
        decoded_low, decoded_high = max(decoded_low, now_low), min(decoded_high, now_high)
        assert decoded_low <= d <= decoded_high
        if discrete and high - low <= 255:  # a distance a cell, inserts too
            assert code == min(max(d - low, 0), 255)
            if low <= d and code < 255:  # the open end cells aside
                assert decoded_low == decoded_high == d
        elif not low <= d <= high:  # past the band: an end cell
            assert code == (0 if d < low else 255)
        else:
            # a cell's width, to the rounding of its two edges (on a discrete
            # metric, the whole distances inside them)
            slack = 1.0 if discrete else 4 * np.spacing(high)
            assert decoded_high - decoded_low <= (high - low) / 256 * (1 + 1e-9) + slack


@st.composite
def coded_tree_cases(draw):
    kind = draw(st.sampled_from(["l2", "hamming", "grid"]))
    n = draw(st.integers(1, 70))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    if kind == "hamming":
        points, metric = rng.integers(0, 3, size=(n + 12, 6)), HammingDistance()
    elif kind == "grid":  # whole-number distances far past a byte
        points = rng.integers(0, 900, size=(n + 12, 2)).astype(np.float64)
        metric = DiscreteMetricAdapter(L2)
    else:
        points = rng.normal(size=(n + 12, 2)) * draw(st.sampled_from([1e-3, 1.0, 1e4]))
        if draw(st.booleans()):  # duplicates: nodes no pivot can split
            points = points[rng.integers(0, max(1, n // 5), size=len(points))]
        metric = L2
    arity = draw(st.integers(2, 5))
    leaf_size = draw(st.integers(0, 6))
    n_pivots = draw(st.integers(0, min(4, n)))
    return points, metric, n, arity, leaf_size, n_pivots, rng


@given(case=coded_tree_cases())
@settings(max_examples=120, deadline=None)
def test_coded_trees_answer_exactly_through_updates(case):
    points, metric, n, arity, leaf_size, n_pivots, rng = case
    dataset = Dataset(points[:n].copy(), metric, name="drawn")
    pivots = rng.choice(n, size=n_pivots, replace=False).tolist()
    space = MetricSpace(dataset, CostCounters())
    if arity == 2:
        index = VPT.build(space, pivots, leaf_size=leaf_size)
    else:
        index = MVPT.build(space, pivots, arity=arity, leaf_size=leaf_size)
    assert_codes_hold(index)
    gone = set()
    for extra in points[n:]:  # inserts interleaved with deletes and re-inserts
        if rng.random() < 0.5:
            extra = extra * 7 + 3  # well outside what the frames saw
        index.insert(extra)
        victim = int(rng.integers(n))
        if victim in gone:
            index.insert(dataset[victim], object_id=victim)
            gone.remove(victim)
        else:
            index.delete(victim)
            gone.add(victim)
    assert_codes_hold(index)
    oracle = MetricSpace(dataset)
    scale = float(np.median(metric.one_to_many(dataset[0], dataset.objects))) or 1.0
    for q in (dataset[0], dataset[len(dataset) - 1], points[n] * 0.5):
        for radius in (0.0, 0.5 * scale, scale):
            want = [i for i in brute_force_range(oracle, q, radius) if i not in gone]
            assert index.range_query(q, radius) == want
        for k in (1, 4):
            nearest = brute_force_knn(oracle, q, k + len(gone))
            assert index.knn_query(q, k) == [
                nb for nb in nearest if nb.object_id not in gone
            ][:k]
