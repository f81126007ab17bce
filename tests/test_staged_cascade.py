"""Staged pruning cascade: exactness, Ptolemaic stage, snapshots, service.

The engine's contract (ISSUE 10): the staged cascade -- pruning-power
prefix, refine, Lemma 4 validation, Ptolemaic filter -- must answer
bit-for-bit like the single-shot filter and like brute force, for every
metric; non-Ptolemaic metrics must skip stage 4 automatically; and the
whole pruner must survive snapshot save/restore and the live dispatcher.

The single-shot filter is not a build option: it is the reference this
module composes from the full-broadcast kernels of ``core.pivot_filter``
(:func:`_single_shot_masks`) and holds the cascade's masks against.
"""

from __future__ import annotations

import copy
import json
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import (
    CostCounters,
    Dataset,
    HammingDistance,
    L2,
    MetricSpace,
    QuadraticFormDistance,
    brute_force_knn_many,
    brute_force_range_many,
    load_index,
    make_color,
    make_la,
    save_index,
    select_pivots,
)
from repro.core.pivot_filter import (
    lower_bound_many_queries,
    ptolemaic_lower_bound_many_queries,
    ptolemaic_pairs,
    upper_bound_many_queries,
)
from repro.core.staged import StagedPruner
from repro.service import QueryService
from repro.tables.aesa import AESA
from repro.tables.cpt import CPT
from repro.tables.ept import EPT, EPTStar
from repro.tables.laesa import LAESA

from conftest import lemma1_baseline

N = 120
N_PIVOTS = 5


def _l2_space(seed: int = 7) -> MetricSpace:
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 100, size=(N, 6))
    return MetricSpace(Dataset(points, L2, name="l2"), CostCounters())


def _quadratic_space(seed: int = 7) -> MetricSpace:
    rng = np.random.default_rng(seed)
    dim = 5
    basis = rng.normal(size=(dim, dim))
    matrix = basis @ basis.T + dim * np.eye(dim)
    points = rng.uniform(0, 10, size=(N, dim))
    dist = QuadraticFormDistance(matrix)
    return MetricSpace(Dataset(points, dist, name="qf"), CostCounters())


def _hamming_space(seed: int = 7) -> MetricSpace:
    rng = np.random.default_rng(seed)
    points = rng.integers(0, 2, size=(N, 24))
    return MetricSpace(Dataset(points, HammingDistance(), name="ham"), CostCounters())


SPACES = {"l2": _l2_space, "quadratic": _quadratic_space, "hamming": _hamming_space}
# moderate-selectivity radii, pre-picked per space family
RADII = {"l2": 55.0, "quadratic": 25.0, "hamming": 9.0}


def _build(index_name: str, space: MetricSpace, **kwargs):
    pivot_ids = select_pivots(space, N_PIVOTS, strategy="hfi", seed=3)
    if index_name == "LAESA":
        return LAESA.build(space, pivot_ids, **kwargs)
    if index_name == "CPT":
        return CPT.build(space, pivot_ids, **kwargs)
    if index_name == "EPT":
        return EPT.build(space, n_groups=N_PIVOTS, seed=3, **kwargs)
    if index_name == "EPT*":
        return EPTStar.build(space, n_pivots_per_object=N_PIVOTS, seed=3, **kwargs)
    if index_name == "AESA":
        return AESA.build(space, **kwargs)
    raise ValueError(index_name)


def _queries(space: MetricSpace, n: int = 6, seed: int = 99):
    rng = np.random.default_rng(seed)
    ids = rng.choice(len(space), size=n, replace=False)
    return [space.dataset[int(i)] for i in ids]


def _answers(index, queries, radius, k):
    return (
        index.range_query_many(queries, radius),
        [
            [(nb.object_id, nb.distance) for nb in row]
            for row in index.knn_query_many(queries, k)
        ],
    )


def _single_shot_masks(pruner, qmat, omat, radius, validate=False, slots=None):
    """The single-shot filter: one full q x n broadcast per lemma, every
    cell decided only after every slot has been evaluated.  A shared-pivot
    table composes it from the kernels; a per-object one reads every cell's
    query distances through its slot map at once (``q x n x l``)."""
    if slots is None:
        lower = lower_bound_many_queries(qmat, omat)
        upper = upper_bound_many_queries(qmat, omat)
        if pruner.use_ptolemaic:
            pair_bound = ptolemaic_lower_bound_many_queries(
                qmat, omat, pruner.pair_matrix, pairs=pruner.pairs
            )
    else:
        q, o = qmat[:, slots], omat[None]
        lower, upper = np.abs(q - o).max(axis=2), (q + o).min(axis=2)
        if pruner.use_ptolemaic:
            a, b = pruner.pairs[:, 0], pruner.pairs[:, 1]
            denom = pruner.pair_matrix[slots[:, a], slots[:, b]]
            cross = np.abs(q[..., a] * o[..., b] - q[..., b] * o[..., a])
            ok = denom > 0
            pair_bound = np.where(ok, cross / np.where(ok, denom, 1.0), 0.0).max(axis=2)
    alive = lower <= radius
    validated = np.zeros_like(alive)
    if validate:
        validated = alive & (upper <= radius)
        alive &= ~validated
    if pruner.use_ptolemaic:
        alive &= pair_bound <= radius
    return alive, validated


def _cells(index):
    """The ``float64`` table an index's codes decode to: the cascade's
    logic is held here over such a table (``tests/test_float32_cells.py``
    holds the codes to it)."""
    return index.table.view.values


def _table_of(index, queries):
    """``(qmat, omat, slots)``: what a table hands its pruner for
    ``queries``, decoded, the slot map ``None`` on a shared-pivot table."""
    if hasattr(index, "mapping"):
        return index.mapping.map_query_many(queries), _cells(index), None
    return index._query_pivot_dists_many(queries), _cells(index), index._pivot_idx


def _assert_cascade_equals_single_shot(index, queries, radius):
    """Cascade masks == the single-shot masks, cell for cell, on either
    table layout, with and without Lemma 4."""
    qmat, omat, slots = _table_of(index, queries)
    for validate in (False, True):
        got = index.pruner.masks_many_queries(
            qmat, omat, radius, validate=validate, slots=slots
        )
        want = _single_shot_masks(index.pruner, qmat, omat, radius, validate, slots)
        assert (got[0] == want[0]).all() and (got[1] == want[1]).all()


@pytest.mark.parametrize("space_name", sorted(SPACES))
@pytest.mark.parametrize("index_name", ["LAESA", "CPT", "EPT", "EPT*", "AESA"])
def test_staged_equals_single_shot_equals_brute_force(space_name, index_name):
    """The tentpole invariant, per metric x index family.

    The built index and its Lemma 1 baseline (the same pruner without
    pivot pairs) must both return brute-force answers for MRQ and MkNNQ,
    and the cascade's masks must equal the single-shot masks composed from
    the kernels (AESA has no mask stage).  Hamming runs too: its build
    must skip the Ptolemaic machinery (is_ptolemaic=False) and still be
    exact.
    """
    radius, k = RADII[space_name], 10
    space = SPACES[space_name]()
    queries = _queries(space)
    expected_range = brute_force_range_many(space, queries, radius)
    expected_knn = [
        [(nb.object_id, nb.distance) for nb in row]
        for row in brute_force_knn_many(space, queries, k)
    ]

    built = _build(index_name, SPACES[space_name]())
    for label, index in (("built", built), ("lemma1", lemma1_baseline(built))):
        got_range, got_knn = _answers(index, queries, radius, k)
        assert got_range == expected_range, (index_name, label)
        assert got_knn == expected_knn, (index_name, label)
        # the one-query view agrees with the batch it is a view of
        assert index.range_query(queries[0], radius) == expected_range[0]
        if index_name != "AESA":
            _assert_cascade_equals_single_shot(index, queries, radius)


@pytest.mark.parametrize("space_name", sorted(SPACES))
@pytest.mark.parametrize("index_name", ["LAESA", "EPT"])
def test_one_pivot_table_is_a_prefix_with_an_empty_tail(space_name, index_name):
    """l == 1: the cascade has nothing to refine, and still equals the
    single-shot masks, brute force, and the all-prefix stage counts."""
    radius = RADII[space_name]
    space = SPACES[space_name]()
    if index_name == "LAESA":
        index = LAESA.build(space, select_pivots(space, 1, strategy="hfi", seed=3))
    else:
        index = EPT.build(space, n_groups=1, seed=3)
    queries = _queries(space)
    space.counters.reset()
    got = index.range_query_many(queries, radius)
    snap = space.counters.snapshot()
    assert got == brute_force_range_many(SPACES[space_name](), queries, radius)
    assert snap.prune_prefix > 0
    assert snap.prune_refine == snap.prune_ptolemaic == 0
    assert not index.pruner.use_ptolemaic  # one pivot has no pair
    _assert_cascade_equals_single_shot(index, queries, radius)
    k = 7
    assert [
        [(nb.object_id, nb.distance) for nb in index.knn_query(q, k)] for q in queries
    ] == [
        [(nb.object_id, nb.distance) for nb in row]
        for row in brute_force_knn_many(SPACES[space_name](), queries, k)
    ]


@pytest.mark.parametrize("index_name", ["LAESA", "EPT*"])
def test_pruner_pickled_with_retired_staged_attribute_still_answers(index_name):
    """Snapshots written before the ``staged=`` option was retired carry a
    ``staged`` attribute on the pruner; it must unpickle and be ignored."""
    index = _build(index_name, _l2_space())
    queries = _queries(index.space)
    expected = _answers(index, queries, RADII["l2"], 5)
    current_stats = index.pruner.stats()
    assert "staged" not in current_stats
    for retired in (True, False):
        legacy = copy.copy(index.pruner)
        legacy.staged = retired
        index.pruner = pickle.loads(pickle.dumps(legacy))
        assert index.pruner.stats() == current_stats
        assert _answers(index, queries, RADII["l2"], 5) == expected


@pytest.mark.parametrize("space_name", ["l2", "quadratic"])
def test_ptolemaic_enabled_on_declaring_metrics(space_name):
    index = _build("LAESA", SPACES[space_name]())
    assert index.pruner.use_ptolemaic
    assert index.pruner.pair_matrix is not None
    assert index.pruner.pairs.shape[0] > 0


def test_hamming_skips_ptolemaic_stage():
    """The build never turns the bound on unsoundly: no pair matrix, no
    pairs."""
    index = _build("LAESA", _hamming_space())
    assert not index.pruner.use_ptolemaic
    assert index.pruner.pair_matrix is None
    assert index.pruner.pairs.shape[0] == 0


def test_ptolemaic_never_loosens_the_survivor_mask():
    """The built pruner's survivors are a subset of its Lemma 1
    baseline's, and stage 4 fires."""
    space = _l2_space()
    queries = _queries(space, n=8)
    pto = _build("LAESA", _l2_space())
    tri = lemma1_baseline(pto)
    qmat = tri.mapping.map_query_many(queries)
    radius = RADII["l2"]
    tri_alive, _ = tri.pruner.masks_many_queries(qmat, _cells(tri), radius)
    counters = CostCounters()
    pto_alive, _ = pto.pruner.masks_many_queries(
        qmat, _cells(pto), radius, counters=counters
    )
    assert not (pto_alive & ~tri_alive).any()
    snap = counters.snapshot()
    assert snap.prune_ptolemaic == int(tri_alive.sum() - pto_alive.sum())
    assert snap.prune_ptolemaic > 0  # L2 at this radius: the stage pays


def test_prune_stage_counters_flow_to_cost_snapshot():
    space = _l2_space()
    index = _build("LAESA", space, use_validation=True)
    space = index.space
    space.counters.reset()
    queries = _queries(space)
    index.range_query_many(queries, RADII["l2"])
    snap = space.counters.snapshot()
    assert snap.prune_prefix > 0
    assert snap.prune_prefix + snap.prune_refine + snap.prune_ptolemaic > 0
    # sequential path records through the same cascade
    before = snap
    index.range_query(queries[0], RADII["l2"])
    delta = space.counters.snapshot() - before
    assert delta.prune_prefix + delta.prune_refine >= 0


def test_validation_decides_only_survivors():
    """Satellite: Lemma 4 runs cell-wise on undecided cells, never the
    full table -- validated and surviving masks are disjoint and their
    union is bounded by what stage 1/2 left alive."""
    space = _l2_space()
    index = _build("LAESA", space, use_validation=True)
    queries = _queries(index.space)
    qmat = index.mapping.map_query_many(queries)
    # a generous radius: Lemma 4's min_i (d(q,p_i) + d(o,p_i)) needs head
    # room over the true distance before it can accept answers unverified
    radius = 160.0
    survivors, validated = index.pruner.masks_many_queries(
        qmat, _cells(index), radius, validate=True
    )
    assert not (survivors & validated).any()
    assert validated.any()


# -- what each stage costs, read from counts and allocations -------------------


def _reference_stage_counts(pruner, qmat, omat, radius, validate):
    """The four per-stage decided counts, composed from the broadcast
    kernels: what the cascade must report however it evaluates a stage."""
    head = pruner.order[: pruner.prefix]
    after_prefix = lower_bound_many_queries(qmat[:, head], omat[:, head]) <= radius
    after_refine = lower_bound_many_queries(qmat, omat) <= radius
    validated = np.zeros_like(after_refine)
    if validate:
        validated = after_refine & (upper_bound_many_queries(qmat, omat) <= radius)
    undecided = after_refine & ~validated
    pair_dead = np.zeros_like(undecided)
    if pruner.use_ptolemaic:
        pair_dead = undecided & (
            ptolemaic_lower_bound_many_queries(
                qmat, omat, pruner.pair_matrix, pairs=pruner.pairs
            )
            > radius
        )
    return {
        "prune_prefix": int((~after_prefix).sum()),
        "prune_refine": int((after_prefix & ~after_refine).sum()),
        "prune_validated": int(validated.sum()),
        "prune_ptolemaic": int(pair_dead.sum()),
    }


@pytest.mark.parametrize("validate", [False, True])
@pytest.mark.parametrize("space_name", ["l2", "quadratic"])
def test_stage_counters_equal_the_kernel_composition(space_name, validate):
    index = _build("LAESA", SPACES[space_name]())
    queries = _queries(index.space, n=8)
    qmat = index.mapping.map_query_many(queries)
    radius = RADII[space_name] * (3.0 if validate else 1.0)  # Lemma 4 needs room
    counters = CostCounters()
    table = _cells(index)
    got = index.pruner.masks_many_queries(
        qmat, table, radius, counters=counters, validate=validate
    )
    want = _single_shot_masks(index.pruner, qmat, table, radius, validate)
    assert (got[0] == want[0]).all() and (got[1] == want[1]).all()
    snap = counters.snapshot()
    counts = _reference_stage_counts(index.pruner, qmat, table, radius, validate)
    assert {name: getattr(snap, name) for name in counts} == counts
    assert counts["prune_validated" if validate else "prune_ptolemaic"] > 0


def test_ptolemaic_stage_gathers_survivors_not_the_table():
    """Stage 4 on a 50 000-row table with 100 alive cells allocates for the
    100, not for the table: no ``n x pairs`` column copy is made before the
    stage looks at which cells are alive."""
    rng = np.random.default_rng(4)
    n, l = 50_000, 5
    points = rng.uniform(0, 100, size=(n, 3))
    pivots = points[:l]
    omat = L2.pairwise(points, pivots)
    qmat = L2.pairwise(rng.uniform(0, 100, size=(2, 3)), pivots)
    pruner = StagedPruner(np.arange(l), 2, pair_matrix=L2.pairwise(pivots, pivots))
    n_pairs = pruner.pairs.shape[0]
    assert n_pairs == 8
    alive = np.zeros((2, n), dtype=bool)
    alive[rng.integers(0, 2, 100), rng.choice(n, 100, replace=False)] = True
    cells = int(alive.sum())
    radius = np.asarray(30.0)
    # the column-copy form this stage replaced, as the reference
    left, right = pruner.pairs[:, 0], pruner.pairs[:, 1]
    qi, oj = np.nonzero(alive)
    cross = np.abs(
        qmat[:, left][qi] * omat[:, right][oj] - qmat[:, right][qi] * omat[:, left][oj]
    )
    want_dead = (cross / pruner.pair_matrix[left, right]).max(axis=1) > radius
    want = alive.copy()
    want[qi[want_dead], oj[want_dead]] = False
    assert 0 < want_dead.sum() < cells

    pruner._ptolemaic_stage(qmat, omat, qi, oj, alive.copy(), radius, None)  # warm caches
    tracemalloc.start()
    try:
        decided = pruner._ptolemaic_stage(qmat, omat, qi, oj, alive, radius, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert decided == int(want_dead.sum()) and (alive == want).all()
    per_cell = 8 * (2 * l + 8 * n_pairs)  # two row gathers, a few pair-wide temps
    assert peak < 2 * cells * per_cell
    assert peak < 8 * n * n_pairs / 20  # one n x pairs copy alone is 3.2 MB


def test_cascade_reads_a_pinned_share_of_the_column_cells(datasets):
    """What staging is for, as a count: on the conftest Color vectors under
    L2 (8 pivots given, 16 queries, a 5 % radius) the prefix decides enough
    cells that the cascade evaluates at most 65 % of the ``l x q x n``
    column-cells a single-shot filter reads -- prefix columns for every
    cell, the rest only for the cells the prefix left.

    ``LAESA.build`` continues the 8 given pivots to l = 16 on these 2 256-byte
    objects, so the quarter-of-l prefix is 4 columns, not 2 (pinned at
    (2, 1560, 1243) while the table held exactly the given columns)."""
    color = datasets["Color"]
    vectors = np.asarray([color[i] for i in range(len(color))])
    data = Dataset(vectors, L2, name="ColorL2")
    space = MetricSpace(data, CostCounters())
    pivots = select_pivots(MetricSpace(data), 8, strategy="hfi", seed=3)
    index = lemma1_baseline(LAESA.build(space, pivots))
    rng = np.random.default_rng(5)
    queries = [data[int(i)] for i in rng.choice(len(data), 16, replace=False)]
    radius = float(np.quantile(L2.pairwise(np.asarray(queries[:8]), vectors), 0.05))
    qmat = index.mapping.map_query_many(queries)
    counters = CostCounters()
    alive, _ = index.pruner.masks_many_queries(
        qmat, _cells(index), radius, counters=counters
    )
    assert (alive == (lower_bound_many_queries(qmat, _cells(index)) <= radius)).all()
    snap = counters.snapshot()
    q, n = alive.shape
    l, prefix = index.mapping.n_pivots, index.pruner.prefix
    evaluated = prefix * q * n + (l - prefix) * (q * n - snap.prune_prefix)
    assert (l, prefix, snap.prune_prefix, snap.prune_refine) == (16, 4, 2565, 291)
    assert evaluated <= 0.65 * l * q * n


@pytest.mark.parametrize("index_name", ["EPT", "EPT*"])
def test_per_object_knn_bounds_keep_their_ptolemaic_tightening(index_name):
    """The per-object pruner's full matrix is Lemma 1 max'd with its slot
    pair bound -- the tightening is applied, not computed and dropped --
    and the lazy form agrees with it on any subset of rows."""
    index = _build(index_name, _l2_space())
    pruner = index.pruner
    assert pruner.use_ptolemaic
    qdists = index._query_pivot_dists_many(_queries(index.space))
    idx, dist = index._pivot_idx, _cells(index)
    triangle = np.abs(qdists[:, idx] - dist[None]).max(axis=2)
    n_q, n_o = triangle.shape
    ci, cj = np.repeat(np.arange(n_q), n_o), np.tile(np.arange(n_o), n_q)
    pair = pruner._ptolemaic_cells(qdists, dist, ci, cj, slots=idx).reshape(n_q, n_o)
    full = pruner.lower_bounds_many_queries(qdists, dist, slots=idx)
    assert np.array_equal(full, np.maximum(triangle, pair))
    assert (pair > triangle).any()
    lower, tighteners = pruner.knn_bounds(qdists, dist, slots=idx)
    assert np.array_equal(lower, triangle)
    some = np.arange(n_o)[::3][::-1]
    for i, tighten in enumerate(tighteners):
        assert np.array_equal(tighten(some), full[i, some])
    true_d = index.space.distance.pairwise(
        np.asarray(_queries(index.space)), index.space.dataset.objects
    )
    # over the codes, giving up the grid's slack: a true lower bound
    grid = index.table.view.grid
    coded = pruner.lower_bounds_many_queries(qdists, index._pivot_dist, grid, slots=idx)
    assert (coded <= true_d + 1e-9).all()


def test_a_slot_pair_naming_one_pivot_object_contributes_nothing():
    """EPT's random groups may draw one object into two groups, and an
    object may pick it in both slots: that slot pair's pivot distance is 0.
    Its Ptolemaic term is 0, so every bound stays finite, and the cascade
    still equals its single-shot reference and brute force."""
    space = _l2_space()
    objects = space.dataset.objects
    pivot_ids = [0, 1, 0, 2]  # two groups of two, object 0 in both
    # half the rows take object 0 in both slots, the rest objects 1 and 2
    both = np.arange(N) % 2 == 0
    pivot_idx = np.where(both[:, None], [0, 2], [1, 3]).astype(np.int32)
    columns = space.distance.pairwise(objects, objects[pivot_ids])
    pivot_dist = np.take_along_axis(columns, pivot_idx, axis=1)
    index = EPT(space, pivot_ids, pivot_idx, pivot_dist, 2, columns.mean(axis=0))
    pruner = index.pruner
    assert pruner.use_ptolemaic and pruner.pair_matrix[0, 2] == 0.0
    queries = _queries(space)
    qmat, omat, slots = _table_of(index, queries)
    n_q = len(queries)
    cj = np.flatnonzero(both)
    pair = pruner._ptolemaic_cells(
        qmat, omat, np.repeat(np.arange(n_q), cj.size), np.tile(cj, n_q), slots=slots
    )
    assert (pair == 0.0).all()
    full = pruner.lower_bounds_many_queries(qmat, omat, slots=slots)
    assert np.isfinite(full).all()
    for radius in (20.0, RADII["l2"], 120.0):
        _assert_cascade_equals_single_shot(index, queries, radius)
        assert index.range_query_many(queries, radius) == brute_force_range_many(
            space, queries, radius
        )
    assert index.knn_query_many(queries, 10) == brute_force_knn_many(space, queries, 10)


# -- zero-size normalization (satellite) --------------------------------------


def test_lower_bound_many_zero_size_shapes():
    q = np.asarray([1.0, 2.0])
    for empty in (np.empty((0, 2)), np.empty(0), np.float64(3.0)):
        out = lower_bound_many_queries(q, empty)[0]
        assert out.shape == (0,)
        assert out.dtype == np.float64
        out = upper_bound_many_queries(q, empty)[0]
        assert out.shape == (0,)
        assert out.dtype == np.float64


def test_masks_on_empty_tables():
    pruner = StagedPruner(np.arange(3), 1)
    alive, validated = pruner.masks_many_queries(
        np.empty((0, 3)), np.empty((0, 3)), 1.0
    )
    assert alive.shape == (0, 0) and validated.shape == (0, 0)
    alive, validated = pruner.masks_many(np.asarray([1.0, 2.0, 3.0]), np.empty(0), 1.0)
    assert alive.shape == (0,) and validated.shape == (0,)


def test_ptolemaic_pairs_skip_degenerate_denominators():
    pair = np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 4.0], [3.0, 4.0, 0.0]])
    pairs = ptolemaic_pairs(pair, budget=8)
    assert all(pair[i, j] > 0 for i, j in pairs)
    assert [tuple(p) for p in pairs] == [(0, 2), (1, 2)]


def test_ptolemaic_bound_is_a_true_lower_bound():
    """On the exact float64 table (the reference bound), and on the index's
    codes as the pruner evaluates them, through the table's grid."""
    space = _l2_space()
    index = _build("LAESA", space)
    space = index.space
    q = _queries(space, n=1)[0]
    qdists = index.mapping.map_query(q)
    objects = space.dataset.objects
    true_d = space.distance.one_to_many(q, objects)
    exact = space.distance.pairwise(objects, index.mapping.pivot_objects)
    bounds = ptolemaic_lower_bound_many_queries(
        qdists, exact, index.pruner.pair_matrix, pairs=index.pruner.pairs
    )[0]
    assert (bounds <= true_d + 1e-9).all()
    rows = np.arange(len(objects))
    cells = index.pruner._ptolemaic_cells(
        qdists[None], index._rows, 0, rows, index.table.view.grid
    )
    assert index._rows.dtype == np.uint16 and index.slack > 0
    assert (cells <= bounds).all()


# -- snapshots and the live service -------------------------------------------


@pytest.mark.parametrize("index_name", ["LAESA", "EPT*"])
def test_staged_pruner_survives_snapshot_roundtrip(tmp_path, index_name):
    space = _l2_space()
    index = _build(index_name, space)
    queries = _queries(index.space)
    expected = _answers(index, queries, RADII["l2"], 5)
    path = tmp_path / "staged.snap"
    save_index(index, path)
    counters = CostCounters()
    restored = load_index(path, counters=counters)
    assert counters.snapshot().distance_computations == 0
    assert restored.pruner.use_ptolemaic
    assert restored.pruner.stats() == index.pruner.stats()
    assert _answers(restored, queries, RADII["l2"], 5) == expected


def test_service_snapshot_restore_keeps_prune_stats(tmp_path):
    index = _build("LAESA", _l2_space())
    path = tmp_path / "svc.snap"
    save_index(index, path)
    with QueryService.from_snapshot(str(path)) as service:
        q = _queries(service.index.space, n=1)[0]
        service.range_query(q, RADII["l2"])
        stats = service.stats()
    assert stats["prune_stages"]["prefix"] > 0
    (pruning,) = stats["pruning"]
    assert pruning["index"] == "LAESA" and pruning["ptolemaic"] is True
    # the order is fixed at build: nothing about re-ranking is reported
    assert set(pruning) == {"index", "ptolemaic", "prefix", "order", "n_pairs"}


# -- pruners pickled while a ``bounds`` mode sat beside the pair matrix --------

DATA = Path(__file__).parent / "data"
# fixture -> (metric is L2, expected-answers file and key, or None)
LEGACY_PRUNER_SNAPSHOTS = {
    "entry_nodes_cpt_la300.snap": (True, ("entry_nodes_la300_expected.json", "cpt")),
    "pr21_eptstar_la300.snap": (True, ("pr21_la300_expected.json", None)),
    "pr21_laesa_la300.v1.snap": (True, ("pr21_la300_expected.json", None)),
    "pr21_laesa_reranked_la300.snap": (True, ("pr21_la300_expected.json", None)),
    "pr23_laesa_color64.snap": (False, None),
}


def _legacy_queries(name, expected):
    """The queries each fixture's expected answers were recorded for."""
    if name.startswith("pr23"):
        dataset = make_color(64, seed=11)
        return [dataset[i] for i in (0, 7, 31, 40)]
    dataset = make_la(300, seed=11)
    if name.startswith("entry_nodes"):
        return [dataset[5], dataset[31], dataset[200], dataset[3] * 3.0 + 9000.0]
    return [dataset[i] for i in expected["query_ids"]]


@pytest.mark.parametrize("name", sorted(LEGACY_PRUNER_SNAPSHOTS))
def test_pruner_pickled_with_a_bounds_mode_follows_the_metric(migrated, name):
    """Every checked-in snapshot that carries a staged pruner was pickled
    with ``bounds="auto"`` and ``is_ptolemaic`` stored on it.  It migrates
    and loads with no distance computed, the Ptolemaic stage runs iff the metric is L2
    (the pickle holds a pair matrix iff so), the stale attributes decide
    nothing -- flipping them changes neither the stage nor an answer --
    and the answers are the ones recorded when the fixture was written."""
    is_l2, recorded = LEGACY_PRUNER_SNAPSHOTS[name]
    expected = None
    if recorded is not None:
        file, key = recorded
        expected = json.loads((DATA / file).read_text())
        expected = expected[key] if key else expected
    index = load_index(migrated(name))
    assert index.space.counters.distance_computations == 0
    pruner = index.pruner
    assert vars(pruner)["bounds"] == "auto"
    assert vars(pruner)["is_ptolemaic"] is is_l2
    assert index.space.distance.is_ptolemaic is is_l2
    assert pruner.use_ptolemaic is is_l2
    assert set(pruner.stats()) == {"ptolemaic", "prefix", "order", "n_pairs"}

    queries = _legacy_queries(name, expected)
    radius = expected["radius"] if expected else 9000.0
    k = expected["k"] if expected else 5
    answers = _answers(index, queries, radius, k)
    if expected is not None:
        assert answers[0] == expected.get("range_many", expected["range"])
        assert [[[d, i] for i, d in row] for row in answers[1]] == expected.get(
            "knn_many", expected["knn"]
        )
    pruner.bounds = "ptolemaic" if not is_l2 else "triangle"
    pruner.is_ptolemaic = not is_l2
    assert pruner.use_ptolemaic is is_l2
    assert _answers(index, queries, radius, k) == answers
