"""Pivot filtering (Lemmas 1-4) and pivot selection strategies."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MetricSpace, make_la, make_uniform, make_words
from repro.core.pivot_filter import (
    _COLUMN_BLOCK_FLOATS,
    can_prune,
    can_validate,
    double_pivot_can_prune,
    lower_bound,
    lower_bound_many,
    lower_bound_many_queries,
    mbb_can_prune,
    mbb_can_validate,
    mbb_max_dist,
    mbb_min_dist,
    range_pivot_can_prune,
    range_pivot_min_dist,
    upper_bound,
    upper_bound_many,
)
from repro.core.pivot_selection import hf, hfi, max_variance_pivots, psa, random_pivots, select_pivots


def _setup(n=120, pivots=3, seed=0):
    ds = make_uniform(n, dim=3, seed=seed)
    space = MetricSpace(ds)
    rng = np.random.default_rng(seed)
    pivot_ids = rng.choice(n, size=pivots, replace=False)
    q = ds[int(rng.integers(0, n))]
    qd = np.asarray([ds.distance(q, ds[int(p)]) for p in pivot_ids])
    mat = np.stack(
        [
            np.asarray([ds.distance(ds[i], ds[int(p)]) for p in pivot_ids])
            for i in range(n)
        ]
    )
    true = np.asarray([ds.distance(q, ds[i]) for i in range(n)])
    return qd, mat, true


class TestLemma1And4Bounds:
    """The safety invariants: lower <= d(q,o) <= upper, always."""

    def test_bounds_sandwich_truth(self):
        qd, mat, true = _setup()
        lows = lower_bound_many(qd, mat)
        highs = upper_bound_many(qd, mat)
        assert np.all(lows <= true + 1e-9)
        assert np.all(highs >= true - 1e-9)

    def test_scalar_versions_agree(self):
        qd, mat, true = _setup()
        for i in range(len(true)):
            assert lower_bound(qd, mat[i]) == pytest.approx(
                lower_bound_many(qd, mat)[i]
            )
            assert upper_bound(qd, mat[i]) == pytest.approx(
                upper_bound_many(qd, mat)[i]
            )

    def test_prune_never_drops_answers(self):
        qd, mat, true = _setup(seed=1)
        for radius in (0.0, 50.0, 200.0, 800.0):
            for i in range(len(true)):
                if can_prune(qd, mat[i], radius):
                    assert true[i] > radius

    def test_validate_never_admits_non_answers(self):
        qd, mat, true = _setup(seed=2)
        for radius in (50.0, 200.0, 800.0):
            for i in range(len(true)):
                if can_validate(qd, mat[i], radius):
                    assert true[i] <= radius

    def test_empty_pivots(self):
        assert lower_bound([], []) == 0.0
        assert upper_bound([], []) == float("inf")


def _table_layouts(omat, tmp_path):
    """One table, every memory layout a caller hands the batch kernel."""
    n, l = omat.shape
    wide = np.zeros((n, 2 * l + 1))
    wide[:, : 2 * l : 2] = omat
    frozen = omat.copy()
    frozen.flags.writeable = False
    layouts = {
        "C": np.ascontiguousarray(omat),
        "F": np.asfortranarray(omat),
        "strided": wide[:, : 2 * l : 2],
        "read-only": frozen,
    }
    if omat.size:  # an empty file cannot be mapped
        path = tmp_path / f"table_{n}x{l}.bin"
        omat.tofile(path)
        # what load_index hands a restored LAESA, minus the write permission
        layouts["memmap"] = np.memmap(path, dtype=np.float64, mode="r", shape=(n, l))
    return layouts


class TestLemma1BatchKernel:
    """``lower_bound_many_queries`` (a pivot column at a time) against the
    scalar ``lower_bound`` and the ``n x l`` ``lower_bound_many``: the two
    forms that stay as references."""

    @pytest.mark.parametrize("l", [0, 1, 5])
    @pytest.mark.parametrize("n", [0, 1, 3000, 50_001])
    @pytest.mark.parametrize("q", [0, 1, 33])
    def test_bit_identical_to_scalar_loop(self, q, n, l, tmp_path):
        rng = np.random.default_rng(1000 * q + 10 * n + l)
        qmat = rng.uniform(0, 100, size=(q, l))
        omat = rng.uniform(0, 100, size=(n, l))
        got = lower_bound_many_queries(qmat, omat)
        assert got.shape == (q, n) and got.dtype == np.float64
        # every cell against the n x l form, one query at a time
        for i in range(q):
            assert np.array_equal(got[i], lower_bound_many(qmat[i], omat))
        # the scalar loop: every cell of a small table, a sample of a large
        # one (both ends included: block and chunk edges)
        rows = range(n) if n <= 1 else {0, n - 1, *rng.integers(0, n, 64).tolist()}
        for i in range(q):
            for j in rows:
                assert got[i, j] == lower_bound(qmat[i], omat[j])
        # 3000 rows -> 21 queries a block, so 33 queries end on a short one
        for name, table in _table_layouts(omat, tmp_path).items():
            assert np.array_equal(lower_bound_many_queries(qmat, table), got), name
            assert np.array_equal(table, omat), name  # never written

    def test_no_q_by_n_by_l_temporary(self):
        q, n, l = 32, 50_000, 5
        rng = np.random.default_rng(0)
        qmat, omat = rng.uniform(size=(q, l)), rng.uniform(size=(n, l))
        lower_bound_many_queries(qmat[:1], omat[:8])  # warm numpy's own caches
        tracemalloc.start()
        try:
            out = lower_bound_many_queries(qmat, omat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        q_chunk = max(1, _COLUMN_BLOCK_FLOATS // n)
        scratch = 8 * (q_chunk * n + l * n)  # one block + the l x n table copy
        assert peak - out.nbytes < 3 * scratch
        assert peak < 8 * q * n * l / 2  # nothing of the broadcast's order


class TestLemma2:
    def test_range_pivot(self):
        # ball region of radius 3 around p; q at distance 10 from p
        assert range_pivot_can_prune(10.0, 3.0, 6.0)
        assert not range_pivot_can_prune(10.0, 3.0, 7.0)
        assert range_pivot_min_dist(10.0, 3.0) == 7.0
        assert range_pivot_min_dist(2.0, 3.0) == 0.0

    def test_range_pivot_safety_on_real_data(self):
        ds = make_la(200, seed=3)
        rng = np.random.default_rng(3)
        p = ds[0]
        members = [int(i) for i in rng.choice(200, size=50)]
        region_radius = max(ds.distance(p, ds[i]) for i in members)
        q = ds[7]
        dqp = ds.distance(q, p)
        for radius in (100.0, 500.0):
            if range_pivot_can_prune(dqp, region_radius, radius):
                for i in members:
                    assert ds.distance(q, ds[i]) > radius


class TestLemma3:
    def test_double_pivot(self):
        assert double_pivot_can_prune(10.0, 3.0, 3.0)
        assert not double_pivot_can_prune(10.0, 3.0, 4.0)

    def test_double_pivot_safety(self):
        ds = make_la(300, seed=4)
        pi, pj = ds[0], ds[1]
        region = [
            i
            for i in range(2, 300)
            if ds.distance(ds[i], pi) <= ds.distance(ds[i], pj)
        ]
        q = ds[5]
        dqi, dqj = ds.distance(q, pi), ds.distance(q, pj)
        for radius in (50.0, 400.0):
            if double_pivot_can_prune(dqi, dqj, radius):
                for i in region:
                    assert ds.distance(q, ds[i]) > radius


class TestMbbBounds:
    def test_min_max_dist(self):
        qd = np.array([5.0, 5.0])
        assert mbb_min_dist(qd, [6.0, 0.0], [8.0, 4.0]) == 1.0
        assert mbb_min_dist(qd, [4.0, 4.0], [6.0, 6.0]) == 0.0
        assert mbb_max_dist(qd, [0.0, 0.0], [2.0, 3.0]) == 7.0

    def test_prune_validate(self):
        qd = np.array([5.0])
        assert mbb_can_prune(qd, [10.0], [12.0], 4.9)
        assert not mbb_can_prune(qd, [10.0], [12.0], 5.0)
        assert mbb_can_validate(qd, [0.0], [1.0], 6.0)

    def test_mbb_bounds_cover_members(self):
        qd, mat, true = _setup(seed=5)
        lows, highs = mat.min(axis=0), mat.max(axis=0)
        lo = mbb_min_dist(qd, lows, highs)
        hi = mbb_max_dist(qd, lows, highs)
        assert lo <= true.min() + 1e-9
        assert hi >= true.min() - 1e-9  # upper bound holds for each member
        assert np.all(true >= lo - 1e-9)

    @given(
        qd=st.lists(st.floats(0, 100), min_size=2, max_size=4),
        deltas=st.lists(st.floats(0, 50), min_size=2, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_point_box_consistency(self, qd, deltas):
        size = min(len(qd), len(deltas))
        qd = np.asarray(qd[:size])
        point = np.asarray(deltas[:size])
        # a degenerate box equals the point: min dist == lower bound formula
        assert mbb_min_dist(qd, point, point) == pytest.approx(
            float(np.abs(qd - point).max())
        )


class TestPivotSelection:
    def setup_method(self):
        self.space = MetricSpace(make_la(300, seed=6))

    @pytest.mark.parametrize("strategy", ["random", "max_variance", "hf", "hfi"])
    def test_distinct_pivots(self, strategy):
        pivots = select_pivots(self.space, 5, strategy=strategy, seed=1)
        assert len(pivots) == 5
        assert len(set(pivots)) == 5
        assert all(0 <= p < 300 for p in pivots)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            select_pivots(self.space, 3, strategy="nope")

    def test_too_many_pivots(self):
        with pytest.raises(ValueError):
            random_pivots(self.space, 1000)

    def test_hf_finds_outliers(self):
        # HF should pick objects far apart: the first two foci should be
        # farther from each other than a random pair on average
        foci = hf(self.space, 2, seed=2)
        ds = self.space.dataset
        rng = np.random.default_rng(2)
        random_mean = np.mean(
            [
                ds.distance(ds[int(a)], ds[int(b)])
                for a, b in rng.integers(0, 300, size=(50, 2))
            ]
        )
        assert ds.distance(ds[foci[0]], ds[foci[1]]) > random_mean

    def test_hfi_beats_random_on_bound_quality(self):
        ds = self.space.dataset
        rng = np.random.default_rng(3)
        pairs = rng.integers(0, 300, size=(200, 2))

        def bound_quality(pivots):
            total, count = 0.0, 0
            for a, b in pairs:
                true = ds.distance(ds[int(a)], ds[int(b)])
                if true == 0:
                    continue
                lb = max(
                    abs(
                        ds.distance(ds[int(a)], ds[int(p)])
                        - ds.distance(ds[int(b)], ds[int(p)])
                    )
                    for p in pivots
                )
                total += lb / true
                count += 1
            return total / count

        hfi_pivots = hfi(self.space, 4, seed=4)
        random_p = random_pivots(self.space, 4, seed=4)
        assert bound_quality(hfi_pivots) >= bound_quality(random_p) * 0.95

    def test_psa_shapes(self):
        space = MetricSpace(make_words(80, seed=7))
        idx, dist, candidates = psa(space, 3, candidate_scale=10, sample_size=16, seed=0)
        assert idx.shape == (80, 3)
        assert dist.shape == (80, 3)
        assert idx.max() < len(candidates)
        # stored distances must be the real distances
        ds = space.dataset
        for o in (0, 17, 42):
            for j in range(3):
                p = candidates[idx[o, j]]
                assert dist[o, j] == pytest.approx(ds.distance(ds[o], ds[p]))

    def test_max_variance_pivots(self):
        pivots = max_variance_pivots(self.space, 3, seed=5)
        assert len(set(pivots)) == 3


class TestManyQueriesMbbBounds:
    """2-D MBB bounds: agree with the scalar forms, masks stay safe."""

    def _boxes(self, n_boxes=12, l=4, seed=9):
        rng = np.random.default_rng(seed)
        lows = rng.uniform(0, 50, size=(n_boxes, l))
        highs = lows + rng.uniform(0, 30, size=(n_boxes, l))
        qmat = rng.uniform(0, 80, size=(7, l))
        return qmat, lows, highs

    def test_agree_with_scalar_forms(self):
        from repro.core.pivot_filter import (
            mbb_max_dist_many_queries,
            mbb_min_dist_many_queries,
        )

        qmat, lows, highs = self._boxes()
        mins = mbb_min_dist_many_queries(qmat, lows, highs)
        maxs = mbb_max_dist_many_queries(qmat, lows, highs)
        assert mins.shape == maxs.shape == (7, 12)
        for i in range(qmat.shape[0]):
            for j in range(lows.shape[0]):
                assert mins[i, j] == mbb_min_dist(qmat[i], lows[j], highs[j])
                assert maxs[i, j] == mbb_max_dist(qmat[i], lows[j], highs[j])

    def test_single_box_broadcast(self):
        from repro.core.pivot_filter import (
            mbb_max_dist_many_queries,
            mbb_min_dist_many_queries,
        )

        qmat, lows, highs = self._boxes()
        one = mbb_min_dist_many_queries(qmat, lows[0], highs[0])
        assert one.shape == (7, 1)
        assert one[3, 0] == mbb_min_dist(qmat[3], lows[0], highs[0])
        assert mbb_max_dist_many_queries(qmat, lows[0], highs[0]).shape == (7, 1)

    def test_masks_match_scalar_decisions(self):
        from repro.core.pivot_filter import (
            mbb_prune_mask_many_queries,
            mbb_validate_mask_many_queries,
        )

        qmat, lows, highs = self._boxes()
        radius = 25.0
        prune = mbb_prune_mask_many_queries(qmat, lows, highs, radius)
        validate = mbb_validate_mask_many_queries(qmat, lows, highs, radius)
        for i in range(qmat.shape[0]):
            for j in range(lows.shape[0]):
                assert prune[i, j] == mbb_can_prune(qmat[i], lows[j], highs[j], radius)
                assert validate[i, j] == mbb_can_validate(
                    qmat[i], lows[j], highs[j], radius
                )

    def test_per_query_radii(self):
        from repro.core.pivot_filter import mbb_prune_mask_many_queries

        qmat, lows, highs = self._boxes()
        radii = np.linspace(5.0, 60.0, qmat.shape[0])
        masks = mbb_prune_mask_many_queries(qmat, lows, highs, radii)
        for i, r in enumerate(radii):
            for j in range(lows.shape[0]):
                assert masks[i, j] == mbb_can_prune(qmat[i], lows[j], highs[j], r)


def _hfi_reference(space, n_pivots, candidate_scale=40, sample_pairs=200, seed=0):
    """The pre-vectorization HFI incremental selection (scalar inner loop).

    A faithful copy of the original per-candidate Python loop, kept as the
    oracle for the vectorized reduction in
    :func:`repro.core.pivot_selection.hfi` -- both must choose identical
    pivots (scores are reduced in the same float summation order and ties
    break toward the first candidate either way).
    """
    rng = np.random.default_rng(seed)
    n = len(space)
    n_candidates = min(max(candidate_scale, n_pivots), n)
    candidates = hf(space, n_candidates, seed=seed)

    pair_left = rng.integers(0, n, size=sample_pairs)
    pair_right = rng.integers(0, n, size=sample_pairs)
    keep = pair_left != pair_right
    pair_left = [int(i) for i in pair_left[keep]]
    pair_right = [int(i) for i in pair_right[keep]]
    true_d = np.array(
        [space.d_between_ids(i, j) for i, j in zip(pair_left, pair_right)],
        dtype=np.float64,
    )
    positive = true_d > 0
    left_mat = space.pairwise_ids(pair_left, candidates)
    right_mat = space.pairwise_ids(pair_right, candidates)
    gaps = np.abs(left_mat - right_mat)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(
            positive[:, None], gaps / np.maximum(true_d[:, None], 1e-12), 0.0
        )

    chosen: list[int] = []
    chosen_cols: list[int] = []
    current = np.zeros(ratios.shape[0], dtype=np.float64)
    while len(chosen) < n_pivots:
        best_score, best_col = -1.0, -1
        for col in range(len(candidates)):
            if col in chosen_cols:
                continue
            score = float(np.maximum(current, ratios[:, col]).mean())
            if score > best_score:
                best_score, best_col = score, col
        if best_col < 0:
            break
        chosen_cols.append(best_col)
        chosen.append(candidates[best_col])
        current = np.maximum(current, ratios[:, best_col])
    if len(chosen) < n_pivots:
        extra = [i for i in range(n) if i not in chosen]
        rng.shuffle(extra)
        chosen.extend(extra[: n_pivots - len(chosen)])
    return chosen


class TestHfiVectorization:
    """The vectorized incremental selection picks identical pivots."""

    @pytest.mark.parametrize("seed", (0, 1, 7))
    def test_identical_pivots_on_la(self, seed):
        space = MetricSpace(make_la(300, seed=11))
        assert hfi(space, 5, seed=seed) == _hfi_reference(space, 5, seed=seed)

    def test_identical_pivots_on_words(self):
        space = MetricSpace(make_words(200, seed=13))
        assert hfi(space, 4, seed=2) == _hfi_reference(space, 4, seed=2)

    def test_exhausting_candidates_falls_back(self):
        # more pivots than candidates: the greedy loop must stop cleanly
        # and fill from the random fallback, exactly like the scalar loop
        space = MetricSpace(make_la(12, seed=5))
        got = hfi(space, 12, candidate_scale=4, seed=3)
        ref = _hfi_reference(space, 12, candidate_scale=4, seed=3)
        assert got == ref
        assert len(set(got)) == 12
