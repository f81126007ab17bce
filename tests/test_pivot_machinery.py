"""Pivot filtering (Lemmas 1 and 4, the bound kernel) and pivot selection
strategies."""

from __future__ import annotations

import hashlib
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CostCounters, MetricSpace, make_la, make_uniform, make_words
from repro.core import pivot_filter
from repro.core.pivot_filter import (
    _COLUMN_BLOCK_FLOATS,
    _WHOLE_FLOATS,
    lower_bound_many_queries,
    upper_bound_many_queries,
)
from repro.core.pivot_selection import (
    hf,
    hfi,
    max_variance_pivots,
    psa,
    psa_greedy,
    random_pivots,
    select_pivots,
)
from repro.external.dept import DEPT
from repro.tables.ept import EPTStar


# -- the bound kernel's reference: one cell at a time, in pure Python ---------
#
# Lemma 1 and Lemma 4 by their definitions, on Python floats: no numpy code is
# shared with the kernel.  Subtraction and addition round the same way on
# Python floats as on float64 arrays, and max / min / abs are exact, so the
# kernel must equal these cells bit for bit.


def _cell_lower(q, low, high=None) -> float:
    """Lemma 1 for one cell: max_i |q_i - o_i| on a row, or the L-infinity
    distance from q to the box [low, high]."""
    if high is None:
        return max((abs(x - o) for x, o in zip(q, low)), default=0.0)
    return max((max(lo - x, x - hi, 0.0) for x, lo, hi in zip(q, low, high)), default=0.0)


def _cell_upper(q, high) -> float:
    """Lemma 4 for one cell: min_i q_i + o_i on a row or a box's high corner."""
    return min((x + h for x, h in zip(q, high)), default=float("inf"))


def _reference(cell, qmat, *tables, rows=None) -> list[list[float]]:
    """The ``q x n`` matrix of ``cell``, over every row or over ``rows``."""
    columns = [np.asarray(t).tolist() for t in tables]
    picked = range(len(columns[0])) if rows is None else rows
    return [[cell(q, *(c[j] for c in columns)) for j in picked] for q in np.asarray(qmat).tolist()]


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
        lows = lower_bound_many_queries(qd, mat)[0]
        highs = upper_bound_many_queries(qd, mat)[0]
        assert np.all(lows <= true + 1e-9)
        assert np.all(highs >= true - 1e-9)

    def test_scalar_versions_agree(self):
        """Each object's bounds are its cell's definition."""
        qd, mat, true = _setup()
        lows = lower_bound_many_queries(qd, mat)[0]
        highs = upper_bound_many_queries(qd, mat)[0]
        for i in range(len(true)):
            assert lows[i] == _cell_lower(qd.tolist(), mat[i].tolist())
            assert highs[i] == _cell_upper(qd.tolist(), mat[i].tolist())

    def test_prune_never_drops_answers(self):
        qd, mat, true = _setup(seed=1)
        lows = lower_bound_many_queries(qd, mat)[0]
        for radius in (0.0, 50.0, 200.0, 800.0):
            pruned = lows > radius
            assert (true[pruned] > radius).all()

    def test_validate_never_admits_non_answers(self):
        qd, mat, true = _setup(seed=2)
        highs = upper_bound_many_queries(qd, mat)[0]
        for radius in (50.0, 200.0, 800.0):
            validated = highs <= radius
            assert (true[validated] <= radius).all()

    def test_empty_pivots(self):
        # one query and one object, neither with a pivot distance
        none = np.empty((1, 0))
        assert lower_bound_many_queries(none, none).tolist() == [[0.0]]
        assert upper_bound_many_queries(none, none).tolist() == [[float("inf")]]


def _table_layouts(omat, tmp_path, name="table"):
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
        path = tmp_path / f"{name}_{n}x{l}.bin"
        omat.tofile(path)
        # what load_index hands a restored LAESA, minus the write permission
        layouts["memmap"] = np.memmap(path, dtype=np.float64, mode="r", shape=(n, l))
    return layouts


class TestLemma1BatchKernel:
    """``lower_bound_many_queries`` and ``upper_bound_many_queries`` on rows
    and on boxes, whole and a pivot column at a time, against the
    pure-Python cell definitions above."""

    @pytest.mark.parametrize("l", [0, 1, 5])
    @pytest.mark.parametrize("n", [0, 1, 3000, 50_001])
    @pytest.mark.parametrize("q", [0, 1, 33])
    def test_bit_identical_to_scalar_loop(self, q, n, l, tmp_path):
        rng = np.random.default_rng(1000 * q + 10 * n + l)
        qmat = rng.uniform(0, 100, size=(q, l))
        omat = rng.uniform(0, 100, size=(n, l))
        lows = omat - rng.uniform(0, 10, size=(n, l))
        highs = omat + rng.uniform(0, 10, size=(n, l))
        # every cell of a small table, a sample of a large one (both ends
        # included: block and chunk edges)
        rows = None if n <= 3000 else sorted({0, n - 1, *rng.integers(0, n, 64).tolist()})
        cols = slice(None) if rows is None else rows
        got = {
            "rows lower": lower_bound_many_queries(qmat, omat),
            "box lower": lower_bound_many_queries(qmat, lows, highs),
            "rows upper": upper_bound_many_queries(qmat, omat),
            "box upper": upper_bound_many_queries(qmat, highs),
        }
        want = {
            "rows lower": _reference(_cell_lower, qmat, omat, rows=rows),
            "box lower": _reference(_cell_lower, qmat, lows, highs, rows=rows),
            "rows upper": _reference(_cell_upper, qmat, omat, rows=rows),
            "box upper": _reference(_cell_upper, qmat, highs, rows=rows),
        }
        for kind, bounds in got.items():
            assert bounds.shape == (q, n) and bounds.dtype == np.float64, kind
            assert bounds[:, cols].tolist() == want[kind], kind
        # 3000 rows -> 21 queries a block, so 33 queries end on a short one
        row_layouts = _table_layouts(omat, tmp_path)
        low_layouts = _table_layouts(lows, tmp_path, "lows")
        high_layouts = _table_layouts(highs, tmp_path, "highs")
        for name, table in row_layouts.items():
            lo, hi = low_layouts[name], high_layouts[name]
            assert np.array_equal(lower_bound_many_queries(qmat, table), got["rows lower"]), name
            assert np.array_equal(upper_bound_many_queries(qmat, table), got["rows upper"]), name
            assert np.array_equal(lower_bound_many_queries(qmat, lo, hi), got["box lower"]), name
            assert np.array_equal(upper_bound_many_queries(qmat, hi), got["box upper"]), name
            assert np.array_equal(table, omat), name  # never written
            assert np.array_equal(lo, lows) and np.array_equal(hi, highs), name

    @pytest.mark.parametrize("shape", [(1, 256, 4), (1, 257, 4), (4, 64, 4), (4, 65, 4), (2, 3, 1)])
    def test_whole_and_column_forms_agree(self, shape, monkeypatch):
        """The size rule picks a form, never a value: with the threshold
        forced low (every input a pivot column at a time) and high (every
        input one broadcast) each kernel returns the same bits, and the
        pure-Python cells."""
        q, n, l = shape
        rng = np.random.default_rng(q * n * l)
        qmat = rng.uniform(0, 100, size=(q, l))
        omat = rng.uniform(0, 100, size=(n, l))
        lows, highs = omat - rng.uniform(0, 10, size=(n, l)), omat + 5.0
        want = [
            _reference(_cell_lower, qmat, omat),
            _reference(_cell_lower, qmat, lows, highs),
            _reference(_cell_upper, qmat, highs),
        ]
        for threshold in (0, _WHOLE_FLOATS, 10**12):
            monkeypatch.setattr(pivot_filter, "_WHOLE_FLOATS", threshold)
            got = [
                lower_bound_many_queries(qmat, omat),
                lower_bound_many_queries(qmat, lows, highs),
                upper_bound_many_queries(qmat, highs),
            ]
            assert [g.tolist() for g in got] == want, threshold

    def test_degenerate_shapes(self):
        """Zero pivots, zero rows, a bare row and a 1-D empty table: one
        ``q x n`` answer from both kernels, boxes included."""
        qmat = np.asarray([[1.0, 2.0], [3.0, 5.0], [0.0, 0.0]])
        kernels = {
            "lower": lambda qs, t: lower_bound_many_queries(qs, t),
            "box": lambda qs, t: lower_bound_many_queries(qs, t, t),
            "upper": upper_bound_many_queries,
        }
        empty = {"lower": 0.0, "box": 0.0, "upper": float("inf")}
        for kind, kernel in kernels.items():
            # zero pivots: a trivial bound for each of the 4 objects
            got = kernel(np.empty((3, 0)), np.empty((4, 0)))
            assert got.shape == (3, 4) and (got == empty[kind]).all(), kind
            # zero rows, and a 1-D empty table: no objects, not one phantom
            for table in (np.empty((0, 2)), np.empty(0)):
                got = kernel(qmat, table)
                assert got.shape == (3, 0) and got.dtype == np.float64, kind
            # zero queries
            assert kernel(np.empty((0, 2)), np.ones((4, 2))).shape == (0, 4), kind
            # a bare row is one object; a bare query row is one query
            row = [2.0, 1.0]
            assert kernel(qmat, row).shape == (3, 1), kind
            assert kernel(qmat[1], np.ones((4, 2))).shape == (1, 4), kind
        assert lower_bound_many_queries(qmat, [2.0, 1.0])[:, 0].tolist() == [1.0, 4.0, 2.0]
        assert upper_bound_many_queries(qmat, [2.0, 1.0])[:, 0].tolist() == [3.0, 5.0, 1.0]

    @staticmethod
    def _peak_within_one_block(boxes: bool):
        q, n, l = 32, 50_000, 5
        rng = np.random.default_rng(0)
        qmat, omat = rng.uniform(size=(q, l)), rng.uniform(size=(n, l))
        tables = (omat, omat + 1.0) if boxes else (omat,)
        lower_bound_many_queries(qmat[:1], *(t[:8] for t in tables))  # warm numpy's caches
        tracemalloc.start()
        try:
            out = lower_bound_many_queries(qmat, *tables)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        q_chunk = max(1, _COLUMN_BLOCK_FLOATS // n)
        # one block + the l x n copy of each table
        scratch = 8 * (q_chunk * n + len(tables) * l * n)
        assert peak - out.nbytes < 3 * scratch
        assert peak < 8 * q * n * l / 2  # nothing of the broadcast's order

    def test_no_q_by_n_by_l_temporary(self):
        self._peak_within_one_block(boxes=False)

    def test_no_q_by_n_by_l_temporary_on_boxes(self):
        self._peak_within_one_block(boxes=True)


class TestMbbBounds:
    def test_min_max_dist(self):
        qd = np.array([5.0, 5.0])
        assert lower_bound_many_queries(qd, [6.0, 0.0], [8.0, 4.0])[0, 0] == 1.0
        assert lower_bound_many_queries(qd, [4.0, 4.0], [6.0, 6.0])[0, 0] == 0.0
        assert upper_bound_many_queries(qd, [2.0, 3.0])[0, 0] == 7.0

    def test_prune_validate(self):
        qd = np.array([5.0])
        assert lower_bound_many_queries(qd, [10.0], [12.0])[0, 0] > 4.9
        assert not lower_bound_many_queries(qd, [10.0], [12.0])[0, 0] > 5.0
        assert upper_bound_many_queries(qd, [1.0])[0, 0] <= 6.0

    def test_mbb_bounds_cover_members(self):
        qd, mat, true = _setup(seed=5)
        lows, highs = mat.min(axis=0), mat.max(axis=0)
        lo = lower_bound_many_queries(qd, lows, highs)[0, 0]
        hi = upper_bound_many_queries(qd, highs)[0, 0]
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
        # a degenerate box equals the point: its bound is the row's bound
        assert lower_bound_many_queries(qd, point, point)[0, 0] == float(
            np.abs(qd - point).max()
        )
        assert lower_bound_many_queries(qd, point)[0, 0] == float(np.abs(qd - point).max())


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

    def test_psa_greedy_picks_are_pinned(self):
        """PSA's greedy step (``psa_greedy``) is shared by ``psa``,
        ``EPTStar.insert`` and ``DEPT.build``: the per-object pivots and
        distances of an EPT* build, one EPT* insert and DEPT's group pivots
        on LA n = 300 hash to fixed digests, at fixed distance counts (the
        distances as the table's ``uint16`` codes; the picks alone hash as
        they did while the cells were ``float64``)."""

        def digest(*parts):
            h = hashlib.sha256()
            for part in parts:
                if isinstance(part, np.ndarray):
                    h.update(part.tobytes() + str(part.dtype).encode())
                else:
                    h.update(repr(part).encode())
            return h.hexdigest()[:16]

        la = make_la(300, seed=1)
        counters = CostCounters()
        ept = EPTStar.build(MetricSpace(la, counters), n_pivots_per_object=5, seed=0)
        assert digest(ept._pivot_idx, ept._pivot_dist, ept.pivot_ids) == "136c46405ff4a2b6"
        # 44 067 while hf computed its first focus's row twice
        assert counters.distance_computations == 43767
        oid = ept.insert(make_la(301, seed=7)[300])
        assert digest(ept._pivot_idx[oid], ept._pivot_dist[oid]) == "cab1a2e0ebaaa163"
        assert counters.distance_computations == 46431  # 46 731 before, as above
        counters = CostCounters()
        dept = DEPT.build(MetricSpace(la, counters), n_pivots_per_object=5, seed=2)
        assert digest(sorted(dept.group_pivots.items()), dept.candidate_ids) == "bb751b900d2f4a18"
        assert counters.distance_computations == 23321  # 23 577 before, as above

    def test_an_ept_star_insert_costs_its_candidates_and_proxies(self):
        """EPT* keeps its |CP| x |S| pivot-proxy matrix from the first
        insert on: every later insert costs exactly |CP| + |S| distances,
        and each writes the row PSA's greedy step picks over the matrix
        computed afresh, as every insert computed it before.  A file
        written without the matrix loads and computes it when first
        needed."""
        made = make_la(306, seed=5)
        counters = CostCounters()
        space = MetricSpace(made.subset(range(300)), counters)
        ept = EPTStar.build(space, n_pivots_per_object=5, seed=0)
        cp, s = len(ept.pivot_ids), len(ept._sample_ids)
        oracle = MetricSpace(ept.space.dataset)  # uncounted
        ept = pickle.loads(pickle.dumps(ept))  # no matrix yet: as an older file
        counters = ept.space.counters
        for i in range(300, 306):
            obj = made[i]
            before = counters.distance_computations
            oid = ept.insert(obj)
            cost = counters.distance_computations - before
            assert cost == cp + s + (cp * s if i == 300 else 0)
            cand_d = oracle.d_many(obj, oracle.dataset.gather(ept.pivot_ids))
            sample_d = oracle.d_many(obj, oracle.dataset.gather(ept._sample_ids))
            sample_d = np.maximum(sample_d, 1e-12)
            fresh = oracle.pairwise_ids(ept.pivot_ids, ept._sample_ids)
            ratios = np.abs(fresh - cand_d[:, None]) / sample_d[None, :]
            used = psa_greedy(ratios, 5)
            assert ept._pivot_idx[oid].tolist() == list(used)
            # the store's codes of those distances, on its grid
            codes = np.floor(cand_d[used] / ept.table.view.grid.step)
            assert ept._pivot_dist[oid].tolist() == codes.tolist()


class TestManyQueriesMbbBounds:
    """2-D box bounds: every cell is its definition, masks stay safe."""

    def _boxes(self, n_boxes=12, l=4, seed=9):
        rng = np.random.default_rng(seed)
        lows = rng.uniform(0, 50, size=(n_boxes, l))
        highs = lows + rng.uniform(0, 30, size=(n_boxes, l))
        qmat = rng.uniform(0, 80, size=(7, l))
        return qmat, lows, highs

    def test_agree_with_scalar_forms(self):
        qmat, lows, highs = self._boxes()
        mins = lower_bound_many_queries(qmat, lows, highs)
        maxs = upper_bound_many_queries(qmat, highs)
        assert mins.shape == maxs.shape == (7, 12)
        assert mins.tolist() == _reference(_cell_lower, qmat, lows, highs)
        assert maxs.tolist() == _reference(_cell_upper, qmat, highs)

    def test_single_box_broadcast(self):
        qmat, lows, highs = self._boxes()
        one = lower_bound_many_queries(qmat, lows[0], highs[0])
        assert one.shape == (7, 1)
        assert one[3, 0] == _cell_lower(qmat[3].tolist(), lows[0].tolist(), highs[0].tolist())
        assert upper_bound_many_queries(qmat, highs[0]).shape == (7, 1)

    def test_masks_match_scalar_decisions(self):
        qmat, lows, highs = self._boxes()
        radius = 25.0
        prune = lower_bound_many_queries(qmat, lows, highs) > radius
        validate = upper_bound_many_queries(qmat, highs) <= radius
        for i in range(qmat.shape[0]):
            for j in range(lows.shape[0]):
                q, lo, hi = qmat[i].tolist(), lows[j].tolist(), highs[j].tolist()
                assert prune[i, j] == (_cell_lower(q, lo, hi) > radius)
                assert validate[i, j] == (_cell_upper(q, hi) <= radius)

    def test_per_query_radii(self):
        qmat, lows, highs = self._boxes()
        radii = np.linspace(5.0, 60.0, qmat.shape[0])
        masks = lower_bound_many_queries(qmat, lows, highs) > radii[:, None]
        for i, r in enumerate(radii):
            for j in range(lows.shape[0]):
                q, lo, hi = qmat[i].tolist(), lows[j].tolist(), highs[j].tolist()
                assert masks[i, j] == (_cell_lower(q, lo, hi) > r)


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
