"""R-tree and M-tree substrates."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CostCounters,
    MetricSpace,
    MTreeIndex,
    PMTree,
    brute_force_knn,
    brute_force_range,
    make_la,
    make_words,
)
from repro.core.pivot_filter import lower_bound_many_queries
from repro.mtree import MTree
from repro.rtree import Rect, RTree
from repro.storage import Pager

from conftest import DATASET_MAKERS


class TestRect:
    def test_construction_validation(self):
        with pytest.raises(ValueError):
            Rect([1.0], [0.0])
        with pytest.raises(ValueError):
            Rect([1.0, 2.0], [3.0])

    def test_union_contains(self):
        a = Rect([0, 0], [1, 1])
        b = Rect([2, 2], [3, 3])
        u = Rect.union_of([a, b])
        assert u.contains_rect(a) and u.contains_rect(b)
        assert not a.intersects(b)
        assert u.intersects(a)

    def test_point_ops(self):
        r = Rect([0, 0], [2, 2])
        assert r.contains_point([1, 1])
        assert not r.contains_point([3, 0])
        assert r.expanded_point([5, 1]).highs[0] == 5

    def test_min_dist_linf(self):
        # the R-tree measures a point against a node's rectangle with the box kernel
        r = Rect([2, 2], [4, 4])
        points = [[0.0, 3.0], [3.0, 3.0], [5.0, 6.0]]
        dists = lower_bound_many_queries(points, r.lows, r.highs)[:, 0]
        assert dists.tolist() == [2.0, 0.0, 2.0]

    def test_margin_volume_enlargement(self):
        r = Rect([0, 0], [2, 3])
        assert r.margin() == 5.0
        assert r.volume() == 6.0
        assert r.enlargement([4, 0]) == 2.0
        assert r.enlargement([1, 1]) == 0.0

    def test_from_points(self):
        r = Rect.bounding_points([[1, 5], [3, 2]])
        assert r.lows.tolist() == [1, 2]
        assert r.highs.tolist() == [3, 5]


def _expanded(a, b):
    """The box holding both ``a`` and ``b``."""
    return Rect(np.minimum(a.lows, b.lows), np.maximum(a.highs, b.highs))


def _pair_loop_seeds(rects):
    """Reference: the first pair of largest waste, pair by pair."""
    best = (0, 1 if len(rects) > 1 else 0)
    best_waste = -float("inf")
    for i, j in itertools.combinations(range(len(rects)), 2):
        waste = _expanded(rects[i], rects[j]).margin() - rects[i].margin() - rects[j].margin()
        if waste > best_waste:
            best_waste, best = waste, (i, j)
    return best


@given(
    n=st.integers(0, 40),
    dims=st.sampled_from([1, 2, 5, 9, 17]),
    grid=st.sampled_from([None, 3]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_split_seeds_are_the_pair_loops(n, dims, grid, seed):
    """Every pair's waste in one pass picks the pair the loop over
    ``itertools.combinations`` picks -- the same floats, the first of
    equal wastes (a coarse grid makes them common)."""
    rng = np.random.default_rng(seed)
    lows = rng.uniform(-50, 50, size=(n, dims))
    sides = rng.uniform(0, 30, size=(n, dims)) * (rng.random((n, 1)) < 0.7)
    if grid is not None:
        lows, sides = np.round(lows / 25) * 25, np.round(sides / 10) * 10
    rects = [Rect(lo, lo + side) for lo, side in zip(lows, sides)]
    assert RTree._pick_seeds(lows, lows + sides) == _pair_loop_seeds(rects)


def _distribution_loop(rects, seeds, min_fill):
    """Reference: the quadratic split's distribution, entry by entry and
    ``Rect`` by ``Rect``, as the split ran it before its steps were array
    passes."""
    groups = ([seeds[0]], [seeds[1]])
    group_rects = [rects[seeds[0]], rects[seeds[1]]]
    remaining = [i for i in range(len(rects)) if i not in seeds]
    while remaining:
        for g in (0, 1):
            if len(groups[g]) + len(remaining) == min_fill:
                groups[g].extend(remaining)
                remaining = []
                break
        if not remaining:
            break
        best_i, best_diff, best_g = remaining[0], -1.0, 0
        for i in remaining:
            d0 = _expanded(group_rects[0], rects[i]).margin() - group_rects[0].margin()
            d1 = _expanded(group_rects[1], rects[i]).margin() - group_rects[1].margin()
            diff = abs(d0 - d1)
            if diff > best_diff:
                best_i, best_diff, best_g = i, diff, 0 if d0 < d1 else 1
        remaining.remove(best_i)
        groups[best_g].append(best_i)
        group_rects[best_g] = _expanded(group_rects[best_g], rects[best_i])
    return groups


@given(
    n=st.integers(2, 60),
    dims=st.sampled_from([1, 2, 5, 9]),
    grid=st.sampled_from([None, 3]),
    points=st.booleans(),
    fill=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_split_distribution_is_the_entry_loop(n, dims, grid, points, fill, seed):
    """The distribution's array steps put every entry in the group the
    entry-by-entry loop does, in the same order: the same floats, the
    first of equal preferences and the second group on equal growths (a
    coarse grid makes both common), leaf points and child boxes alike."""
    rng = np.random.default_rng(seed)
    lows = rng.uniform(-50, 50, size=(n, dims))
    sides = np.zeros((n, dims)) if points else rng.uniform(0, 30, size=(n, dims))
    if grid is not None:
        lows, sides = np.round(lows / 25) * 25, np.round(sides / 10) * 10
    highs = lows + sides
    rects = [Rect(lo, hi) for lo, hi in zip(lows, highs)]
    seeds = RTree._pick_seeds(lows, highs)
    min_fill = 1 + int(fill * (n // 2 - 1)) if n > 3 else 1
    assert RTree._distribute(lows, highs, seeds, min_fill) == _distribution_loop(
        rects, seeds, min_fill
    )


class TestRTree:
    def _data(self, n=800, dims=3, seed=0):
        rng = np.random.default_rng(seed)
        return rng.uniform(0, 100, size=(n, dims))

    def test_bulk_load_window_query(self):
        pts = self._data()
        tree = RTree(Pager(page_size=1024), dims=3)
        tree.bulk_load(pts, range(len(pts)))
        tree.check_invariants()
        window = Rect([10] * 3, [40] * 3)
        got = sorted(pl for _, pl in tree.search_rect(window))
        want = [
            i
            for i in range(len(pts))
            if np.all(pts[i] >= 10) and np.all(pts[i] <= 40)
        ]
        assert got == want

    def test_insert_path_equivalent(self):
        pts = self._data(300)
        tree = RTree(Pager(page_size=512), dims=3)
        for i, p in enumerate(pts):
            tree.insert(p, i)
        tree.check_invariants()
        window = Rect([20] * 3, [60] * 3)
        got = sorted(pl for _, pl in tree.search_rect(window))
        want = [
            i
            for i in range(300)
            if np.all(pts[i] >= 20) and np.all(pts[i] <= 60)
        ]
        assert got == want

    def test_delete_and_condense(self):
        pts = self._data(400, seed=1)
        tree = RTree(Pager(page_size=512), dims=3)
        tree.bulk_load(pts, range(400))
        for i in range(0, 400, 2):
            assert tree.delete(pts[i], i)
        assert not tree.delete(pts[0], 0)  # already gone
        tree.check_invariants()
        assert len(tree) == 200

    def test_internal_node_boxes_are_its_rects(self):
        pts = self._data(500, seed=2)
        tree = RTree(Pager(page_size=1024), dims=3)
        tree.bulk_load(pts, range(500))
        root = tree.pager.read(tree.root_page)
        assert not root.is_leaf
        lows, highs = root.boxes()
        assert lows.shape == highs.shape == (len(root.children), 3)
        for rect, low, high in zip(root.rects, lows, highs):
            assert np.array_equal(rect.lows, low) and np.array_equal(rect.highs, high)

    def test_empty_tree(self):
        tree = RTree(Pager(page_size=512), dims=2)
        assert tree.search_rect(Rect([0, 0], [1, 1])) == []

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            RTree(Pager(), dims=0)
        tree = RTree(Pager(), dims=2)
        with pytest.raises(ValueError):
            tree.insert(np.zeros(3), 0)

    def test_bulk_requires_empty_and_aligned(self):
        tree = RTree(Pager(page_size=512), dims=2)
        with pytest.raises(ValueError):
            tree.bulk_load(np.zeros((2, 2)), [1])
        tree.insert(np.zeros(2), 0)
        with pytest.raises(RuntimeError):
            tree.bulk_load(np.zeros((2, 2)), [0, 1])


class TestMTree:
    def _build(self, n=500, seed=0):
        ds = make_la(n, seed=seed)
        counters = CostCounters()
        space = MetricSpace(ds, counters)
        tree = MTree(space, Pager(page_size=1024, counters=counters), seed=seed)
        for i in range(n):
            tree.insert(i, ds[i])
        return ds, tree, counters

    def test_range_matches_brute_force(self):
        ds, tree, _ = self._build()
        tree.check_invariants()
        for qi, radius in ((0, 300.0), (100, 900.0), (250, 50.0)):
            got = tree.range_search([ds[qi]], radius)[0]
            want = brute_force_range(MetricSpace(ds), ds[qi], radius)
            assert got == want

    def test_knn_matches_brute_force(self):
        ds, tree, _ = self._build(seed=1)
        for qi in (0, 33, 77):
            got = [round(n.distance, 6) for n in tree.knn_search(ds[qi], 12)]
            want = [
                round(n.distance, 6)
                for n in brute_force_knn(MetricSpace(ds), ds[qi], 12)
            ]
            assert got == want

    def test_strings(self):
        ds = make_words(300, seed=2)
        space = MetricSpace(ds)
        tree = MTree(space, Pager(page_size=2048), seed=2)
        for i in range(300):
            tree.insert(i, ds[i])
        got = tree.range_search([ds[4]], 4.0)[0]
        assert got == brute_force_range(MetricSpace(ds), ds[4], 4.0)

    def test_delete(self):
        ds, tree, _ = self._build(seed=3)
        for i in range(0, 100):
            assert tree.delete(i)
        assert not tree.delete(0)
        got = tree.range_search([ds[200]], 800.0)[0]
        want = [
            i for i in brute_force_range(MetricSpace(ds), ds[200], 800.0) if i >= 100
        ]
        assert got == want
        assert len(tree) == 400

    def test_fetch_object(self):
        ds, tree, counters = self._build(seed=4)
        counters.reset()
        obj = tree.fetch_object(42)
        assert np.array_equal(obj, ds[42])
        assert counters.page_reads >= 1
        with pytest.raises(KeyError):
            tree.fetch_object(10_000)

    def test_iter_leaf_entries(self):
        ds, tree, _ = self._build(n=200, seed=5)
        ids = sorted(i for _, leaf in tree.iter_leaves() for i in leaf.ids.tolist())
        assert ids == list(range(200))

    def test_build_counts_costs(self):
        _, _, counters = self._build(n=300, seed=6)
        assert counters.distance_computations > 300  # descent + splits
        assert counters.page_writes > 0

    @pytest.mark.parametrize("name", ["PM-tree", "M-tree"])
    def test_interleaved_updates_match_brute_force(self, name):
        """Deletes, re-inserts and the splits they cause, interleaved: the
        columns stay consistent and both query bodies stay exact."""
        ds = make_la(400, seed=8)
        space = MetricSpace(ds, CostCounters())
        if name == "PM-tree":
            index = PMTree.build(space, [0, 1, 2], page_size=1024, seed=8)
        else:
            index = MTreeIndex.build(space, page_size=1024, seed=8)
        rng = np.random.default_rng(8)
        live = set(range(400))
        oracle = MetricSpace(ds)
        queries = [ds[3], ds[150], ds[399]]

        def churn(n_delete, n_insert):
            for object_id in rng.choice(sorted(live), size=n_delete, replace=False).tolist():
                index.delete(object_id)
                live.discard(object_id)
            gone = sorted(set(range(400)) - live)
            for object_id in rng.choice(gone, size=n_insert, replace=False).tolist():
                index.insert(ds[object_id], object_id=object_id)
                live.add(object_id)

        churn(200, 0)
        pages = index.mtree.pager.store._next_id
        for _ in range(6):
            churn(30, 50)
            index.mtree.check_invariants()
            for q in queries:
                want = [i for i in brute_force_range(oracle, q, 700.0) if i in live]
                assert index.range_query(q, 700.0) == want
                nearest = [n for n in brute_force_knn(oracle, q, 400) if n.object_id in live]
                assert index.knn_query(q, 9) == nearest[:9]
            assert index.range_query_many(queries, 700.0) == [
                index.range_query(q, 700.0) for q in queries
            ]
        assert len(index.mtree) == len(live) == 320
        assert index.mtree.pager.store._next_id > pages  # the inserts split nodes

    # (4 KB with I(o), 4 KB without, 40 KB with, 40 KB without), l = 5: the
    # capacities nodes had when they were lists of entry objects
    CAPACITIES = {
        "LA": (13, 17, 136, 173),
        "Words": (15, 35, 152, 358),
        "Color": (4, 4, 16, 16),
        "Synthetic": (9, 10, 92, 107),
    }

    @pytest.mark.parametrize("dataset_name", sorted(CAPACITIES))
    def test_capacity_is_the_entry_layouts(self, dataset_name):
        ds = DATASET_MAKERS[dataset_name]()
        got = []
        for page_size in (4096, 40960):
            for vec in (np.zeros(5), None):
                tree = MTree(MetricSpace(ds), Pager(page_size=page_size))
                tree.insert(0, ds[0], vec)
                got.append(tree.capacity)
        assert tuple(got) == self.CAPACITIES[dataset_name]

    def test_track_vectors_requires_vec(self):
        """Whether entries carry I(o) is the first insert's to decide; the
        tree then refuses an insert that disagrees, before touching a page."""
        ds = make_la(10, seed=7)
        counters = CostCounters()
        tree = MTree(MetricSpace(ds, counters), Pager(page_size=1024, counters=counters))
        tree.insert(0, ds[0], vec=np.array([1.0, 2.0]))
        before = counters.snapshot()
        with pytest.raises(ValueError):
            tree.insert(1, ds[1])
        cost = counters.snapshot() - before
        assert cost.distance_computations == cost.page_reads == cost.page_writes == 0
        plain = MTree(MetricSpace(ds), Pager(page_size=1024))
        plain.insert(0, ds[0])
        with pytest.raises(ValueError):
            plain.insert(1, ds[1], vec=np.array([1.0, 2.0]))
        assert len(tree) == len(plain) == 1
