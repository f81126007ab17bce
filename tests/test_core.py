"""Core framework: counters, datasets, metric space, queries, mapping."""

from __future__ import annotations

import itertools
import pickle
import tracemalloc

import numpy as np
import pytest

from repro import (
    CostCounters,
    Dataset,
    EditDistance,
    KnnHeap,
    L2,
    MetricSpace,
    Neighbor,
    PivotMapping,
    brute_force_knn,
    brute_force_range,
    dataset_statistics,
    load_index,
    make_color,
    make_la,
    make_synthetic,
    make_uniform,
    make_words,
    save_index,
)
from repro.core import queries
from repro.core.queries import best_first_walk
from repro.external import OmniSequentialFile
from repro.service.migrate import migrate

from conftest import rewrite_header


class TestCounters:
    def test_accumulation(self):
        c = CostCounters()
        c.add_distances(3)
        c.add_page_read(2)
        c.add_page_write()
        snap = c.snapshot()
        assert snap.distance_computations == 3
        assert snap.page_reads == 2
        assert snap.page_writes == 1
        assert snap.page_accesses == 3

    def test_measure_block(self):
        c = CostCounters()
        with c.measure() as m:
            c.add_distances(10)
            c.add_page_read(4)
        assert m.compdists == 10
        assert m.page_accesses == 4
        assert m.cpu_seconds >= 0

    def test_reset(self):
        c = CostCounters()
        c.add_distances(5)
        c.reset()
        assert c.distance_computations == 0

    def test_snapshot_subtraction(self):
        c = CostCounters()
        a = c.snapshot()
        c.add_distances(7)
        b = c.snapshot()
        assert (b - a).distance_computations == 7


class TestDataset:
    def test_vector_dataset(self):
        data = np.arange(12, dtype=np.float64).reshape(4, 3)
        ds = Dataset(data, L2, name="t")
        assert len(ds) == 4
        assert ds.is_vector
        assert np.array_equal(ds[1], [3, 4, 5])
        assert np.array_equal(ds.gather([0, 2]), data[[0, 2]])

    def test_list_dataset(self):
        ds = Dataset(["ab", "cd"], EditDistance())
        assert not ds.is_vector
        assert ds[0] == "ab"
        assert ds.gather([1]) == ["cd"]

    def test_add_vector(self):
        ds = Dataset(np.zeros((2, 3)), L2)
        new_id = ds.add([1.0, 2.0, 3.0])
        assert new_id == 2
        assert len(ds) == 3
        with pytest.raises(ValueError):
            ds.add([1.0, 2.0])

    def test_add_grows_spare_rows_and_shows_only_the_live_ones(self):
        given = np.arange(48, dtype=np.float64).reshape(16, 3)
        ds = Dataset(given, L2)
        assert ds.objects is given  # kept as it is until the first add
        for i in range(5):
            assert ds.add([i, i, i]) == 16 + i
        assert not np.shares_memory(ds.objects, given)
        assert np.array_equal(given, np.arange(48).reshape(16, 3))  # never written
        assert ds.objects.shape == (21, 3) and len(ds) == 21
        assert ds.nbytes() == 21 * 3 * 8
        assert np.array_equal(ds[20], [4, 4, 4])
        ds.drop_last(20)
        assert len(ds) == 20 and ds.add([9, 9, 9]) == 20
        again = pickle.loads(pickle.dumps(ds))
        assert again.objects.shape == (21, 3)
        assert np.array_equal(again.objects, ds.objects)
        assert len(pickle.dumps(ds)) < len(pickle.dumps(Dataset(np.zeros((24, 3)), L2)))
        assert again.add([7, 7, 7]) == 21 and len(ds) == 21

    def test_new_id_inserts_do_not_copy_the_objects(self):
        """100 new-id inserts into an M-index* at LA n = 20 000 allocate,
        beyond what the dataset and the index keep, less than one copy of
        the object array (a copy an insert made 100 of them)."""
        from repro.external import MIndexStar

        made = make_la(20_100, seed=4)
        ds = Dataset(made.objects[:20_000].copy(), made.distance)
        space = MetricSpace(ds)
        index = MIndexStar.build(space, [0, 1, 2, 3, 4])
        one_copy = ds.objects.nbytes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for row in made.objects[20_000:]:
                index.insert(row)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ds) == 20_100
        assert peak - kept < one_copy, (peak - before, kept - before, one_copy)

    def test_add_string(self):
        ds = Dataset(["a"], EditDistance())
        assert ds.add("bc") == 1
        assert ds[1] == "bc"

    def test_subset(self):
        ds = make_uniform(20, dim=2, seed=1)
        sub = ds.subset([3, 5, 7])
        assert len(sub) == 3
        assert np.array_equal(sub[0], ds[3])

    def test_object_nbytes(self):
        ds = Dataset(np.zeros((2, 3)), L2)
        assert ds.object_nbytes(0) == 24
        ws = Dataset(["abc"], EditDistance())
        assert ws.object_nbytes(0) == 3


class TestGenerators:
    @pytest.mark.parametrize(
        "maker,name,distance",
        [
            (make_la, "LA", "L2"),
            (make_words, "Words", "edit"),
            (make_color, "Color", "L1"),
            (make_synthetic, "Synthetic", "Linf"),
        ],
    )
    def test_names_and_metrics(self, maker, name, distance):
        ds = maker(100, seed=0)
        assert ds.name == name
        assert ds.distance.name == distance
        assert len(ds) == 100

    def test_la_domain(self):
        ds = make_la(500, seed=1)
        assert ds.objects.min() >= 0 and ds.objects.max() <= 10_000
        assert ds.objects.shape[1] == 2

    def test_words_lengths(self):
        ds = make_words(500, seed=1)
        lengths = [len(w) for w in ds]
        assert min(lengths) >= 1 and max(lengths) <= 34
        assert len(set(ds.objects)) == 500  # no duplicates

    def test_color_shape_and_domain(self):
        ds = make_color(100, seed=1)
        assert ds.objects.shape == (100, 282)
        assert ds.objects.min() >= -255 and ds.objects.max() <= 255

    def test_synthetic_integer_values(self):
        ds = make_synthetic(100, seed=1)
        assert np.array_equal(ds.objects, np.rint(ds.objects))
        assert ds.distance.is_discrete

    def test_determinism(self):
        a, b = make_la(50, seed=9), make_la(50, seed=9)
        assert np.array_equal(a.objects, b.objects)

    def test_statistics_columns(self):
        stats = dataset_statistics(make_synthetic(300, seed=2), sample_pairs=2000)
        row = stats.row()
        assert row["Dataset"] == "Synthetic"
        assert row["Cardinality"] == 300
        assert float(row["Int. Dim."]) > 0
        assert row["Dis. Measure"] == "Linf"

    def test_statistics_needs_two(self):
        with pytest.raises(ValueError):
            dataset_statistics(Dataset(np.zeros((1, 2)), L2))


class TestMetricSpace:
    def setup_method(self):
        self.ds = make_uniform(50, dim=3, seed=4)
        self.counters = CostCounters()
        self.space = MetricSpace(self.ds, self.counters)

    def test_counts_single(self):
        self.space.d(self.ds[0], self.ds[1])
        assert self.counters.distance_computations == 1

    def test_counts_batch(self):
        self.space.d_many(self.ds[0], self.ds.objects)
        assert self.counters.distance_computations == 50

    def test_counts_ids(self):
        self.space.d_ids(self.ds[0], [1, 2, 3])
        assert self.counters.distance_computations == 3

    def test_counts_pairwise(self):
        self.space.pairwise_ids([0, 1], [2, 3, 4])
        assert self.counters.distance_computations == 6

    def test_empty_batch(self):
        out = self.space.d_ids(self.ds[0], [])
        assert out.size == 0
        assert self.counters.distance_computations == 0

    def test_batch_matches_scalar(self):
        batch = self.space.d_many(self.ds[0], self.ds.objects)
        scalar = [self.ds.distance(self.ds[0], self.ds[i]) for i in range(50)]
        assert np.allclose(batch, scalar)


class TestKnnHeap:
    def test_radius_infinite_until_full(self):
        h = KnnHeap(3)
        h.consider(0, 5.0)
        assert h.radius == float("inf")
        h.consider(1, 2.0)
        h.consider(2, 7.0)
        assert h.radius == 7.0

    def test_tightening(self):
        h = KnnHeap(2)
        h.consider(0, 5.0)
        h.consider(1, 4.0)
        h.consider(2, 1.0)  # evicts 5.0
        assert h.radius == 4.0
        assert [n.object_id for n in h.neighbors()] == [2, 1]

    def test_rejects_worse(self):
        h = KnnHeap(1)
        h.consider(0, 1.0)
        assert not h.consider(1, 2.0)
        assert h.ids() == [0]

    def test_ordered_output(self):
        h = KnnHeap(4)
        for i, d in enumerate([3.0, 1.0, 4.0, 2.0]):
            h.consider(i, d)
        assert h.distances() == [1.0, 2.0, 3.0, 4.0]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KnnHeap(0)

    def test_neighbor_ordering(self):
        assert Neighbor(1.0, 5) < Neighbor(2.0, 1)
        assert Neighbor(1.0, 1) < Neighbor(1.0, 2)


def _toy_tree():
    """A root over four leaves; an entry is ``(object id, bound)`` and its
    distance is ``_TOY_DISTANCES[id]``.  Nodes are dicts, which do not
    order, so a tie the walk broke by comparing items would raise."""
    a = {"entries": [(5, 1.0), (6, 1.5)]}
    b = {"entries": [(1, 2.0), (7, 2.5)]}
    c = {"entries": [(0, 4.0)]}
    d = {"entries": [(3, 2.2)]}
    return {"children": [(a, 0.0), (b, 2.0), (d, 2.0), (c, 4.0)]}


_TOY_DISTANCES = {5: 1.0, 6: 2.0, 1: 2.0, 7: 3.0, 0: 4.0, 3: 2.2}
_TOY_BOUNDS = {5: 1.0, 6: 1.5, 1: 2.0, 7: 2.5, 0: 4.0, 3: 2.2}


def _toy_distance(object_id, _heap):
    return _TOY_DISTANCES[object_id]


def _toy_walk(k, root=None, verify=_toy_distance, permute=lambda items: items, expanded=None):
    def expand(node, _bound, _heap):
        if expanded is not None:
            expanded.append(node)
        is_entry = "entries" in node
        items = permute(list(node["entries" if is_entry else "children"]))
        return [item for item, _ in items], [bound for _, bound in items], is_entry

    return best_first_walk(k, _toy_tree() if root is None else root, expand, verify)


class TestBestFirstWalk:
    """:func:`~repro.core.queries.best_first_walk` on a hand-built tree.

    With k = 2 the radius is 2.0 once objects 5 and 6 are verified; object
    1 ties 6 at that radius with a smaller id, and both its leaf's bound
    and its own equal the radius when they are pushed and popped."""

    ANSWER = [Neighbor(1.0, 5), Neighbor(2.0, 1)]

    def test_ties_at_the_kth_distance_are_canonical_in_any_arrival_order(self):
        for order in itertools.permutations(range(4)):
            for flip in (False, True):

                def permute(items, order=order, flip=flip):
                    if len(items) == 4:
                        items = [items[i] for i in order]
                    return items[::-1] if flip else items

                assert _toy_walk(2, permute=permute) == self.ANSWER, (order, flip)

    def test_a_verify_returning_none_never_reaches_the_heap(self):
        def verify(object_id, _heap):
            return None if object_id == 5 else _TOY_DISTANCES[object_id]

        assert _toy_walk(2, verify=verify) == [Neighbor(2.0, 1), Neighbor(2.0, 6)]

    def test_no_entry_is_verified_or_node_expanded_past_the_radius(self):
        calls = []

        def verify(object_id, heap):
            calls.append((object_id, heap.radius))
            return _TOY_DISTANCES[object_id]

        expanded = []
        assert _toy_walk(2, verify=verify, expanded=expanded) == self.ANSWER
        assert all(_TOY_BOUNDS[object_id] <= radius for object_id, radius in calls)
        assert [object_id for object_id, _ in calls] == [5, 6, 1]
        # the root and every leaf but the one bounded at 4.0
        assert len(expanded) == 4
        assert all(node["entries"] != [(0, 4.0)] for node in expanded[1:])

    def test_an_item_bounded_past_the_radius_is_never_queued(self, monkeypatch):
        queued = []
        push = queries.heapq.heappush

        def recording_push(queue, item):
            if len(item) == 4:  # the walk's queue, not a KnnHeap's
                queued.append(item[3])
            push(queue, item)

        monkeypatch.setattr(queries.heapq, "heappush", recording_push)
        assert _toy_walk(2) == self.ANSWER
        # 7 (bound 2.5) and 3 (2.2) are reached once the radius is 2.0
        assert sorted(item for item in queued if isinstance(item, int)) == [1, 5, 6]

    def test_k_at_least_the_entries_returns_them_all(self):
        want = sorted(Neighbor(d, i) for i, d in _TOY_DISTANCES.items())
        assert _toy_walk(len(_TOY_DISTANCES)) == want
        assert _toy_walk(50) == want

    def test_an_empty_root_returns_nothing(self):
        assert _toy_walk(3, root={"children": []}) == []


class TestBruteForce:
    def test_range_and_knn_agree(self):
        ds = make_uniform(100, dim=2, seed=5)
        space = MetricSpace(ds)
        q = ds[0]
        nn = brute_force_knn(space, q, 10)
        r = nn[-1].distance
        ids = brute_force_range(space, q, r)
        assert set(n.object_id for n in nn) <= set(ids)


class TestPivotMapping:
    def test_matrix_shape_and_values(self):
        ds = make_uniform(30, dim=2, seed=6)
        space = MetricSpace(ds)
        pm = PivotMapping(space, [0, 5])
        table = pm.build_table()
        assert table.shape == (30, 2)
        assert table[0, 0] == 0.0  # pivot to itself
        assert table[7, 1] == pytest.approx(ds.distance(ds[7], ds[5]))
        # the mapping keeps the table's extent, not the table
        assert np.array_equal(pm.low, table.min(axis=0))
        assert np.array_equal(pm.high, table.max(axis=0))
        held = [v.shape for v in vars(pm).values() if isinstance(v, np.ndarray)]
        assert held == [(2,), (2,)]

    def test_build_cost_counted(self):
        ds = make_uniform(30, dim=2, seed=6)
        counters = CostCounters()
        pm = PivotMapping(MetricSpace(ds, counters), [0, 5, 9])
        assert counters.distance_computations == 0
        pm.build_table()
        assert counters.distance_computations == 90

    def test_map_query_counts(self):
        ds = make_uniform(30, dim=2, seed=6)
        counters = CostCounters()
        pm = PivotMapping(MetricSpace(ds, counters), [0, 5])
        counters.reset()
        vec = pm.map_query(ds[3])
        assert counters.distance_computations == 2
        assert vec.shape == (2,)

    def test_requires_pivots(self):
        ds = make_uniform(10, dim=2, seed=6)
        with pytest.raises(ValueError):
            PivotMapping(MetricSpace(ds), [])

    def test_map_object_widens_the_extent(self):
        ds = make_uniform(10, dim=2, seed=6)
        pm = PivotMapping(MetricSpace(ds), [0, 1])
        assert (pm.low == np.inf).all() and (pm.high == -np.inf).all()
        table = pm.build_table()
        far = np.array([40.0, -30.0])
        vec = pm.map_object(far)
        assert np.array_equal(pm.low, np.minimum(table.min(axis=0), vec))
        assert np.array_equal(pm.high, np.maximum(table.max(axis=0), vec))
        # a query maps without widening it
        high = pm.high
        pm.map_query(far * 2.0)
        assert np.array_equal(pm.high, high)

    def test_extent_bounds_the_diameter(self):
        ds = make_uniform(30, dim=2, seed=6)
        pm = PivotMapping(MetricSpace(ds), [0, 5])
        pm.build_table()
        true_max = max(
            ds.distance(ds[i], ds[j]) for i in range(30) for j in range(30)
        )
        # d(o, o') <= d(o, p) + d(o', p): the M-index's d+
        assert 2.0 * pm.high.max() >= true_max

    def test_a_pickled_table_loads_as_its_extent(self, tmp_path):
        """A mapping pickled with its ``n x l`` table (``matrix``, in a
        snapshot of format 3) takes the table's extent through ``repro
        migrate``, which drops the table; one pickled with neither (an
        SPB-tree's after its build) starts from an empty extent."""
        ds = make_uniform(30, dim=2, seed=6)
        index = OmniSequentialFile.build(MetricSpace(ds), [0, 5])
        pm = index.mapping
        table = pm.build_table()
        old = {k: v for k, v in vars(pm).items() if k not in ("low", "high")}
        empty = (np.full(2, np.inf), np.full(2, -np.inf))
        for state, extent in (({**old, "matrix": table}, (pm.low, pm.high)), (old, empty)):
            vars(pm).clear()
            vars(pm).update(state)
            save_index(index, tmp_path / "old.snap")
            rewrite_header(tmp_path / "old.snap", lambda header: {**header, "format_version": 3})
            migrate(tmp_path / "old.snap", tmp_path / "new.snap")
            restored = load_index(tmp_path / "new.snap").mapping
            assert "matrix" not in vars(restored)
            assert np.array_equal(restored.low, extent[0])
            assert np.array_equal(restored.high, extent[1])
