"""Edge cases and failure injection across substrates and indexes."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CostCounters,
    Dataset,
    EditDistance,
    HammingDistance,
    L2,
    MetricSpace,
    brute_force_knn,
    brute_force_range,
    make_la,
    make_uniform,
    select_pivots,
)
from repro.bench.runner import build_index, set_cache
from repro.btree import BPlusTree
from repro.mtree import MTree
from repro.rtree import Rect, RTree
from repro.storage import BufferPool, Pager, PageStore


class TestTinyDatasets:
    """Indexes must work when n is barely larger than |P|."""

    @pytest.mark.parametrize(
        "index_name",
        ["LAESA", "EPT", "EPT*", "VPT", "MVPT", "OmniR-tree", "M-index*", "SPB-tree", "CPT", "PM-tree", "DEPT"],
    )
    def test_five_objects(self, index_name):
        data = Dataset(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0], [9.0, 9.0]]),
            L2,
            name="tiny",
        )
        space = MetricSpace(data, CostCounters())
        pivots = select_pivots(MetricSpace(data), 2, strategy="hfi", seed=0)
        kwargs = {"maxnum": 2} if index_name in ("M-index", "M-index*") else {}
        index = build_index(index_name, space, pivots, seed=1, **kwargs)
        reference = MetricSpace(data)
        q = np.array([0.5, 0.5])
        assert index.range_query(q, 1.0) == brute_force_range(reference, q, 1.0)
        got = [round(n.distance, 9) for n in index.knn_query(q, 5)]
        want = [round(n.distance, 9) for n in brute_force_knn(reference, q, 5)]
        assert got == want

    def test_duplicate_objects(self):
        points = np.zeros((20, 2))
        points[10:] = 1.0
        data = Dataset(points, L2, name="dups")
        space = MetricSpace(data, CostCounters())
        pivots = [0, 10]
        for index_name in ("LAESA", "MVPT", "SPB-tree", "M-index*"):
            index = build_index(index_name, MetricSpace(data, CostCounters()), pivots)
            hits = index.range_query(np.zeros(2), 0.0)
            assert hits == list(range(10)), index_name

    def test_single_word_queries(self):
        data = Dataset(["alpha", "beta", "gamma"], EditDistance())
        space = MetricSpace(data, CostCounters())
        index = build_index("MVPT", space, [0])
        assert index.range_query("alpha", 0) == [0]
        assert index.knn_query("alphq", 1)[0].object_id == 0


class TestEmptyDistanceBatches:
    """An empty side gives an empty matrix, not an exception."""

    @pytest.mark.parametrize("distance", [EditDistance(), HammingDistance()])
    def test_pairwise_with_an_empty_side(self, distance):
        # HammingDistance on strings takes MetricDistance.pairwise, which
        # used to hand np.stack an empty list; 20 objects put EditDistance
        # on its packed path, 1 on the one-by-one path
        for other in (["a"], ["a"] * 20):
            for xs, ys in (([], other), (other, []), ([], [])):
                out = distance.pairwise(xs, ys)
                assert out.shape == (len(xs), len(ys))
                assert out.dtype == np.float64
        assert distance.one_to_many("a", []).shape == (0,)


class TestStorageFailureInjection:
    def test_pagestore_free_then_read(self):
        store = PageStore(page_size=128)
        page = store.allocate()
        store.write(page, "x")
        store.free(page)
        with pytest.raises(KeyError):
            store.read(page)

    def test_bufferpool_does_not_hold_oversized(self):
        store = PageStore(page_size=128)
        pool = BufferPool(store, capacity_bytes=64)
        page = store.allocate()
        pool.write(page, "y" * 500)  # larger than capacity: write-through
        assert pool.read(page) == "y" * 500  # read-through, still correct
        assert pool._used_bytes <= 64

    def test_pager_write_unallocated(self):
        pager = Pager(page_size=128)
        with pytest.raises(KeyError):
            pager.store.write(123, "z")

    def test_btree_search_empty(self):
        tree = BPlusTree(Pager(page_size=256))
        assert tree.search(5) == []
        assert list(tree.range_scan(0, 10)) == []
        assert not tree.delete(5)

    def test_rtree_duplicate_points(self):
        tree = RTree(Pager(page_size=512), dims=2)
        p = np.array([1.0, 1.0])
        for i in range(30):
            tree.insert(p, i)
        tree.check_invariants()
        hits = sorted(pl for _, pl in tree.search_rect(Rect([1, 1], [1, 1])))
        assert hits == list(range(30))
        assert tree.delete(p, 17)
        hits = sorted(pl for _, pl in tree.search_rect(Rect([1, 1], [1, 1])))
        assert 17 not in hits and len(hits) == 29

    def test_mtree_empty_queries(self):
        data = make_uniform(5, dim=2, seed=0)
        space = MetricSpace(data)
        tree = MTree(space, Pager(page_size=512))
        assert tree.range_search([data[0]], 10.0) == [[]]
        assert tree.knn_search(data[0], 3) == []
        assert not tree.delete(0)


class TestCacheConfiguration:
    @pytest.mark.parametrize("index_name", ["SPB-tree", "M-index*", "CPT", "PM-tree", "OmniR-tree", "DEPT"])
    def test_set_cache_roundtrip(self, index_name):
        data = make_la(200, seed=91)
        space = MetricSpace(data, CostCounters())
        pivots = select_pivots(MetricSpace(data), 3, strategy="hfi", seed=0)
        kwargs = {"maxnum": 32} if index_name in ("M-index", "M-index*") else {}
        index = build_index(index_name, space, pivots, **kwargs)
        q = data[0]
        # warm cache: repeated identical queries should cost fewer PAs
        set_cache(index, 256 * 1024)
        counters = space.counters
        index.range_query(q, 300.0)
        counters.reset()
        index.range_query(q, 300.0)
        warm = counters.page_reads
        set_cache(index, 0)
        counters.reset()
        index.range_query(q, 300.0)
        cold = counters.page_reads
        assert warm <= cold

    def test_set_cache_noop_for_memory_index(self):
        data = make_la(100, seed=92)
        space = MetricSpace(data, CostCounters())
        pivots = select_pivots(MetricSpace(data), 2, strategy="hfi", seed=0)
        index = build_index("LAESA", space, pivots)
        set_cache(index, 1024)  # must not raise


class TestShardedWithDiskShards:
    def test_sharded_spb(self):
        from repro import SPBTree, ShardedIndex

        data = make_la(240, seed=93)
        space = MetricSpace(data, CostCounters())

        def build_shard(shard_space):
            pivots = select_pivots(shard_space, 2, strategy="hfi", seed=1)
            return SPBTree.build(shard_space, pivots)

        index = ShardedIndex.build(space, build_shard, n_shards=3, seed=0)
        reference = MetricSpace(data)
        q = data[7]
        assert index.range_query(q, 700.0) == brute_force_range(reference, q, 700.0)
        assert index.storage_bytes()["disk"] > 0


class TestQueryRobustness:
    def test_negative_radius_returns_empty(self):
        data = make_la(100, seed=94)
        space = MetricSpace(data, CostCounters())
        pivots = select_pivots(MetricSpace(data), 2, strategy="hfi", seed=0)
        for name in ("LAESA", "MVPT", "SPB-tree"):
            index = build_index(name, MetricSpace(data, CostCounters()), pivots)
            assert index.range_query(data[0], -1.0) == []

    def test_huge_radius_returns_everything(self):
        data = make_la(100, seed=95)
        pivots = select_pivots(MetricSpace(data), 2, strategy="hfi", seed=0)
        for name in ("LAESA", "MVPT", "SPB-tree", "M-index*"):
            index = build_index(name, MetricSpace(data, CostCounters()), pivots)
            assert index.range_query(data[0], 1e9) == list(range(100))
