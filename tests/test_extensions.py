"""Extensions beyond the paper's evaluation (its Section 7 future work):

DEPT (disk-resident EPT* with cheap construction), MTreeIndex (compact
partitioning baseline), ShardedIndex (partitioned construction).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CostCounters,
    DEPT,
    EPTStar,
    MTreeIndex,
    MVPT,
    MetricSpace,
    ShardedIndex,
    brute_force_knn,
    brute_force_range,
    make_la,
    make_words,
    select_pivots,
)
from repro.service import load_index, save_index
from repro.service.migrate import migrate


@pytest.fixture(scope="module")
def la():
    return make_la(500, seed=51)


@pytest.fixture(scope="module")
def words():
    return make_words(500, seed=51)


class TestDEPT:
    @pytest.mark.parametrize("maker_radius", [("la", 900.0), ("words", 5.0)])
    def test_golden_equivalence(self, la, words, maker_radius):
        name, radius = maker_radius
        dataset = la if name == "la" else words
        reference = MetricSpace(dataset)
        index = DEPT.build(MetricSpace(dataset, CostCounters()), seed=2)
        for qi in (0, 100, 300):
            q = dataset[qi]
            assert index.range_query(q, radius) == brute_force_range(
                reference, q, radius
            )
            got = [round(n.distance, 6) for n in index.knn_query(q, 8)]
            want = [round(n.distance, 6) for n in brute_force_knn(reference, q, 8)]
            assert got == want

    def test_builds_cheaper_than_ept_star(self, la):
        c_dept, c_star = CostCounters(), CostCounters()
        DEPT.build(MetricSpace(la, c_dept), n_pivots_per_object=4, seed=2)
        EPTStar.build(MetricSpace(la, c_star), n_pivots_per_object=4, seed=2)
        assert c_dept.distance_computations < c_star.distance_computations / 2

    def test_is_disk_resident(self, la):
        index = DEPT.build(MetricSpace(la, CostCounters()), seed=2)
        assert index.is_disk_based
        assert index.storage_bytes()["disk"] > 0
        counters = index.space.counters
        counters.reset()
        index.range_query(la[0], 500.0)
        assert counters.page_reads > 0

    def test_updates(self, la):
        index = DEPT.build(MetricSpace(la, CostCounters()), seed=2)
        for object_id in (5, 17, 44):
            index.delete(object_id)
            index.insert(la[object_id], object_id=object_id)
        index.delete(100)
        q = la[2]
        got = index.range_query(q, 800.0)
        want = [
            i for i in brute_force_range(MetricSpace(la), q, 800.0) if i != 100
        ]
        assert got == want
        with pytest.raises(KeyError):
            index.delete(100)

    def test_state_pickled_before_live_rows_were_tracked(self, la, tmp_path):
        """A DEPT pickled when ``_pointers`` membership was the only
        liveness test has no ``_row_page``: ``repro migrate`` rebuilds it
        from the table pages, an id's last row being its live one."""
        index = DEPT.build(MetricSpace(la, CostCounters()), seed=2)
        index.delete(100)
        index.delete(5)
        index.insert(la[5], object_id=5)  # the old row of 5 stays on its page
        want = index._row_page
        del index._row_page
        index._group_of = {}  # what such a pickle carries instead
        save_index(index, tmp_path / "old.snap")
        migrate(tmp_path / "old.snap", tmp_path / "new.snap")
        restored = load_index(tmp_path / "new.snap")
        assert restored._row_page == want
        q = la[5]
        assert restored.range_query(q, 800.0) == [
            i for i in brute_force_range(MetricSpace(la), q, 800.0) if i != 100
        ]
        assert [n.object_id for n in restored.knn_query(q, 3)] == [
            n.object_id for n in brute_force_knn(MetricSpace(la), q, 4)
            if n.object_id != 100
        ][:3]

    def test_group_pivot_structure(self, la):
        index = DEPT.build(
            MetricSpace(la, CostCounters()), n_pivots_per_object=3, seed=2
        )
        for cols in index.group_pivots.values():
            assert len(cols) == 3
            assert len(set(cols)) == 3
            assert all(0 <= c < len(index.candidate_ids) for c in cols)


class TestMTreeIndex:
    def test_golden_equivalence(self, la):
        reference = MetricSpace(la)
        index = MTreeIndex.build(MetricSpace(la, CostCounters()), seed=3)
        for qi in (0, 123, 400):
            q = la[qi]
            assert index.range_query(q, 700.0) == brute_force_range(
                reference, q, 700.0
            )
            got = [round(n.distance, 6) for n in index.knn_query(q, 9)]
            want = [round(n.distance, 6) for n in brute_force_knn(reference, q, 9)]
            assert got == want

    def test_updates(self, la):
        index = MTreeIndex.build(MetricSpace(la, CostCounters()), seed=3)
        index.delete(7)
        index.insert(la[7], object_id=7)
        index.delete(8)
        q = la[2]
        want = [i for i in brute_force_range(MetricSpace(la), q, 700.0) if i != 8]
        assert index.range_query(q, 700.0) == want
        with pytest.raises(KeyError):
            index.delete(8)

    def test_pivot_based_beats_compact_on_compdists(self, la):
        """The paper's stated premise for focusing on pivot-based methods."""
        from repro import SPBTree

        pivots = select_pivots(MetricSpace(la), 5, strategy="hfi", seed=1)
        costs = {}
        for name, build in (
            ("M-tree", lambda s: MTreeIndex.build(s, seed=3)),
            ("SPB-tree", lambda s: SPBTree.build(s, pivots)),
        ):
            counters = CostCounters()
            index = build(MetricSpace(la, counters))
            counters.reset()
            for qi in (3, 77, 200):
                index.range_query(la[qi], 600.0)
            costs[name] = counters.distance_computations
        assert costs["SPB-tree"] <= costs["M-tree"]


class TestShardedIndex:
    def _build(self, dataset, n_shards=4):
        space = MetricSpace(dataset, CostCounters())

        def build_shard(shard_space):
            pivots = select_pivots(shard_space, 3, strategy="hfi", seed=1)
            return MVPT.build(shard_space, pivots)

        return ShardedIndex.build(space, build_shard, n_shards=n_shards, seed=0)

    def test_exact_answers(self, la):
        index = self._build(la)
        reference = MetricSpace(la)
        for qi in (0, 50, 499):
            q = la[qi]
            assert index.range_query(q, 800.0) == brute_force_range(
                reference, q, 800.0
            )
            got = [round(n.distance, 6) for n in index.knn_query(q, 11)]
            want = [round(n.distance, 6) for n in brute_force_knn(reference, q, 11)]
            assert got == want

    def test_strings(self, words):
        index = self._build(words, n_shards=3)
        reference = MetricSpace(words)
        q = words[9]
        assert index.range_query(q, 4.0) == brute_force_range(reference, q, 4.0)

    def test_partition_is_disjoint_and_complete(self, la):
        index = self._build(la, n_shards=5)
        all_ids = [i for ids in index._shard_ids for i in ids]
        assert sorted(all_ids) == list(range(len(la)))

    def test_single_shard_degenerates_gracefully(self, la):
        index = self._build(la, n_shards=1)
        q = la[3]
        assert index.range_query(q, 500.0) == brute_force_range(
            MetricSpace(la), q, 500.0
        )

    def test_invalid_shards(self, la):
        with pytest.raises(ValueError):
            self._build(la, n_shards=0)

    def test_storage_aggregates(self, la):
        index = self._build(la)
        assert index.storage_bytes()["memory"] > 0

    def test_counters_shared_with_parent(self, la):
        counters = CostCounters()
        space = MetricSpace(la, counters)

        def build_shard(shard_space):
            pivots = select_pivots(shard_space, 3, strategy="hfi", seed=1)
            return MVPT.build(shard_space, pivots)

        index = ShardedIndex.build(space, build_shard, n_shards=4, seed=0)
        counters.reset()
        index.range_query(la[0], 500.0)
        assert counters.distance_computations > 0
