"""A stateful oracle for the RAF-backed indexes.

One hypothesis state machine drives an SPB-tree, an M-index, an M-index*,
the three Omni members and a DEPT over private copies of one small LA
dataset through inserts of new objects (some far past the build-time
grid), deletes, re-inserts under the same id, refused inserts and
deletes, inserts undone (the id then reused by another object), MRQ,
MkNNQ, both ``*_many`` forms and snapshot round trips.
Every answer is checked against brute force over the live ids, and after
every step each index's RAF locates exactly the live ids: ``id in raf``
for those and no other, ``len(raf)`` their count.

The settings are derandomised, so every run replays the same programs.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro import CostCounters, MetricSpace, brute_force_knn, brute_force_range, make_la
from repro import select_pivots
from repro.core.dataset import Dataset
from repro.external import (
    DEPT,
    MIndex,
    MIndexStar,
    OmniBPlusTree,
    OmniRTree,
    OmniSequentialFile,
    SPBTree,
)
from repro.service import load_index, save_index

N = 120
PAGE_SIZE = 1024  # several RAF pages and B+-tree levels at this n
RADIUS = 900.0
BASE = make_la(N, seed=23)
PIVOTS = select_pivots(MetricSpace(BASE), 4, strategy="hfi", seed=3)

# small clusters, so that inserts split M-index clusters
BUILDERS = {
    "SPB-tree": lambda space: SPBTree.build(space, PIVOTS, page_size=PAGE_SIZE),
    "M-index": lambda space: MIndex.build(space, PIVOTS, page_size=PAGE_SIZE, maxnum=16),
    "M-index*": lambda space: MIndexStar.build(space, PIVOTS, page_size=PAGE_SIZE, maxnum=16),
    "Omni-seq": lambda space: OmniSequentialFile.build(space, PIVOTS, page_size=PAGE_SIZE),
    "OmniB+": lambda space: OmniBPlusTree.build(space, PIVOTS, page_size=PAGE_SIZE),
    "OmniR-tree": lambda space: OmniRTree.build(space, PIVOTS, page_size=PAGE_SIZE),
    "DEPT": lambda space: DEPT.build(
        space, n_pivots_per_object=3, page_size=PAGE_SIZE, seed=3
    ),
}


def _copy() -> Dataset:
    return Dataset(BASE.objects.copy(), BASE.distance, name="LA")


class RafIndexes(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.oracle = MetricSpace(_copy())
        self.live = set(range(N))
        self.undone: set[int] = set()  # ids an undone insert left to reuse
        self.indexes = {
            name: build(MetricSpace(_copy(), CostCounters())) for name, build in BUILDERS.items()
        }
        self.tmp = Path(tempfile.mkdtemp())

    def teardown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    # -- the live set ----------------------------------------------------------

    def _object(self, seed: int, far: bool) -> np.ndarray:
        obj = self.oracle.dataset[seed % N] + np.array([37.0, -53.0]) * (seed % 7)
        return obj * 3.0 + 5000.0 if far else obj

    def _dead(self) -> list[int]:
        return [i for i in range(len(self.oracle.dataset)) if i not in self.live]

    @rule(seed=st.integers(0, 10_000), far=st.booleans())
    def insert_new(self, seed, far):
        obj = self._object(seed, far)
        new_id = self.oracle.dataset.add(obj)
        for name, index in self.indexes.items():
            assert index.insert(obj.copy()) == new_id, name
        self.live.add(new_id)

    @precondition(lambda self: len(self.live) > 10)
    @rule(data=st.data())
    def delete(self, data):
        object_id = data.draw(st.sampled_from(sorted(self.live)))
        for index in self.indexes.values():
            index.delete(object_id)
        self.live.remove(object_id)

    @precondition(lambda self: len(self.live) < len(self.oracle.dataset))
    @rule(data=st.data())
    def reinsert(self, data):
        object_id = data.draw(st.sampled_from(self._dead()))
        for name, index in self.indexes.items():
            obj = np.array(self.oracle.dataset[object_id])  # a copy, as a wire decodes it
            assert index.insert(obj, object_id=object_id) == object_id, name
        self.live.add(object_id)

    @rule(seed=st.integers(0, 10_000), far=st.booleans())
    def undone_insert(self, seed, far):
        """A fresh insert every index takes and deletes again, its slot
        then dropped from each dataset -- a refused catalog fan-out's
        undo: the next ``insert_new`` reuses the id with another object."""
        obj = self._object(seed, far) + 0.25
        new_id = len(self.oracle.dataset)
        for name, index in self.indexes.items():
            assert index.insert(obj.copy()) == new_id, name
            index.delete(new_id)
            index.space.dataset.drop_last(new_id)
        self.undone.add(new_id)

    @precondition(lambda self: self.undone & self.live and len(self.live) > 10)
    @rule(data=st.data())
    def delete_reused(self, data):
        """Delete an object whose id an undone insert had held before."""
        object_id = data.draw(st.sampled_from(sorted(self.undone & self.live)))
        for index in self.indexes.values():
            index.delete(object_id)
        self.live.remove(object_id)

    @precondition(lambda self: len(self.live) < len(self.oracle.dataset))
    @rule(data=st.data(), seed=st.integers(0, 10_000))
    def refused(self, data, seed):
        """A second delete, another object under a dead id, a live id
        again: each refused, nothing written."""
        dead = data.draw(st.sampled_from(self._dead()))
        live = data.draw(st.sampled_from(sorted(self.live)))
        stranger = self._object(seed, True)
        for index in self.indexes.values():
            writes = index.space.counters.page_writes
            with pytest.raises(KeyError):
                index.delete(dead)
            with pytest.raises(ValueError, match="another object"):
                index.insert(stranger, object_id=dead)
            with pytest.raises(ValueError, match="already indexed"):
                index.insert(np.array(self.oracle.dataset[live]), object_id=live)
            assert index.space.counters.page_writes == writes

    # -- queries ------------------------------------------------------------------

    def _query(self, seed: int, far: bool):
        dataset = self.oracle.dataset
        return dataset[seed % len(dataset)] + (4000.0 if far else 0.0) + seed % 5

    def _range(self, q, radius):
        return [i for i in brute_force_range(self.oracle, q, radius) if i in self.live]

    def _knn(self, q, k):
        dead = len(self.oracle.dataset) - len(self.live)
        nearest = brute_force_knn(self.oracle, q, k + dead)
        return [n for n in nearest if n.object_id in self.live][:k]

    @rule(seed=st.integers(0, 10_000), far=st.booleans(), scale=st.sampled_from([0, 0.3, 1, 3]))
    def range_query(self, seed, far, scale):
        q = self._query(seed, far)
        want = self._range(q, RADIUS * scale)
        for name, index in self.indexes.items():
            assert index.range_query(q, RADIUS * scale) == want, name

    @rule(seed=st.integers(0, 10_000), far=st.booleans(), k=st.sampled_from([1, 4, 11]))
    def knn_query(self, seed, far, k):
        q = self._query(seed, far)
        want = self._knn(q, k)
        for name, index in self.indexes.items():
            assert index.knn_query(q, k) == want, name

    @rule(seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=4), k=st.integers(1, 6))
    def many(self, seeds, k):
        queries = [self._query(seed, seed % 3 == 0) for seed in seeds]
        ranges = [self._range(q, RADIUS) for q in queries]
        knns = [self._knn(q, k) for q in queries]
        for name, index in self.indexes.items():
            assert index.range_query_many(queries, RADIUS) == ranges, name
            assert index.knn_query_many(queries, k) == knns, name

    @rule(name=st.sampled_from(sorted(BUILDERS)))
    def snapshot_round_trip(self, name):
        index = self.indexes[name]
        path = self.tmp / f"{name}.snap"
        save_index(index, path)
        restored = load_index(path)
        assert restored.space.counters.distance_computations == 0
        assert restored.storage_bytes() == index.storage_bytes()
        self.indexes[name] = restored

    # -- the locator ---------------------------------------------------------------

    @invariant()
    def raf_locates_exactly_the_live_ids(self):
        every = range(-1, len(self.oracle.dataset) + 2)
        live = sorted(self.live)
        for name, index in self.indexes.items():
            assert [i for i in every if i in index.raf] == live, name
            assert len(index.raf) == len(live), name
            assert index.raf.live(live).all(), name


RafIndexes.TestCase.settings = settings(
    max_examples=4,
    stateful_step_count=12,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


TestRafIndexes = RafIndexes.TestCase
