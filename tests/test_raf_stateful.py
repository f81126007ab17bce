"""A stateful oracle for the RAF-backed indexes.

Two hypothesis state machines, one on LA and one on Words, drive an
SPB-tree, an M-index, an M-index*, the three Omni members and a DEPT over
private copies of one small dataset through inserts of new objects (some
far past the build-time grid), deletes, re-inserts under the same id,
updates (a delete and the same object put back at once), refused inserts
and deletes, inserts undone (the id then reused by another object), MRQ,
MkNNQ, both ``*_many`` forms and snapshot round trips.
Every answer is checked against brute force over the live ids, and after
every step each index's RAF locates exactly the live ids: ``id in raf``
for those and no other, ``len(raf)`` their count.  An update puts the
record back into its own slot and grows no index (Omni-seq's vector goes
back into the page its delete freed, DEPT's row is live again where it
was); a new object's record goes to the RAF's open page, or to a new one
when that is full.

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
from repro import make_words, select_pivots
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
LA = make_la(N, seed=23)
WORDS = make_words(N, seed=23)


def _builders(pivots) -> dict:
    # small clusters, so that inserts split M-index clusters
    return {
        "SPB-tree": lambda space: SPBTree.build(space, pivots, page_size=PAGE_SIZE),
        "M-index": lambda space: MIndex.build(space, pivots, page_size=PAGE_SIZE, maxnum=16),
        "M-index*": lambda space: MIndexStar.build(space, pivots, page_size=PAGE_SIZE, maxnum=16),
        "Omni-seq": lambda space: OmniSequentialFile.build(space, pivots, page_size=PAGE_SIZE),
        "OmniB+": lambda space: OmniBPlusTree.build(space, pivots, page_size=PAGE_SIZE),
        "OmniR-tree": lambda space: OmniRTree.build(space, pivots, page_size=PAGE_SIZE),
        "DEPT": lambda space: DEPT.build(
            space, n_pivots_per_object=3, page_size=PAGE_SIZE, seed=3
        ),
    }


def _pivots(dataset):
    return select_pivots(MetricSpace(dataset), 4, strategy="hfi", seed=3)


def _raf_pages(index) -> dict[int, int]:
    """Each page holding a record of the index's RAF, live or deleted, and
    the bytes it stores."""
    raf, store = index.raf, index.pager.store
    pages = set(raf._pages[raf._pages >= 0].tolist()) | set((-2 - raf._pages[raf._pages <= -2]).tolist())
    return {page: store.page_bytes(page) for page in pages}


class RafIndexes(RuleBasedStateMachine):
    """The rules; a subclass names the dataset, its objects and the radius."""

    base: Dataset
    builders: dict
    radius: float

    def __init__(self):
        super().__init__()
        self.oracle = MetricSpace(self._copy())
        self.live = set(range(N))
        self.undone: set[int] = set()  # ids an undone insert left to reuse
        self.indexes = {
            name: build(MetricSpace(self._copy(), CostCounters()))
            for name, build in self.builders.items()
        }
        self.tmp = Path(tempfile.mkdtemp())

    def teardown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _copy(self) -> Dataset:
        objects = self.base.objects
        objects = objects.copy() if isinstance(objects, np.ndarray) else list(objects)
        return Dataset(objects, self.base.distance, name=self.base.name)

    # -- the live set ----------------------------------------------------------

    def _dead(self) -> list[int]:
        return [i for i in range(len(self.oracle.dataset)) if i not in self.live]

    def _stored(self, object_id: int):
        """The object under a dataset id, as a wire would decode it."""
        obj = self.oracle.dataset[object_id]
        return np.array(obj) if isinstance(obj, np.ndarray) else obj

    @rule(seed=st.integers(0, 10_000), far=st.booleans())
    def insert_new(self, seed, far):
        """A new object's record goes where the RAF's next record goes: the
        open page's next slot, or the first slot of a page after it."""
        obj = self._object(seed, far)
        new_id = self.oracle.dataset.add(obj)
        for name, index in self.indexes.items():
            raf = index.raf
            top, opened = len(raf.pager.store), (raf._open_page_id, len(raf._open_page))
            assert index.insert(self._stored(new_id)) == new_id, name
            page_id, slot = raf._where(new_id)
            assert (page_id, slot) == opened or (page_id >= top and slot == 0), name
        self.live.add(new_id)

    @precondition(lambda self: len(self.live) > 10)
    @rule(data=st.data())
    def update(self, data):
        """Delete an object and put it back under its id (the paper's
        update): its record takes the slot its delete freed, every RAF page
        stores the bytes it did, and no index grows."""
        object_id = data.draw(st.sampled_from(sorted(self.live)))
        for name, index in self.indexes.items():
            where, pages, held = index.raf._where(object_id), _raf_pages(index), index.storage_bytes()
            index.delete(object_id)
            assert index.insert(self._stored(object_id), object_id=object_id) == object_id, name
            assert index.raf._where(object_id) == where, name
            assert _raf_pages(index) == pages, name
            assert index.storage_bytes() == held, name

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
            assert index.insert(self._stored(object_id), object_id=object_id) == object_id, name
        self.live.add(object_id)

    @rule(seed=st.integers(0, 10_000), far=st.booleans())
    def undone_insert(self, seed, far):
        """A fresh insert every index takes and deletes again, its slot
        then dropped from each dataset -- a refused catalog fan-out's
        undo: the next ``insert_new`` reuses the id with another object."""
        obj = self._other(self._object(seed, far))
        new_id = len(self.oracle.dataset)
        for name, index in self.indexes.items():
            assert index.insert(obj) == new_id, name
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
                index.insert(self._stored(live), object_id=live)
            assert index.space.counters.page_writes == writes

    # -- queries ------------------------------------------------------------------

    def _range(self, q, radius):
        return [i for i in brute_force_range(self.oracle, q, radius) if i in self.live]

    def _knn(self, q, k):
        dead = len(self.oracle.dataset) - len(self.live)
        nearest = brute_force_knn(self.oracle, q, k + dead)
        return [n for n in nearest if n.object_id in self.live][:k]

    @rule(seed=st.integers(0, 10_000), far=st.booleans(), scale=st.sampled_from([0, 0.3, 1, 3]))
    def range_query(self, seed, far, scale):
        q = self._query(seed, far)
        want = self._range(q, self.radius * scale)
        for name, index in self.indexes.items():
            assert index.range_query(q, self.radius * scale) == want, name

    @rule(seed=st.integers(0, 10_000), far=st.booleans(), k=st.sampled_from([1, 4, 11]))
    def knn_query(self, seed, far, k):
        q = self._query(seed, far)
        want = self._knn(q, k)
        for name, index in self.indexes.items():
            assert index.knn_query(q, k) == want, name

    @rule(seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=4), k=st.integers(1, 6))
    def many(self, seeds, k):
        queries = [self._query(seed, seed % 3 == 0) for seed in seeds]
        ranges = [self._range(q, self.radius) for q in queries]
        knns = [self._knn(q, k) for q in queries]
        for name, index in self.indexes.items():
            assert index.range_query_many(queries, self.radius) == ranges, name
            assert index.knn_query_many(queries, k) == knns, name

    @rule(data=st.data())
    def snapshot_round_trip(self, data):
        name = data.draw(st.sampled_from(sorted(self.builders)))
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


class LaRafIndexes(RafIndexes):
    base = LA
    radius = 900.0
    builders = _builders(_pivots(LA))

    def _object(self, seed: int, far: bool) -> np.ndarray:
        obj = self.oracle.dataset[seed % N] + np.array([37.0, -53.0]) * (seed % 7)
        return obj * 3.0 + 5000.0 if far else obj

    def _other(self, obj) -> np.ndarray:
        return obj + 0.25

    def _query(self, seed: int, far: bool):
        dataset = self.oracle.dataset
        return dataset[seed % len(dataset)] + (4000.0 if far else 0.0) + seed % 5


class WordsRafIndexes(RafIndexes):
    base = WORDS
    radius = 2.0
    builders = _builders(_pivots(WORDS))

    def _object(self, seed: int, far: bool) -> str:
        word = self.oracle.dataset[seed % N]
        if far:  # longer than every word the grid was fitted on
            return word * 4 + "q" * (seed % 5)
        return word[: len(word) - seed % 3] + "xyz"[: seed % 4]

    def _other(self, obj) -> str:
        return obj + "~"

    def _query(self, seed: int, far: bool):
        dataset = self.oracle.dataset
        word = dataset[seed % len(dataset)]
        return word * 3 if far else word[seed % 2 :] + "e" * (seed % 3)


_SETTINGS = settings(
    max_examples=4,
    stateful_step_count=12,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
LaRafIndexes.TestCase.settings = _SETTINGS
WordsRafIndexes.TestCase.settings = _SETTINGS

TestRafIndexes = LaRafIndexes.TestCase
TestWordsRafIndexes = WordsRafIndexes.TestCase
