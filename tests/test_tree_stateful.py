"""A stateful oracle for the frontier trees, the sibling of
``test_raf_stateful.py``.

Two hypothesis state machines drive private copies of one small dataset
each: MVPT and VPT on LA; MVPT, VPT, FQT and BKT on Words.  The steps are
inserts of new objects (some far past the build-time frames), deletes,
re-inserts under the same id, refused inserts and deletes, MRQ, MkNNQ,
both ``*_many`` forms, and save -> load, after which the mutations go on
on the restored tree or on the saved one, whose written leaves the save
folded back into its columns.  Every answer is checked against brute force over
the live ids; an MRQ alone costs the compdists of a batch of one; a
restore costs none.  ``test_table_stateful.py`` runs the pivot tables under
the same rules.

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
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro import BKT, FQT, MVPT, VPT, CostCounters, MetricSpace, make_la, make_words
from repro import brute_force_knn, brute_force_range, select_pivots
from repro.core.dataset import Dataset
from repro.service import load_index, save_index

N = 120
LEAF = 4  # a few levels at this n
LA = make_la(N, seed=23)
LA_PIVOTS = select_pivots(MetricSpace(LA), 4, strategy="hfi", seed=3)
WORDS = make_words(N, seed=23)
WORDS_PIVOTS = select_pivots(MetricSpace(WORDS), 4, strategy="hfi", seed=3)


class TreeIndexes(RuleBasedStateMachine):
    """The rules; a subclass names the dataset, the trees and the radius."""

    base: Dataset
    builders: dict
    radius: float

    def __init__(self):
        super().__init__()
        self.oracle = MetricSpace(self._copy())
        self.live = set(range(N))
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
        obj = self._object(seed, far)
        new_id = self.oracle.dataset.add(obj)
        for name, index in self.indexes.items():
            assert index.insert(self._stored(new_id)) == new_id, name
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
            assert index.insert(self._stored(object_id), object_id=object_id) == object_id, name
        self.live.add(object_id)

    @precondition(lambda self: len(self.live) < len(self.oracle.dataset))
    @rule(data=st.data(), seed=st.integers(0, 10_000))
    def refused(self, data, seed):
        """A second delete, another object under a dead id, a live id
        again: each refused."""
        dead = data.draw(st.sampled_from(self._dead()))
        live = data.draw(st.sampled_from(sorted(self.live)))
        stranger = self._object(seed, True)
        for index in self.indexes.values():
            with pytest.raises(KeyError):
                index.delete(dead)
            with pytest.raises(ValueError, match="another object"):
                index.insert(stranger, object_id=dead)
            with pytest.raises(ValueError, match="already indexed"):
                index.insert(self._stored(live), object_id=live)

    # -- queries ------------------------------------------------------------------

    def _range(self, q, radius):
        return [i for i in brute_force_range(self.oracle, q, radius) if i in self.live]

    def _knn(self, q, k):
        dead = len(self.oracle.dataset) - len(self.live)
        nearest = brute_force_knn(self.oracle, q, k + dead)
        return [n for n in nearest if n.object_id in self.live][:k]

    @rule(seed=st.integers(0, 10_000), far=st.booleans(), scale=st.sampled_from([0, 0.5, 1, 2]))
    def range_query(self, seed, far, scale):
        """One query a call costs what the batch of one costs."""
        q, radius = self._query(seed, far), self.radius * scale
        want = self._range(q, radius)
        for name, index in self.indexes.items():
            counters = index.space.counters
            before = counters.distance_computations
            assert index.range_query(q, radius) == want, name
            alone = counters.distance_computations - before
            assert index.range_query_many([q], radius) == [want], name
            assert counters.distance_computations - before == 2 * alone, name

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
        self._check_saved(index, restored)
        # go on with either: the restored index, or the saved live one
        self.indexes[name] = restored if data.draw(st.booleans()) else index

    def _check_saved(self, index, restored):
        # the save folded the written leaves back into the live tree's columns
        assert index._flat.overlay == {} == restored._flat.overlay


class LaTrees(TreeIndexes):
    base = LA
    radius = 900.0
    builders = {
        "MVPT": lambda space: MVPT.build(space, LA_PIVOTS, leaf_size=LEAF),
        "VPT": lambda space: VPT.build(space, LA_PIVOTS, leaf_size=LEAF),
    }

    def _object(self, seed: int, far: bool) -> np.ndarray:
        obj = self.oracle.dataset[seed % N] + np.array([37.0, -53.0]) * (seed % 7)
        return obj * 3.0 + 5000.0 if far else obj

    def _query(self, seed: int, far: bool):
        dataset = self.oracle.dataset
        return dataset[seed % len(dataset)] + (4000.0 if far else 0.0) + seed % 5


class WordsTrees(TreeIndexes):
    base = WORDS
    radius = 2.0
    builders = {
        "MVPT": lambda space: MVPT.build(space, WORDS_PIVOTS, leaf_size=LEAF),
        "VPT": lambda space: VPT.build(space, WORDS_PIVOTS, leaf_size=LEAF),
        "FQT": lambda space: FQT.build(space, WORDS_PIVOTS),
        "BKT": lambda space: BKT.build(space, leaf_size=LEAF, seed=3),
    }

    def _object(self, seed: int, far: bool) -> str:
        word = self.oracle.dataset[seed % N]
        if far:  # longer than every word the frames were fitted on
            return word * 4 + "q" * (seed % 5)
        return word[: len(word) - seed % 3] + "xyz"[: seed % 4]

    def _query(self, seed: int, far: bool):
        dataset = self.oracle.dataset
        word = dataset[seed % len(dataset)]
        return word * 3 if far else word[seed % 2 :] + "e" * (seed % 3)


_SETTINGS = settings(
    max_examples=10,
    stateful_step_count=20,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
LaTrees.TestCase.settings = _SETTINGS
WordsTrees.TestCase.settings = _SETTINGS

TestLaTrees = LaTrees.TestCase
TestWordsTrees = WordsTrees.TestCase
