"""Dataset persistence (save_dataset / load_dataset), and the walk of the
index graph that snapshots and counter rebinding stand on."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import (
    CostCounters,
    MetricSpace,
    ShardedIndex,
    brute_force_range,
    make_la,
    make_synthetic,
    make_words,
    select_pivots,
)
from repro.core import load_dataset, save_dataset
from repro.service import iter_components, rebind_counters
from repro.storage.pager import Pager
from repro.tables import LAESA

from conftest import indexes_for


class TestVectorRoundtrip:
    def test_la(self, tmp_path):
        dataset = make_la(120, seed=1)
        path = tmp_path / "la.npz"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert loaded.name == "LA"
        assert loaded.distance.name == "L2"
        assert np.array_equal(loaded.objects, dataset.objects)

    def test_synthetic_keeps_discreteness(self, tmp_path):
        dataset = make_synthetic(100, seed=1)
        path = tmp_path / "syn.npz"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert loaded.distance.is_discrete
        assert loaded.distance.name == "Linf"

    def test_queries_identical_after_roundtrip(self, tmp_path):
        dataset = make_la(150, seed=2)
        path = tmp_path / "la.npz"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        q = dataset[3]
        assert brute_force_range(MetricSpace(loaded), q, 800.0) == brute_force_range(
            MetricSpace(dataset), q, 800.0
        )


class TestWordsRoundtrip:
    def test_words(self, tmp_path):
        dataset = make_words(80, seed=3)
        path = tmp_path / "words.txt"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert loaded.name == "Words"
        assert loaded.distance.name == "edit"
        assert list(loaded.objects) == list(dataset.objects)

    def test_header_parsing_defaults(self, tmp_path):
        path = tmp_path / "bare.txt"
        path.write_text("# hello\nalpha\nbeta\n")
        loaded = load_dataset(path)
        assert list(loaded.objects) == ["alpha", "beta"]
        assert loaded.distance.name == "edit"


# -- the component walk ---------------------------------------------------------


def _reference_walk(index):
    """The walk with every child pushed, scalars included: the body
    ``iter_components`` had before it filtered children on the way in."""
    seen: set[int] = set()
    stack: list[object] = [index]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
            continue
        if isinstance(obj, dict):
            stack.extend(obj.values())
            continue
        module = getattr(type(obj), "__module__", "") or ""
        if not module.startswith("repro"):
            continue
        yield obj
        state = getattr(obj, "__dict__", None)
        if state:
            stack.extend(state.values())


class _WalkProbe(dict):
    """A container in the graph that counts how often a walk opens it."""

    opened = 0

    def values(self):
        self.opened += 1
        return super().values()


def _assert_rebound(index, counters) -> int:
    """Every reachable space and page store counts into ``counters``;
    returns how many pagers were found."""
    components = list(_reference_walk(index))
    spaces = [c for c in components if isinstance(c, MetricSpace)]
    pagers = [c for c in components if isinstance(c, Pager)]
    assert spaces and all(space.counters is counters for space in spaces)
    assert all(pager.store.counters is counters for pager in pagers)
    return len(pagers)


# every family snapshots (tests/test_service.py round-trips this roster)
@pytest.mark.parametrize("index_name", indexes_for("Words"))
def test_one_walk_rebinds_every_space_and_pager(built_indexes, index_name):
    # a private copy of the shared fixture: rebinding mutates the graph
    index = pickle.loads(pickle.dumps(built_indexes("Words", index_name)))
    walked = [id(c) for c in iter_components(index)]
    assert len(walked) == len(set(walked))
    assert set(walked) == {id(c) for c in _reference_walk(index)}
    index.walk_probe = _WalkProbe(space=index.space)
    counters = CostCounters()
    rebind_counters(index, counters)
    assert index.walk_probe.opened == 1  # one pass over the graph per call
    n_pagers = _assert_rebound(index, counters)
    if index_name == "CPT":
        # the pager nested inside the M-tree, not an attribute of the index
        assert n_pagers == 1 and index.mtree.pager.store.counters is counters
    assert index.is_disk_based == (n_pagers > 0)


def test_one_walk_per_shard_in_per_shard_counters_mode(datasets):
    space = MetricSpace(datasets["LA"], CostCounters())
    index = ShardedIndex.build(
        space,
        lambda s: LAESA.build(s, select_pivots(s, 3, strategy="hfi", seed=0)),
        n_shards=3,
        seed=2,
        per_shard_counters=True,
    )
    for shard in index.shards:
        shard.walk_probe = _WalkProbe(space=shard.space)
    counters = CostCounters()
    rebind_counters(index, counters)
    assert index.space.counters is counters
    private = [shard.space.counters for shard in index.shards]
    assert len({id(c) for c in private} | {id(counters)}) == len(private) + 1
    for shard, own in zip(index.shards, private):
        assert shard.walk_probe.opened == 1
        _assert_rebound(shard, own)
