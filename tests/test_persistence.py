"""Dataset persistence (save_dataset / load_dataset), the walk of the index
graph that snapshots and counter rebinding stand on, tree snapshots across
the change of MVPT / VPT's leaf layout, RAF snapshots across the change of
the RAF's page format, and B+-tree snapshots across the change to columnar
leaves."""

from __future__ import annotations

import json
import pickle
from array import array
from pathlib import Path

import numpy as np
import pytest

from repro import (
    CostCounters,
    MetricSpace,
    ShardedIndex,
    brute_force_knn,
    brute_force_range,
    make_la,
    make_synthetic,
    make_words,
    select_pivots,
)
from repro.btree import LeafNode
from repro.core import load_dataset, save_dataset
from repro.core.quantise import Frame
from repro.service import iter_components, load_index, rebind_counters, save_index
from repro.storage.pager import Pager
from repro.storage.raf import RafPage, RecordPointer
from repro.tables import LAESA

from conftest import RADIUS, assert_codes_hold, fresh_index, indexes_for


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


# -- MVPT / VPT snapshots across the leaf layout change ----------------------------

DATA = Path(__file__).parent / "data"


def _tree_answers(index, queries, radius, k=8):
    """Answers of every query method, and the distances they took."""
    counters = index.space.counters
    before = counters.snapshot()
    answers = (
        [index.range_query(q, radius) for q in queries],
        index.range_query_many(queries, radius),
        [index.knn_query(q, k) for q in queries],
        index.knn_query_many(queries, k),
    )
    return answers, (counters.snapshot() - before).distance_computations


@pytest.mark.parametrize("name", ["mvpt", "vpt"])
def test_snapshot_with_codeless_leaves_still_loads(name):
    """``tests/data/pr20_*_la300.snap`` were written by the commit before
    leaves carried path codes (ids in lists; object 7 deleted and put back,
    31 deleted).  They load with no distance computed, as leaves of depth 0
    that are verified whole, and take updates like any other tree."""
    dataset = make_la(300, seed=11)
    index = load_index(DATA / f"pr20_{name}_la300.snap")
    assert index.space.counters.distance_computations == 0
    assert index._frames == ()
    leaves = [c for c in iter_components(index) if getattr(c, "is_leaf", False)]
    assert sorted(i for leaf in leaves for i in leaf.ids) == [
        i for i in range(300) if i != 31
    ]
    assert all(
        leaf.ids.typecode == "i" and leaf.depth == 0 and not leaf.codes for leaf in leaves
    )
    oracle = MetricSpace(dataset)
    queries = [dataset[5], dataset[31], dataset[200]]
    for q in queries:
        assert index.range_query(q, 900.0) == [
            i for i in brute_force_range(oracle, q, 900.0) if i != 31
        ]
    with pytest.raises(ValueError):
        index.insert(dataset[7], object_id=7)
    assert index.insert(dataset[31], object_id=31) == 31
    index.delete(12)
    index.insert(dataset[12], object_id=12)
    for q in queries:
        assert index.range_query(q, 900.0) == brute_force_range(oracle, q, 900.0)
        assert index.knn_query(q, 6) == brute_force_knn(oracle, q, 6)
    assert all(not leaf.codes for leaf in leaves)


def _coded_answers(index, queries, radius, k):
    """Every query form's answers, as the fixture writer recorded them, and
    the compdists they cost."""
    counters = index.space.counters
    before = counters.snapshot()
    got = {
        "range": [index.range_query(q, radius) for q in queries],
        "range_many": index.range_query_many(queries, radius),
        "knn": [[[n.distance, n.object_id] for n in index.knn_query(q, k)] for q in queries],
        "knn_many": [
            [[n.distance, n.object_id] for n in row] for row in index.knn_query_many(queries, k)
        ],
    }
    return got, (counters.snapshot() - before).distance_computations


@pytest.mark.parametrize("name", ["mvpt", "vpt", "fqa"])
def test_snapshot_with_pre_frame_codes_still_loads(name):
    """``tests/data/tuple_frames_{mvpt,vpt}_la300.snap`` (``make_la(300,
    seed=11)``) and ``u32_signatures_fqa_words300.snap`` (``make_words(300,
    seed=11)``; 5 HFI pivots, seed 3) were written when MVPT / VPT level
    frames were ``(low, width, exact)`` tuples and FQA signatures were
    ``uint32`` buckets of one ``_width``: object 7 deleted and put back, 31
    deleted, and one object inserted past the frame (its FQA buckets past
    255).  They load as :class:`Frame` codes with no distance computed and
    give the answers they gave when written, at the same compdists."""
    expected = json.loads((DATA / "coded_la300_words300_expected.json").read_text())[name]
    if name == "fqa":
        dataset = make_words(300, seed=11)
        path = DATA / "u32_signatures_fqa_words300.snap"
        queries = [dataset[5], dataset[31], dataset[200], "q" * 298]
    else:
        dataset = make_la(300, seed=11)
        path = DATA / f"tuple_frames_{name}_la300.snap"
        queries = [dataset[5], dataset[31], dataset[200], dataset[3] * 3.0 + 9000.0]
    index = load_index(path)
    assert index.space.counters.distance_computations == 0
    assert all(type(frame) is Frame for frame in index._frames)
    if name == "fqa":
        assert index._signatures.dtype == np.uint8
        assert index._signatures.max() == 255  # the far word, in the open top cell
    else:
        assert index._frames == [tuple(frame) + (256,) for frame in expected["frames"]]
        assert_codes_hold(index)
    got, compdists = _coded_answers(index, queries, expected["radius"], expected["k"])
    assert got == {form: expected[form] for form in got}
    assert compdists == expected["compdists"]


@pytest.mark.parametrize("dataset_name,index_name", [("LA", "MVPT"), ("LA", "VPT"), ("Words", "MVPT")])
def test_coded_tree_round_trip_matches_the_live_index(
    datasets, pivots, tmp_path, dataset_name, index_name
):
    """Save, restore, update both sides alike: same answers at the same
    compdists, restore itself costing none."""
    dataset = datasets[dataset_name]
    live = fresh_index(datasets, pivots, dataset_name, index_name)
    live.delete(9)
    save_index(live, tmp_path / "tree.snap")
    restored = load_index(tmp_path / "tree.snap")
    assert restored.space.counters.distance_computations == 0
    assert restored._frames == live._frames
    leaves = [c for c in iter_components(restored) if getattr(c, "is_leaf", False)]
    # ids and codes travel as bytes, not as one pickled ndarray each
    assert all(type(leaf.ids) is array and type(leaf.codes) is bytearray for leaf in leaves)
    assert_codes_hold(restored)
    # one dataset object serves both sides here, so put back what each takes out
    for index in (live, restored):
        index.space.counters.reset()
        index.insert(dataset[9], object_id=9)
        index.delete(40)
        index.insert(dataset[40], object_id=40)
        index.delete(41)
    assert (
        restored.space.counters.distance_computations
        == live.space.counters.distance_computations
        > 0
    )
    queries = [dataset[2], dataset[9], dataset[41]]
    radius = RADIUS[dataset_name]
    assert _tree_answers(restored, queries, radius) == _tree_answers(live, queries, radius)
    assert restored.storage_bytes() == live.storage_bytes()


# -- RAF snapshots across the change of page format ----------------------------------


def _external_answers(index, queries, radius, k=6, gone=()):
    """Every query method's answers, and brute force's without ``gone``."""
    got = (
        [index.range_query(q, radius) for q in queries],
        index.range_query_many(queries, radius),
        [index.knn_query(q, k) for q in queries],
        index.knn_query_many(queries, k),
    )
    oracle = MetricSpace(index.space.dataset, CostCounters())
    ranges = [
        [i for i in brute_force_range(oracle, q, radius) if i not in gone]
        for q in queries
    ]
    knns = [
        [n for n in brute_force_knn(oracle, q, k + len(gone)) if n.object_id not in gone][:k]
        for q in queries
    ]
    return got, (ranges, ranges, knns, knns)


@pytest.mark.parametrize("name", ["spbtree", "mindexstar", "dept"])
def test_snapshot_with_list_pages_still_loads(tmp_path, name):
    """``tests/data/list_pages_*_la300.snap`` (SPB-tree, M-index*, DEPT on
    ``make_la(300, seed=11)``, 5 HFI pivots, seed 3) were written when each
    RAF page was a pickled list of records: object 7 deleted and put back
    twice -- a tombstone on the open page -- and 31 deleted.  They load with
    no distance computed, read their list pages as they are, answer as
    brute force does, re-encode a page when they write it, and round-trip
    through ``save_index`` again."""
    dataset = make_la(300, seed=11)
    index = load_index(DATA / f"list_pages_{name}_la300.snap")
    assert index.space.counters.distance_computations == 0
    raf = index.raf
    page_ids = sorted({p.page_id for p in index._pointers.values()})
    assert all(type(index.pager.read(p)) is list for p in page_ids)
    # the pickled open record list came back as the open page
    assert type(raf._open_page) is RafPage and None in raf._open_page.records()
    assert raf._open_page.record(len(raf._open_page) - 1)[0] == 7
    queries = [dataset[5], dataset[31], dataset[200]]
    got, want = _external_answers(index, queries, 900.0, gone={31})
    assert got == want

    # a delete and re-insert of a live id: the pages written are re-encoded
    old = index._pointers[12]
    open_page, open_slots = raf._open_page_id, len(raf._open_page)
    index.delete(12)
    assert type(index.pager.read(old.page_id)) is RafPage
    assert index.insert(dataset[12], object_id=12) == 12
    assert index._pointers[12] == RecordPointer(open_page, open_slots)
    assert type(index.pager.read(open_page)) is RafPage
    assert raf.read(old) is None and raf.read(index._pointers[12])[0] == 12
    got, want = _external_answers(index, queries, 900.0, gone={31})
    assert got == want

    save_index(index, tmp_path / "again.snap")
    restored = load_index(tmp_path / "again.snap")
    assert restored.space.counters.distance_computations == 0
    assert pickle.dumps(restored.raf._open_page) == pickle.dumps(raf._open_page)
    assert _external_answers(restored, queries, 900.0, gone={31}) == (got, want)
    assert restored.storage_bytes() == index.storage_bytes()


# -- B+-tree snapshots across the change to columnar leaves -------------------------


def _btree_nodes(tree):
    stack = [tree.root_page]
    while stack:
        node = tree.read_node(stack.pop())
        yield node
        if not node.is_leaf:
            stack.extend(node.children)


def _check_btrees(index, name):
    """Every B+-tree of ``index`` holds; returns them."""
    trees = getattr(index, "trees", None) or [index.btree]
    for tree in trees:
        tree.check_invariants(cells_of=index.cells_of if name == "spbtree" else None)
        leaves = [node for node in _btree_nodes(tree) if node.is_leaf]
        assert all(type(leaf) is LeafNode for leaf in leaves)
        if name == "spbtree":
            assert all(leaf.cells.dtype == np.uint8 for leaf in leaves)
        else:
            assert all(leaf.cells is None for leaf in leaves)
    return trees


@pytest.mark.parametrize("name", ["omnib", "spbtree", "mindexstar"])
def test_snapshot_with_list_leaves_answers_as_written(tmp_path, name):
    """``tests/data/list_leaves_omnib_la300.snap`` (OmniB+, written as
    ``list_pages_*`` were: ``make_la(300, seed=11)``, 5 HFI pivots seed 3, 7
    deleted and re-inserted twice, 31 deleted) and the SPB-tree and M-index*
    ``list_pages_*`` snapshots hold B+-tree leaves as key / value lists.
    They load with no distance computed, read every node as columns (an
    SPB-tree's leaves with the cells their keys decode to), give the
    answers and compdists they gave when written, take a delete and a
    re-insert, and round-trip through ``save_index`` again."""
    expected = json.loads((DATA / "list_leaves_la300_expected.json").read_text())[name]
    dataset = make_la(300, seed=11)
    if name == "omnib":
        path = DATA / "list_leaves_omnib_la300.snap"
    else:
        path = DATA / f"list_pages_{name}_la300.snap"
    index = load_index(path)
    assert index.space.counters.distance_computations == 0
    _check_btrees(index, name)
    queries = [dataset[5], dataset[31], dataset[200], dataset[3] * 3.0 + 9000.0]
    got, compdists = _coded_answers(index, queries, expected["radius"], expected["k"])
    assert got == {form: expected[form] for form in got}
    assert compdists == expected["compdists"]
    got, want = _external_answers(index, queries[:3], 900.0, gone={31})
    assert got == want

    index.delete(12)
    assert index.insert(dataset[12], object_id=12) == 12
    _check_btrees(index, name)
    got, want = _external_answers(index, queries[:3], 900.0, gone={31})
    assert got == want

    save_index(index, tmp_path / "again.snap")
    restored = load_index(tmp_path / "again.snap")
    assert restored.space.counters.distance_computations == 0
    _check_btrees(restored, name)
    assert _external_answers(restored, queries[:3], 900.0, gone={31}) == (got, want)
    assert restored.storage_bytes() == index.storage_bytes()


# -- M-tree snapshots across the change to columnar nodes ----------------------------


@pytest.mark.parametrize("name", ["pmtree", "cpt", "mtree"])
def test_snapshot_with_entry_nodes_still_loads(tmp_path, name):
    """``tests/data/entry_nodes_{pmtree,cpt,mtree}_la300.snap`` (PM-tree, CPT
    and M-tree on ``make_la(300, seed=11)``, 5 HFI pivots, seed 3, 4 KB
    pages) were written when an M-tree node was a list of entry objects:
    object 7 deleted and put back, 31 deleted.  They load with no distance
    computed, read each node as columns, give the answers they gave when
    written at the same compdists, take updates, and round-trip through
    ``save_index`` again."""
    expected = json.loads((DATA / "entry_nodes_la300_expected.json").read_text())[name]
    dataset = make_la(300, seed=11)
    queries = [dataset[5], dataset[31], dataset[200], dataset[3] * 3.0 + 9000.0]
    index = load_index(DATA / f"entry_nodes_{name}_la300.snap")
    assert index.space.counters.distance_computations == 0
    tree = index.mtree
    assert tree.carries_vectors is (name == "pmtree")
    tree.check_invariants()
    leaves = [leaf for _, leaf in tree.iter_leaves()]
    assert all(type(leaf.ids) is np.ndarray for leaf in leaves)
    assert sorted(i for leaf in leaves for i in leaf.ids.tolist()) == [
        i for i in range(300) if i != 31
    ]
    got, compdists = _coded_answers(index, queries, expected["radius"], expected["k"])
    assert got == {form: expected[form] for form in got}
    assert compdists == expected["compdists"]

    with pytest.raises(ValueError):
        index.insert(dataset[7], object_id=7)
    assert index.insert(dataset[31], object_id=31) == 31
    index.delete(12)
    assert index.insert(dataset[12], object_id=12) == 12
    tree.check_invariants()
    got, want = _external_answers(index, queries, 900.0)
    assert got == want

    save_index(index, tmp_path / "again.snap")
    restored = load_index(tmp_path / "again.snap")
    assert restored.space.counters.distance_computations == 0
    assert _external_answers(restored, queries, 900.0) == (got, want)
    assert restored.storage_bytes()["disk"] <= index.storage_bytes()["disk"]
