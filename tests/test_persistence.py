"""Dataset persistence (save_dataset / load_dataset), the walk of the index
graph that snapshots and counter rebinding stand on, tree snapshots across
the change of MVPT / VPT's leaf layout, RAF snapshots across the change of
the RAF's page format, and B+-tree snapshots across the change to columnar
leaves: each old snapshot read through ``repro migrate`` (the ``migrated``
fixture), its answers and compdists those it gave when written."""

from __future__ import annotations

import gc
import json
import pickle
import types
from pathlib import Path

import numpy as np
import pytest

from repro import (
    BKT,
    FQT,
    MVPT,
    VPT,
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
from repro.external import SPBTree
from repro.core import load_dataset, save_dataset
from repro.core.quantise import Frame
from repro.service import (
    SnapshotError,
    iter_components,
    load_index,
    rebind_counters,
    save_index,
)
from repro.storage.pager import Pager
from repro.storage.raf import RafPage
from repro.tables import LAESA

from conftest import (
    RADIUS,
    assert_codes_hold,
    fresh_index,
    indexes_for,
    rewrite_header,
    tree_nodes,
)


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


def test_the_walk_over_a_tree_does_not_grow_with_n():
    """Tree nodes hold no space and no pager, so the walk stops at the
    root: the same components at n = 300 as at n = 3 000."""
    nodes, components = [], []
    for n in (300, 3000):
        space = MetricSpace(make_la(n, seed=2))
        index = MVPT.build(space, select_pivots(space, 5, strategy="hfi", seed=0))
        nodes.append(sum(1 for _ in tree_nodes(index)))
        components.append(len(list(iter_components(index))))
    assert nodes[1] > 5 * nodes[0]
    assert components[1] == components[0]


_ATOMS = (int, float, bool, complex, str, bytes, type(None))
_CODE = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)


def _objects_reachable(root) -> int:
    """Python objects reachable from ``root`` through ``gc.get_referents``,
    numbers and strings aside (values, not structure), and without entering
    classes, modules or functions."""
    seen, stack, count = {id(root)}, [root], 0
    while stack:
        count += 1
        for ref in gc.get_referents(stack.pop()):
            if id(ref) not in seen and not isinstance(ref, _ATOMS + _CODE):
                seen.add(id(ref))
                stack.append(ref)
    return count


def test_a_tree_holds_as_many_objects_at_any_n(tmp_path):
    """A tree is its columns: built or restored, an MVPT at n = 8 000 holds
    as many Python objects as at n = 2 000 -- nothing per level, node or
    leaf.  Writes copy the leaves they touch aside, and the next save folds
    those copies back: the tree then holds what it held unwritten."""
    built, restored = [], []
    for n in (2000, 8000):
        space = MetricSpace(make_la(n, seed=2))
        index = MVPT.build(space, select_pivots(space, 5, strategy="hfi", seed=0))
        save_index(index, tmp_path / f"{n}.snap")
        again = load_index(tmp_path / f"{n}.snap")
        assert again._stretched == index._stretched == {}
        built.append(_objects_reachable(index))
        restored.append(_objects_reachable(again))
        for tree, unwritten in ((index, built[-1]), (again, restored[-1])):
            # delete every 7th object, put every other one back: most leaves
            for object_id in range(0, n, 7):
                tree.delete(object_id)
            for object_id in range(0, n, 14):
                tree.insert(tree.space.dataset[object_id], object_id=object_id)
            assert len(tree._flat.overlay) > 100
            assert _objects_reachable(tree) > unwritten
            save_index(tree, tmp_path / f"{n}.written.snap")
            assert tree._flat.overlay == {} and tree._stretched == {}
            assert _objects_reachable(tree) == unwritten
            assert sorted(tree.range_query(tree.space.dataset[1], 1e9)) == [
                i for i in range(n) if i % 7 or not i % 14
            ]
    assert built[0] == built[1]
    assert restored[0] == restored[1]


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


def _node_rows(index):
    """An MVPT / VPT node for node, in preorder: levels and bounds of the
    internal nodes; depths, ids and codes of the leaves."""
    return [
        ("leaf", node.depth, node.ids.tolist(), bytes(node.codes))
        if node.is_leaf
        else ("node", node.level, node.lows.tolist(), node.highs.tolist())
        for node in tree_nodes(index)
    ]


@pytest.mark.parametrize("name", ["mvpt", "vpt"])
def test_snapshot_with_codeless_leaves_still_loads(migrated, name):
    """``tests/data/pr20_*_la300.snap`` were written by the commit before
    leaves carried path codes (ids in lists; object 7 deleted and put back,
    31 deleted).  They load with no distance computed, as leaves of depth 0
    that are verified whole, and take updates like any other tree."""
    dataset = make_la(300, seed=11)
    index = load_index(migrated(f"pr20_{name}_la300.snap"))
    assert index.space.counters.distance_computations == 0
    assert index._stretched == {}
    leaves = [node for node in tree_nodes(index) if node.is_leaf]
    assert sorted(i for leaf in leaves for i in leaf.ids) == [
        i for i in range(300) if i != 31
    ]
    assert all(leaf.ids.dtype == np.intc and leaf.depth == 0 and not leaf.codes for leaf in leaves)
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


# the fixtures below: compdists of every query form when written (their
# expected files), and migrated -- FQA cells holding the whole distances
# inside their edges, MVPT / VPT codes cells of their path bands
_COMPDISTS = {"fqa": (2740, 2578), "mvpt": (610, 478), "vpt": (350, 316), "level_frames_mvpt": (610, 478)}


@pytest.mark.parametrize("name", ["mvpt", "vpt", "fqa"])
def test_snapshot_with_pre_frame_codes_still_loads(migrated, name):
    """``tests/data/tuple_frames_{mvpt,vpt}_la300.snap`` (``make_la(300,
    seed=11)``) and ``u32_signatures_fqa_words300.snap`` (``make_words(300,
    seed=11)``; 5 HFI pivots, seed 3) were written when MVPT / VPT level
    frames were ``(low, width, exact)`` tuples and FQA signatures were
    ``uint32`` buckets of one ``_width``: object 7 deleted and put back, 31
    deleted, and one object inserted past the frame (its FQA buckets past
    255).  Migrated, FQA's signatures are :class:`Frame` codes on its
    discrete metric, and MVPT / VPT codes are made again within each
    object's path bands; they load with no distance computed and give the
    answers they gave when written, at fewer compdists."""
    expected = json.loads((DATA / "coded_la300_words300_expected.json").read_text())[name]
    if name == "fqa":
        dataset = make_words(300, seed=11)
        path = migrated("u32_signatures_fqa_words300.snap")
        queries = [dataset[5], dataset[31], dataset[200], "q" * 298]
    else:
        dataset = make_la(300, seed=11)
        path = migrated(f"tuple_frames_{name}_la300.snap")
        queries = [dataset[5], dataset[31], dataset[200], dataset[3] * 3.0 + 9000.0]
    index = load_index(path)
    assert index.space.counters.distance_computations == 0
    if name == "fqa":
        assert all(type(frame) is Frame and frame.discrete for frame in index._frames)
        assert index._signatures.dtype == np.uint8
        assert index._signatures.max() == 255  # the far word, in the open top cell
    else:
        assert index._stretched == {}
        assert assert_codes_hold(index) > 0
    got, compdists = _coded_answers(index, queries, expected["radius"], expected["k"])
    assert got == {form: expected[form] for form in got}
    assert (expected["compdists"], compdists) == _COMPDISTS[name]


def test_level_frame_mvpt_snapshot_loads_through_migrate(migrated):
    """``tests/data/level_frames_mvpt_la300.snap`` (``make_la(300,
    seed=11)``; 5 HFI pivots, seed 3; object 7 deleted and put back, 31
    deleted, one object inserted past every level's frame) was written when
    MVPT codes were cells of one frame a level.  ``load_index`` refuses it,
    naming ``repro migrate``; migrated -- each object's path distances
    computed once, offline -- its codes are cells of their path bands, it
    restores at no distance and answers as written, at fewer compdists."""
    expected = json.loads((DATA / "level_frames_mvpt_la300_expected.json").read_text())
    with pytest.raises(SnapshotError, match="repro migrate"):
        load_index(DATA / "level_frames_mvpt_la300.snap")
    index = load_index(migrated("level_frames_mvpt_la300.snap"))
    assert index.space.counters.distance_computations == 0
    assert index._stretched == {}
    assert assert_codes_hold(index) > 0
    dataset = index.space.dataset
    queries = [dataset[i] for i in (5, 31, 200, expected["far_id"])]
    got, compdists = _coded_answers(index, queries, expected["radius"], expected["k"])
    assert got == {form: expected[form] for form in got}
    assert (expected["compdists"], compdists) == _COMPDISTS["level_frames_mvpt"]


@pytest.mark.parametrize("name", ["laesa", "cpt"])
def test_float64_cell_table_snapshot_loads_through_migrate(migrated, tmp_path, name):
    """``tests/data/f64_cells_{laesa,cpt}_la300.snap`` (``make_la(300,
    seed=11)``; 5 HFI pivots, seed 3; object 7 deleted and put back, 31
    deleted) were written while the table held float64 cells and intp row
    ids.  ``load_index`` refuses them, naming ``repro migrate``; migrated --
    narrowed to float32 under a slack, at no distance -- they answer as
    written, at the compdists they cost then, and the narrowed table
    survives another save and load."""
    expected = json.loads((DATA / "f64_cells_la300_expected.json").read_text())
    with pytest.raises(SnapshotError, match="repro migrate"):
        load_index(DATA / f"f64_cells_{name}_la300.snap")
    index = load_index(migrated(f"f64_cells_{name}_la300.snap"))
    assert index.space.counters.distance_computations == 0
    assert index._rows.dtype == np.float32 and index._row_ids.dtype == np.int32
    assert 0 < index.slack < 1e-3
    dataset = index.space.dataset
    queries = [dataset[i] for i in expected["query_ids"]] + [dataset[3] * 3.0 + 9000.0]
    radius, k = expected["radius"], expected["k"]
    got, compdists = _coded_answers(index, queries, radius, k)
    want = expected[name]
    assert got == {form: want[form] for form in got}
    assert compdists == want["compdists"]
    save_index(index, tmp_path / "again.snap")
    again = load_index(tmp_path / "again.snap")
    assert again._rows.dtype == np.float32 and again.slack == index.slack
    assert _coded_answers(again, queries, radius, k) == (got, compdists)


@pytest.mark.parametrize("name", ["laesa", "cpt", "ept"])
def test_row_major_table_snapshot_loads_through_migrate(migrated, tmp_path, name):
    """``tests/data/row_major_{laesa,cpt,ept}_la300.snap`` (``make_la(300,
    seed=11)``; 5 HFI pivots, seed 3; object 7 deleted and put back, 31
    deleted) were written while the tables were row-major arrays.
    ``load_index`` refuses them, naming ``repro migrate``; migrated into a
    column store -- the same cells, ids, slack and pivots, at no distance
    -- they answer as written, at the compdists and stored bytes of then,
    and survive another save and load."""
    expected = json.loads((DATA / "row_major_la300_expected.json").read_text())
    want = expected[name]
    with pytest.raises(SnapshotError, match="repro migrate"):
        load_index(DATA / f"row_major_{name}_la300.snap")
    index = load_index(migrated(f"row_major_{name}_la300.snap"))
    assert index.space.counters.distance_computations == 0
    view = index.table.view
    assert view.dead == 0 and view.ids.dtype == np.int32 and view.table.T.flags.c_contiguous
    if name != "ept":
        assert index._rows.dtype == np.float32
        assert index.slack == want["slack"] and index.mapping.pivot_ids == want["pivot_ids"]
    dataset = index.space.dataset
    queries = [dataset[i] for i in expected["query_ids"]] + [dataset[3] * 3.0 + 9000.0]
    radius, k = expected["radius"], expected["k"]
    got, compdists = _coded_answers(index, queries, radius, k)
    assert got == {form: want[form] for form in got}
    assert compdists == want["compdists"]
    assert index.storage_bytes() == want["storage_bytes"]
    save_index(index, tmp_path / "again.snap")
    again = load_index(tmp_path / "again.snap")
    assert np.array_equal(again.table.view.table, view.table)
    assert _coded_answers(again, queries, radius, k) == (got, compdists)


@pytest.mark.parametrize("dataset_name,index_name", [("Words", "FQA")])
def test_intp_row_ids_restore_as_int32(datasets, pivots, tmp_path, dataset_name, index_name):
    """A row table pickled while its row ids were ``intp`` (an FQA snapshot
    of format 3 loads without ``repro migrate``) restores them as the
    ``int32`` a build makes: the same stored bytes, and an insert keeps the
    dtype.  (EPT / EPT* files of that age are row-major, which ``repro
    migrate`` converts: ``test_row_major_table_snapshot_loads_through_migrate``.)"""
    index = fresh_index(datasets, pivots, dataset_name, index_name)
    built = index.storage_bytes()
    index._row_ids = index._row_ids.astype(np.intp)
    save_index(index, tmp_path / "intp.snap")
    restored = load_index(tmp_path / "intp.snap")
    assert restored._row_ids.dtype == np.int32
    assert restored.storage_bytes() == built
    restored.insert(datasets[dataset_name][3])
    assert restored._row_ids.dtype == np.int32


@pytest.mark.parametrize("tree", [MVPT, VPT])
def test_a_stretching_insert_survives_save_and_load(tmp_path, tree):
    """Inserts far outside the bands stretch them; the codes stay cells of
    the bands they were made in, which the tree keeps beside its columns.
    Saved and restored (at no distance), it keeps them and answers as
    brute force does, at the live tree's compdists."""
    dataset = make_la(400, seed=21)  # private: inserts grow it
    space = MetricSpace(dataset)
    index = tree.build(space, select_pivots(space, 4, strategy="hfi", seed=1))
    far = [index.insert(dataset[i] * 2.5 + 3000.0) for i in (3, 50, 120)]
    index.delete(9)
    index.insert(dataset[9], object_id=9)
    assert index._stretched
    assert_codes_hold(index)
    save_index(index, tmp_path / "stretched.snap")
    again = load_index(tmp_path / "stretched.snap")
    assert again.space.counters.distance_computations == 0
    assert again._stretched == index._stretched
    assert_codes_hold(again)
    assert again.storage_bytes() == index.storage_bytes()
    oracle = MetricSpace(again.space.dataset)
    queries = [dataset[3], dataset[far[0]], dataset[far[2]] * 0.5, dataset[200]]
    for q in queries:
        for radius in (0.0, 900.0, 4000.0):
            assert again.range_query(q, radius) == brute_force_range(oracle, q, radius)
        assert again.knn_query(q, 7) == brute_force_knn(oracle, q, 7)
    assert _tree_answers(again, queries, 900.0) == _tree_answers(index, queries, 900.0)


@pytest.mark.parametrize("name", ["fqt", "bkt"])
def test_node_form_fqt_and_bkt_snapshots_answer_as_written(migrated, tmp_path, name):
    """``tests/data/node_form_{fqt,bkt}_words300.snap`` (``make_words(300,
    seed=11)``; FQT on 5 HFI pivots, seed 3; BKT seed 3, its root pivot
    deleted and put back, so the root is tombstoned; then object 7 deleted
    and put back, 31 deleted) were written when FQT / BKT were node
    objects.  ``load_index`` refuses them, naming ``repro migrate``;
    migrated, they are columns that give the answers they gave when
    written, at the same compdists, and save and load again alike."""
    expected = json.loads((DATA / "node_form_words300_expected.json").read_text())[name]
    with pytest.raises(SnapshotError, match="repro migrate"):
        load_index(DATA / f"node_form_{name}_words300.snap")
    index = load_index(migrated(f"node_form_{name}_words300.snap"))
    assert index.space.counters.distance_computations == 0
    assert (index._rows[0, 1] == -1) == (name == "bkt")
    dataset = index.space.dataset
    queries = [dataset[5], dataset[31], dataset[200], "q" * 12]
    got, compdists = _coded_answers(index, queries, expected["radius"], expected["k"])
    assert got == {form: expected[form] for form in got}
    assert compdists == expected["compdists"]
    save_index(index, tmp_path / "again.snap")
    again = load_index(tmp_path / "again.snap")
    assert _coded_answers(again, queries, expected["radius"], expected["k"]) == (got, compdists)


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
    assert restored._stretched == live._stretched
    assert _node_rows(restored) == _node_rows(live)
    # the tree is its five columns, and nothing was written over them yet
    assert [column.dtype for column in restored.__getstate__()["root"]] == [
        np.intc, np.float64, np.intc, np.intc, np.uint8
    ]
    assert restored._flat.overlay == {}
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


@pytest.mark.parametrize("fixture", ["pr20_mvpt", "pr20_vpt", "tuple_frames_mvpt", "tuple_frames_vpt"])
def test_object_tree_snapshot_saves_again_as_columns(migrated, tmp_path, fixture):
    """A tree that loaded from node objects saves as preorder columns and
    loads back equal to itself node for node, answering alike."""
    dataset = make_la(300, seed=11)
    old = load_index(migrated(f"{fixture}_la300.snap"))
    save_index(old, tmp_path / "again.snap")
    again = load_index(tmp_path / "again.snap")
    assert type(again.__getstate__()["root"]) is tuple
    assert _node_rows(again) == _node_rows(old)
    queries = [dataset[5], dataset[31], dataset[200]]
    assert _tree_answers(again, queries, 900.0) == _tree_answers(old, queries, 900.0)


def _packed_mvpt(n=2000):
    dataset = make_la(n, seed=3)
    space = MetricSpace(dataset)
    return MVPT.build(space, select_pivots(space, 5, strategy="hfi", seed=0))


def _packed(tree: str, n=2000):
    """A built FQT or BKT on Words."""
    space = MetricSpace(make_words(n, seed=3))
    if tree == "FQT":
        return FQT.build(space, select_pivots(space, 5, strategy="random", seed=0))
    return BKT.build(space, seed=3)


def _hostile_save(index, path, monkeypatch, damage) -> None:
    """Save ``index`` at ``path`` with one region cut short or one fanout
    rewritten."""
    if damage == "rewritten fanout":
        packed = type(index).__getstate__

        def one_fanout_more(self):
            state = packed(self)
            rows = state["root"][0].copy()
            rows[0, 0] += 1
            state["root"] = (rows,) + state["root"][1:]
            return state

        monkeypatch.setattr(type(index), "__getstate__", one_fanout_more)
    save_index(index, path)
    if damage == "truncated ids region":
        n_ids = len(index.__getstate__()["root"][3])

        def one_id_short(header):
            (ids,) = [r for r in header["regions"] if r["dtype"] == "<i4" and r["shape"] == [n_ids]]
            ids["shape"], ids["nbytes"] = [n_ids - 1], ids["nbytes"] - 4
            return header

        rewrite_header(path, one_id_short)


@pytest.mark.parametrize("damage", ["truncated ids region", "rewritten fanout"])
def test_hostile_packed_tree_is_a_snapshot_error(tmp_path, monkeypatch, damage):
    """A saved tree with one region cut short or one fanout rewritten is
    refused as a whole, before anything is held."""
    _hostile_save(_packed_mvpt(), tmp_path / "tree.snap", monkeypatch, damage)
    with pytest.raises(SnapshotError, match="packed MVPT"):
        load_index(tmp_path / "tree.snap")


@pytest.mark.parametrize("tree", ["FQT", "BKT"])
@pytest.mark.parametrize("damage", ["truncated ids region", "rewritten fanout"])
def test_hostile_packed_fqt_and_bkt_are_snapshot_errors(tmp_path, monkeypatch, damage, tree):
    _hostile_save(_packed(tree), tmp_path / "tree.snap", monkeypatch, damage)
    with pytest.raises(SnapshotError, match=f"packed {tree}"):
        load_index(tmp_path / "tree.snap")


@pytest.mark.parametrize(
    "retired",
    [(b"repro.trees.mvpt", b"repro.trees.gone"), (b"\x8c\x04MVPT", b"\x8c\x04GONE")],
    ids=["module", "class"],
)
def test_a_snapshot_naming_code_that_is_gone_is_a_snapshot_error(tmp_path, retired):
    """A pickle naming a module, or a class of a module, that this build no
    longer has is refused as a SnapshotError naming ``repro migrate`` (a
    reload answers it with a 400, not a server error)."""
    save_index(_packed_mvpt(300), tmp_path / "tree.snap")
    blob = (tmp_path / "tree.snap").read_bytes()
    assert retired[0] in blob
    (tmp_path / "gone.snap").write_bytes(blob.replace(*retired))
    with pytest.raises(SnapshotError, match="repro migrate"):
        load_index(tmp_path / "gone.snap")


def _columns_edit(edit):
    """A state edit that rewrites the packed columns through ``edit``."""

    def apply(state):
        rows, bounds, sizes, ids, codes = (np.array(column) for column in state["root"])
        state["root"] = edit(rows, bounds, sizes, ids, codes)

    return apply


def _first_leaf_first(rows, *rest):
    """Every count still adds up, but the preorder ends after one row."""
    leaf = int(np.flatnonzero(rows[:, 0] == 0)[0])
    return (np.concatenate([rows[leaf : leaf + 1], np.delete(rows, leaf, axis=0)]), *rest)


def _a_negative_fanout(rows, bounds, *rest):
    """The root owes two more children, a last row of fanout -1 takes both
    and two more bounds pay for it: every count adds up."""
    rows = np.concatenate([rows, [[-1, 0]]])
    rows[0, 0] += 2
    return (rows, np.concatenate([bounds, [0.0, 0.0]]), *rest)


def _a_leaf_past_the_pivots(rows, bounds, sizes, ids, codes):
    """A leaf coding one path level more than the tree has pivots, and the
    code bytes to fill: every count adds up."""
    leaf = int(np.flatnonzero(rows[:, 0] == 0)[0])
    size = sizes[int((rows[:leaf, 0] == 0).sum())]
    deeper = 6 - rows[leaf, 1]  # the tree has 5 pivots
    rows[leaf, 1] = 6
    return rows, bounds, sizes, ids, np.concatenate([codes, np.zeros(size * deeper, np.uint8)])


@pytest.mark.parametrize(
    "mismatch",
    {
        "rows": _columns_edit(_first_leaf_first),
        "negative fanout": _columns_edit(_a_negative_fanout),
        "ids": _columns_edit(lambda rows, b, sizes, ids, codes: (rows, b, sizes, ids[1:], codes)),
        "codes": _columns_edit(lambda rows, b, sizes, ids, codes: (rows, b, sizes, ids, codes[:-1])),
        "bounds": _columns_edit(lambda rows, bounds, *rest: (rows, bounds[:-1], *rest)),
        "depth": _columns_edit(_a_leaf_past_the_pivots),
        "pivots": _columns_edit(lambda rows, *rest: (rows + [[0, 9]] * (rows[:, :1] > 0), *rest)),
    }.items(),
    ids=lambda item: item[0],
)
def test_packed_columns_that_disagree_raise(mismatch):
    """Each check on the packed columns, alone: the edit leaves every other
    check satisfied."""
    _, damage = mismatch
    state = _packed_mvpt(600).__getstate__()
    damage(state)
    with pytest.raises(ValueError, match="packed MVPT"):
        MVPT.__new__(MVPT).__setstate__(state)


def _one_leaf_deeper(rows, bounds, sizes, ids, codes):
    """A leaf of depth 1, and the code bytes to fill: every count adds up."""
    leaf = int(np.flatnonzero(rows[:, 0] == 0)[0])
    rows[leaf, 1] = 1
    size = sizes[int((rows[:leaf, 0] == 0).sum())]
    return rows, bounds, sizes, ids, np.concatenate([codes, np.zeros(size, np.uint8)])


@pytest.mark.parametrize("tree", ["FQT", "BKT"])
@pytest.mark.parametrize(
    "mismatch",
    {
        "rows": _columns_edit(_first_leaf_first),
        "negative fanout": _columns_edit(_a_negative_fanout),
        "ids": _columns_edit(lambda rows, b, sizes, ids, codes: (rows, b, sizes, ids[1:], codes)),
        "codes": _columns_edit(
            lambda rows, b, sizes, ids, codes: (rows, b, sizes, ids, np.append(codes, 0))
        ),
        "bounds": _columns_edit(lambda rows, bounds, *rest: (rows, bounds[:-1], *rest)),
        "depth": _columns_edit(_one_leaf_deeper),
        "pivots": _columns_edit(
            lambda rows, *rest: (np.where(rows[:, :1] > 0, [[0, 10**6]], [[0, 0]]) + rows, *rest)
        ),
    }.items(),
    ids=lambda item: item[0],
)
def test_packed_fqt_and_bkt_columns_that_disagree_raise(tree, mismatch):
    """The same checks on FQT / BKT columns, whose leaves carry no codes
    and whose BKT keys are pivot ids."""
    _, damage = mismatch
    index = _packed(tree, 600)
    state = index.__getstate__()
    damage(state)
    with pytest.raises(ValueError, match=f"packed {tree}"):
        type(index).__new__(type(index)).__setstate__(state)


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
def test_snapshot_with_list_pages_still_loads(migrated, tmp_path, name):
    """``tests/data/list_pages_*_la300.snap`` (SPB-tree, M-index*, DEPT on
    ``make_la(300, seed=11)``, 5 HFI pivots, seed 3) were written when each
    RAF page was a pickled list of records: object 7 deleted and put back
    twice -- a tombstone on the open page -- and 31 deleted.  They migrate
    and load with no distance computed, every list page a :class:`RafPage`
    and the open record list the open page, answer as brute force does,
    take a delete and a re-insert, and round-trip through ``save_index``
    again."""
    dataset = make_la(300, seed=11)
    index = load_index(migrated(f"list_pages_{name}_la300.snap"))
    assert index.space.counters.distance_computations == 0
    raf = index.raf
    assert len(raf) == 299 and 31 not in raf and 7 in raf
    page_ids = sorted(set(raf._pages[raf._pages >= 0].tolist()))
    assert all(type(index.pager.read(p)) is RafPage for p in page_ids)
    # the pickled open record list came back as the open page
    assert type(raf._open_page) is RafPage and None in raf._open_page.records()
    assert raf._open_page.record(len(raf._open_page) - 1)[0] == 7
    queries = [dataset[5], dataset[31], dataset[200]]
    got, want = _external_answers(index, queries, 900.0, gone={31})
    assert got == want

    # a delete and re-insert of a live id
    old_page, old_slot = raf._where(12)
    open_page, open_slots = raf._open_page_id, len(raf._open_page)
    index.delete(12)
    assert 12 not in raf
    assert type(index.pager.read(old_page)) is RafPage
    assert index.pager.read(old_page).record(old_slot) is None
    assert index.insert(dataset[12], object_id=12) == 12
    assert raf._where(12) == (open_page, open_slots)
    assert type(index.pager.read(open_page)) is RafPage
    assert raf.read(12)[0] == 12
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
def test_snapshot_with_list_leaves_answers_as_written(migrated, tmp_path, name):
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
        path = migrated("list_leaves_omnib_la300.snap")
    else:
        path = migrated(f"list_pages_{name}_la300.snap")
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


# compdists of every query form as written and now, for the scanning tables
# among the fixtures: their one-query MkNNQ was the paper's storage-order
# scan when written, and is the best-first batch body's ``q = 1`` view now
_SCAN_COMPDISTS = {"dept": (726, 582), "cpt": (321, 242)}


@pytest.mark.parametrize("name", ["spbtree", "mindexstar", "omnib", "omnir", "dept"])
def test_snapshot_with_record_pointers_answers_as_written(migrated, tmp_path, name):
    """``tests/data/record_pointers_*_la300.snap`` (SPB-tree, M-index*,
    OmniB+, OmniR-tree and DEPT, written as ``list_pages_*`` were:
    ``make_la(300, seed=11)``, 5 HFI pivots seed 3, 4 KB pages, 7 deleted
    and re-inserted twice, 31 deleted) were written when every index kept an
    ``{id: RecordPointer}`` map and SPB-tree / M-index* leaves held each
    row's RAF page and slot.  They load with no distance computed, the map
    moved into the RAF's locator and the leaves read as key / id columns,
    give the answers and compdists they gave when written, take a delete
    and a re-insert, and round-trip through ``save_index`` again."""
    expected = json.loads((DATA / "record_pointers_la300_expected.json").read_text())[name]
    dataset = make_la(300, seed=11)
    index = load_index(migrated(f"record_pointers_{name}_la300.snap"))
    assert index.space.counters.distance_computations == 0
    assert "_pointers" not in vars(index)
    live = [i for i in range(300) if i != 31]
    assert [i for i in range(-1, 302) if i in index.raf] == live and len(index.raf) == 299
    assert [record[0] for record in index.raf.read_many(live)] == live
    if name in ("spbtree", "mindexstar", "omnib"):
        for tree in _check_btrees(index, name):
            assert all(len(node.columns) == 2 for node in _btree_nodes(tree) if node.is_leaf)
    queries = [dataset[5], dataset[31], dataset[200], dataset[3] * 3.0 + 9000.0]
    got, compdists = _coded_answers(index, queries, expected["radius"], expected["k"])
    assert got == {form: expected[form] for form in got}
    written = expected["compdists"]
    assert (written, compdists) == _SCAN_COMPDISTS.get(name, (written, written))

    index.delete(12)
    with pytest.raises(KeyError):
        index.delete(12)
    assert 12 not in index.raf and index.insert(dataset[12], object_id=12) == 12
    got, want = _external_answers(index, queries[:3], 900.0, gone={31})
    assert got == want

    save_index(index, tmp_path / "again.snap")
    restored = load_index(tmp_path / "again.snap")
    assert restored.space.counters.distance_computations == 0
    assert _external_answers(restored, queries[:3], 900.0, gone={31}) == (got, want)
    assert restored.storage_bytes() == index.storage_bytes()


@pytest.mark.parametrize("name", ["spbtree", "mindexstar"])
def test_v1_snapshot_with_record_pointer_leaves_answers_as_written(migrated, tmp_path, name):
    """``tests/data/pr21_{spbtree,mindexstar}_la300.v1.snap`` were written in
    snapshot format 1 (the whole index one pickle, its page stores' pages
    pickled blobs inside it) by the PR 21 writer: ``make_la(300, seed=11)``,
    5 HFI pivots seed 3, 7 deleted and re-inserted twice, 31 deleted.  Their
    B+-tree leaves are lists of ``(key, (id, RecordPointer))``.  They
    migrate and load with no distance computed, give
    the answers and compdists they gave when written, take a delete and a
    re-insert, and round-trip through ``save_index``."""
    expected = json.loads((DATA / "pr21_raf_la300_expected.json").read_text())[name]
    dataset = make_la(300, seed=11)
    index = load_index(migrated(f"pr21_{name}_la300.v1.snap"))
    assert index.space.counters.distance_computations == 0
    assert "_pointers" not in vars(index)
    live = [i for i in range(300) if i != 31]
    assert [i for i in range(-1, 302) if i in index.raf] == live and len(index.raf) == 299
    _check_btrees(index, name)
    queries = [dataset[5], dataset[31], dataset[200], dataset[3] * 3.0 + 9000.0]
    got, compdists = _coded_answers(index, queries, expected["radius"], expected["k"])
    assert got == {form: expected[form] for form in got}
    assert compdists == expected["compdists"]

    index.delete(12)
    assert index.insert(dataset[12], object_id=12) == 12
    got, want = _external_answers(index, queries[:3], 900.0, gone={31})
    assert got == want
    save_index(index, tmp_path / "again.snap")
    restored = load_index(tmp_path / "again.snap")
    assert _external_answers(restored, queries[:3], 900.0, gone={31}) == (got, want)


def test_a_restored_index_saves_back_over_its_own_snapshot(tmp_path):
    """A restored index's arrays and pages are mapped from its snapshot
    file.  Saving it back to that path truncated the file under the
    mapping before the write read the mapped pages: the write failed
    (``OSError: Bad address``) with the snapshot already lost, and a later
    read of a mapped page killed the process (SIGBUS).  The file is now
    written beside the target and renamed over it, so the old mapping
    keeps its pages."""
    dataset = make_la(600, seed=4)
    space = MetricSpace(dataset, CostCounters())
    index = SPBTree.build(space, select_pivots(MetricSpace(dataset), 5, strategy="hfi", seed=3))
    path = tmp_path / "spb.snap"
    save_index(index, path)
    restored = load_index(path)
    queries = [dataset[5], dataset[400]]
    want = _external_answers(restored, queries, 900.0)
    assert want[0] == want[1]
    restored.delete(5)
    save_index(restored, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spb.snap"]
    # the old mapping still reads, and the new file holds the delete
    assert _external_answers(restored, queries, 900.0, gone={5}) == _external_answers(
        load_index(path), queries, 900.0, gone={5}
    )


# -- M-tree snapshots across the change to columnar nodes ----------------------------


@pytest.mark.parametrize("name", ["pmtree", "cpt", "mtree"])
def test_snapshot_with_entry_nodes_still_loads(migrated, tmp_path, name):
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
    index = load_index(migrated(f"entry_nodes_{name}_la300.snap"))
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
    written = expected["compdists"]
    assert (written, compdists) == _SCAN_COMPDISTS.get(name, (written, written))

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
