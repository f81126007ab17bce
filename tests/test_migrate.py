"""``repro migrate``: the one reader of snapshots of an older format or
layout.

Every file in ``tests/data`` was written by an earlier version of the code.
``load_index`` refuses each one in a retired layout and names the migrator;
the migrated file loads with no distance computed and answers as brute
force does, and a second migration changes nothing.  A file in today's
layout loads as it is, and it and a current snapshot migrate losslessly.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import DATA, RADIUS, indexes_for
from repro import (
    CostCounters,
    MetricSpace,
    SnapshotError,
    brute_force_knn,
    brute_force_range,
    load_index,
    save_index,
)
from repro.cli import main
from repro.core.staged import PerObjectStagedPruner
from repro.service.migrate import migrate

# an EPT / EPT* table whose pruner names its state for slots
# (``slot_order``, ``slot_pairs``), saved while that pruner ran a cascade of
# its own and while the table was row-major
SLOT_NAMES = {
    "slot_names_ept_la300.snap": "ept",
    "slot_names_eptstar_la300.snap": "eptstar",
}
# written by the commit before the paged layer stored ids in 4 bytes: an
# int64 RAF locator, int64 id columns on RAF pages and int64 B+-tree leaf
# values; a page decodes by its own kinds, so they load as they are too
INT64_IDS = {
    "int64_ids_mindexstar_la300.snap": "mindexstar",
    "int64_ids_omnib_la300.snap": "omnib",
    "int64_ids_spbtree_la300.snap": "spbtree",
}
FIXTURES = sorted(path.name for path in DATA.glob("*.snap") if path.name not in INT64_IDS)
# the ids each fixture's writer deleted and left deleted; a fixture missing
# here fails, so a new one cannot go unchecked
GONE = {
    "entry_nodes_cpt_la300.snap": (31,),
    "entry_nodes_mtree_la300.snap": (31,),
    "entry_nodes_pmtree_la300.snap": (31,),
    "f64_cells_cpt_la300.snap": (31,),
    "f64_cells_laesa_la300.snap": (31,),
    "list_leaves_omnib_la300.snap": (31,),
    "list_pages_dept_la300.snap": (31,),
    "list_pages_mindexstar_la300.snap": (31,),
    "level_frames_mvpt_la300.snap": (31,),
    "list_pages_spbtree_la300.snap": (31,),
    "node_form_bkt_words300.snap": (31,),
    "node_form_fqt_words300.snap": (31,),
    "pr20_mvpt_la300.snap": (31,),
    "pr20_vpt_la300.snap": (31,),
    "pr21_eptstar_la300.snap": (),
    "pr21_laesa_la300.v1.snap": (),
    "pr21_laesa_reranked_la300.snap": (),
    "pr21_mindexstar_la300.v1.snap": (31,),
    "pr21_spbtree_la300.v1.snap": (31,),
    "pr23_laesa_color64.snap": (31,),
    "record_pointers_dept_la300.snap": (31,),
    "record_pointers_mindexstar_la300.snap": (31,),
    "record_pointers_omnib_la300.snap": (31,),
    "record_pointers_omnir_la300.snap": (31,),
    "record_pointers_spbtree_la300.snap": (31,),
    "row_major_cpt_la300.snap": (31,),
    "row_major_ept_la300.snap": (31,),
    "row_major_laesa_la300.snap": (31,),
    "slot_names_ept_la300.snap": (31,),
    "slot_names_eptstar_la300.snap": (31,),
    "tuple_frames_mvpt_la300.snap": (31,),
    "tuple_frames_vpt_la300.snap": (31,),
    "u32_signatures_fqa_words300.snap": (31,),
}
QUERY_IDS = (0, 7, 31, 40)
K = 6


def _answers(index, queries, radius):
    """MRQ and MkNNQ, one query a call and batched, and their compdists."""
    counters = index.space.counters
    before = counters.snapshot()
    got = (
        [index.range_query(q, radius) for q in queries],
        index.range_query_many(queries, radius),
        [index.knn_query(q, K) for q in queries],
        index.knn_query_many(queries, K),
    )
    return got, (counters.snapshot() - before).distance_computations


def _brute_force(dataset, queries, radius, gone):
    oracle = MetricSpace(dataset, CostCounters())
    ranges = [[i for i in brute_force_range(oracle, q, radius) if i not in gone] for q in queries]
    knns = [
        [n for n in brute_force_knn(oracle, q, K + len(gone)) if n.object_id not in gone][:K]
        for q in queries
    ]
    return ranges, ranges, knns, knns


@pytest.mark.parametrize("name", FIXTURES)
def test_every_fixture_loads_through_migrate_alone(tmp_path, name):
    gone = GONE[name]
    with pytest.raises(SnapshotError, match="repro migrate"):
        load_index(DATA / name)
    assert migrate(DATA / name, tmp_path / "once.snap").space.counters.distance_computations == 0
    once = load_index(tmp_path / "once.snap")
    assert once.space.counters.distance_computations == 0
    # every row table comes out with the int32 row ids a build makes
    assert getattr(once, "_row_ids", np.empty(0, np.int32)).dtype == np.int32
    dataset = once.space.dataset
    queries = [dataset[i] for i in QUERY_IDS]
    radius = RADIUS[dataset.name]
    got, compdists = _answers(once, queries, radius)
    assert got == _brute_force(dataset, queries, radius, gone)

    migrate(tmp_path / "once.snap", tmp_path / "twice.snap")
    twice = load_index(tmp_path / "twice.snap")
    assert _answers(twice, queries, radius) == (got, compdists)
    assert twice.storage_bytes() == once.storage_bytes()


@pytest.mark.parametrize("name", sorted(SLOT_NAMES))
def test_a_slot_named_fixture_answers_as_written(tmp_path, name):
    """``tests/data/slot_names_{ept,eptstar}_la300.snap`` (``make_la(300,
    seed=11)``; 5 slots, seed 3; object 7 deleted and put back, 31 deleted)
    load through ``repro migrate``, at no distance, into the one cascade,
    and answer as brute force and as recorded when they were written, at
    the compdists they cost then; migrating them again changes nothing."""
    expected = json.loads((DATA / "slot_names_la300_expected.json").read_text())
    want = expected[SLOT_NAMES[name]]
    migrate(DATA / name, tmp_path / "once.snap")
    index = load_index(tmp_path / "once.snap")
    assert index.space.counters.distance_computations == 0
    assert isinstance(index.pruner, PerObjectStagedPruner) and index.pruner.use_ptolemaic
    assert set(vars(index.pruner)) == {"slot_order", "prefix", "pair_matrix", "slot_pairs"}
    dataset = index.space.dataset
    queries = [dataset[i] for i in expected["query_ids"]]
    radius, gone = expected["radius"], tuple(expected["gone"])
    assert (radius, expected["k"]) == (RADIUS["LA"], K)
    got, compdists = _answers(index, queries, radius)
    assert got == _brute_force(dataset, queries, radius, gone)
    neighbors = [[[[n.distance, n.object_id] for n in row] for row in form] for form in got[2:]]
    assert (list(got[:2]) + neighbors, compdists) == (
        [want[form] for form in ("range", "range_many", "knn", "knn_many")],
        want["compdists"],
    )
    migrate(tmp_path / "once.snap", tmp_path / "migrated.snap")
    migrated = load_index(tmp_path / "migrated.snap")
    assert _answers(migrated, queries, radius) == (got, compdists)
    assert migrated.storage_bytes() == index.storage_bytes()


def _raf_kinds(index) -> set[str]:
    """The id column kinds of the index's live RAF pages, as stored."""
    pages = set(index.raf._pages[index.raf._pages >= 0].tolist())
    return {index.pager.store.read(page_id).kinds[0] for page_id in pages}


@pytest.mark.parametrize("name", sorted(INT64_IDS))
def test_a_fixture_with_int64_ids_loads_and_takes_int32_pages(tmp_path, name):
    """``tests/data/int64_ids_{spbtree,mindexstar,omnib}_la300.snap``
    (``make_la(300, seed=11)``; 5 HFI pivots, seed 3; object 7 deleted and
    put back, 31 deleted) load with ``load_index`` alone and answer as
    brute force and as recorded when written, at the same compdists; the
    locator narrows to 6 B an id as it loads.  Deletes and re-inserts write
    int32-id pages beside the int64 ones, and the mixed file saves and loads
    again with equal answers and equal stored bytes."""
    expected = json.loads((DATA / "int64_ids_la300_expected.json").read_text())
    want = expected[INT64_IDS[name]]
    index = load_index(DATA / name)
    assert index.space.counters.distance_computations == 0
    raf = index.raf
    assert (raf._pages.dtype, raf._slots.dtype) == (np.int32, np.uint16)
    assert raf.locator_bytes() == 6 * len(raf._pages)
    assert want["written_locator_dtypes"] == ["int64", "int64"]
    written = want["written_storage_bytes"]
    assert index.storage_bytes() == {
        "memory": written["memory"] - 10 * len(raf._pages),
        "disk": written["disk"],
    }
    assert _raf_kinds(index) == {"i"}
    dataset = index.space.dataset
    queries = [dataset[i] for i in expected["query_ids"]]
    radius, gone = expected["radius"], tuple(expected["gone"])
    assert (radius, expected["k"]) == (RADIUS["LA"], K)
    got, compdists = _answers(index, queries, radius)
    assert got == _brute_force(dataset, queries, radius, gone)
    neighbors = [[[[n.distance, n.object_id] for n in row] for row in form] for form in got[2:]]
    assert (list(got[:2]) + neighbors, compdists) == (
        [want[form] for form in ("range", "range_many", "knn", "knn_many")],
        want["compdists"],
    )

    for object_id in range(40, 60):
        index.delete(object_id)
    for object_id in range(40, 50):
        index.insert(dataset[object_id], object_id=object_id)
    gone += tuple(range(50, 60))
    assert _raf_kinds(index) == {"i", "j"}
    got, compdists = _answers(index, queries, radius)
    assert got == _brute_force(dataset, queries, radius, gone)
    save_index(index, tmp_path / "mixed.snap")
    again = load_index(tmp_path / "mixed.snap")
    assert _raf_kinds(again) == {"i", "j"}
    assert _answers(again, queries, radius) == (got, compdists)
    assert again.storage_bytes() == index.storage_bytes()


@pytest.mark.parametrize("index_name", indexes_for("Words"))
def test_migrating_a_current_snapshot_is_lossless(built_indexes, datasets, tmp_path, index_name):
    """Save -> migrate -> load gives what save -> load gives: the same
    answers at the same compdists, and the same stored bytes."""
    save_index(built_indexes("Words", index_name), tmp_path / "plain.snap")
    migrate(tmp_path / "plain.snap", tmp_path / "migrated.snap")
    plain = load_index(tmp_path / "plain.snap")
    migrated = load_index(tmp_path / "migrated.snap")
    queries = [datasets["Words"][i] for i in QUERY_IDS]
    assert _answers(migrated, queries, RADIUS["Words"]) == _answers(plain, queries, RADIUS["Words"])
    assert migrated.storage_bytes() == plain.storage_bytes()


def test_the_cli_migrates_in_place(tmp_path, capsys):
    path = tmp_path / "laesa.snap"
    path.write_bytes((DATA / "pr21_laesa_la300.v1.snap").read_bytes())
    assert main(["migrate", str(path), str(path)]) == 0
    assert "Migrated" in capsys.readouterr().out
    index = load_index(path)
    queries = [index.space.dataset[i] for i in QUERY_IDS]
    got, _ = _answers(index, queries, RADIUS["LA"])
    assert got == _brute_force(index.space.dataset, queries, RADIUS["LA"], ())
