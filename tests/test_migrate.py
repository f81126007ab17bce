"""``repro migrate``: the one reader of snapshots of an older format or
layout.

Every file in ``tests/data`` was written by an earlier version of the code.
``load_index`` refuses each one and names the migrator; the migrated file
loads with no distance computed and answers as brute force does, and a
second migration changes nothing.  A current snapshot migrates losslessly.
"""

from __future__ import annotations

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
from repro.service.migrate import migrate

FIXTURES = sorted(path.name for path in DATA.glob("*.snap"))
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
