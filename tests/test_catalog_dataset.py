"""One dataset per catalog: members share their objects and insert as one.

A catalog's members hold one :class:`~repro.core.dataset.Dataset` object
in memory and on disk: ``register`` binds every member's space to the
primary's dataset (an equal copy is rebound, other objects are refused),
``save`` writes the objects once -- in the primary's file -- and ``load``
resolves every later member's reference to the restored primary's
dataset.  An insert without an id then appends one object that every
member registers under one id, however the catalog was restored.  A
fan-out a member refuses is undone on the members that had applied it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import (
    CostCounters,
    Dataset,
    MetricSpace,
    brute_force_knn,
    brute_force_range,
    load_index,
    make_la,
    make_words,
    save_index,
    select_pivots,
    snapshot_info,
)
from repro.service import (
    CatalogError,
    HttpQueryServer,
    IndexCatalog,
    QueryService,
    ServiceClient,
    SnapshotError,
    iter_components,
)
from repro.service.migrate import migrate
from repro.tables import LAESA
from repro.trees import MVPT

# beside, not among, the single-index fixtures test_migrate.py enumerates
DATA = Path(__file__).parent / "data" / "catalog"
RADIUS = {"LA": 900.0, "Words": 3.0}
NEW = {"LA": np.array([1234.5, -2345.5]), "Words": "zzqxjvbrandnew"}
K = 6
RESTORES = ("load", "service", "plain-files")


def _dataset(name):
    return make_la(300, seed=11) if name == "LA" else make_words(300, seed=11)


def _catalog(dataset):
    """LAESA + MVPT, each on its own space over ``dataset``."""
    pivots = select_pivots(MetricSpace(dataset), 5, strategy="hfi", seed=3)
    catalog = IndexCatalog()
    catalog.register(LAESA.build(MetricSpace(dataset, CostCounters()), pivots))
    catalog.register(MVPT.build(MetricSpace(dataset, CostCounters()), pivots))
    return catalog


def _restore(catalog, how, tmp_path):
    """``(catalog, mutator)``: the catalog restored ``how``, and what an
    insert / delete goes through (the service, when there is one)."""
    if how == "load":
        restored = IndexCatalog.load(catalog.save(tmp_path / "cat"))
        return restored, restored
    if how == "service":
        service = QueryService.from_snapshot(
            catalog.save(tmp_path / "cat"), calibrate=False, use_dispatcher=False
        )
        return service.catalog, service
    paths = []
    for m in catalog.members():
        paths.append(tmp_path / f"{m.index_id}.snap")
        save_index(m.index, paths[-1])
    service = QueryService.from_snapshots(paths, calibrate=False, use_dispatcher=False)
    return service.catalog, service


def _datasets(catalog):
    """Every distinct dataset object a space of any member is over."""
    return {
        id(c.dataset)
        for m in catalog.members()
        for c in iter_components(m.index)
        if isinstance(c, MetricSpace)
    }


def _region_shapes(path) -> list[list[int]]:
    """The shapes of a snapshot's array regions, read from its header."""
    blob = Path(path).read_bytes()
    length = int.from_bytes(blob[8:12], "big")
    return [entry["shape"] for entry in json.loads(blob[12 : 12 + length])["regions"]]


def _assert_brute_force(catalog, queries, radius, gone=()):
    """Every member's MRQ and MkNNQ equal a linear scan of the catalog's
    dataset without ``gone``."""
    dataset = catalog.primary.index.space.dataset
    scan = MetricSpace(dataset)
    for q in queries:
        want_range = [i for i in brute_force_range(scan, q, radius) if i not in gone]
        live = [i for i in range(len(dataset)) if i not in gone]
        sub = MetricSpace(Dataset(dataset.gather(live), dataset.distance))
        want_knn = [(n.distance, live[n.object_id]) for n in brute_force_knn(sub, q, K)]
        for m in catalog.members():
            assert m.index.range_query(q, radius) == want_range, m.index_id
            got = [(n.distance, n.object_id) for n in m.index.knn_query(q, K)]
            assert got == want_knn, m.index_id


@pytest.mark.parametrize("how", RESTORES)
@pytest.mark.parametrize("name", ["LA", "Words"])
def test_a_restored_catalog_inserts_as_one(tmp_path, name, how):
    """However a two-member catalog is restored, its members are over one
    dataset, and a brand-new object inserted without an id gets one id on
    every member and is answered like brute force -- and still is after
    a delete, a save and another load."""
    dataset = _dataset(name)
    restored, mutator = _restore(_catalog(dataset), how, tmp_path)
    assert len(_datasets(restored)) == 1
    new = NEW[name]
    new_id = mutator.insert(new)
    assert new_id == len(dataset)
    assert len(_datasets(restored)) == 1
    queries = [new, dataset[0], dataset[123]]
    radius = RADIUS[name]
    _assert_brute_force(restored, queries, radius)
    for m in restored.members():
        assert m.index.knn_query(new, 1)[0].object_id == new_id, m.index_id

    mutator.delete(new_id)
    _assert_brute_force(restored, queries, radius, gone={new_id})
    again = IndexCatalog.load(restored.save(tmp_path / "again"))
    assert len(_datasets(again)) == 1
    assert [m.counters.distance_computations for m in again.members()] == [0, 0]
    _assert_brute_force(again, queries, radius, gone={new_id})


def test_an_insert_over_http_reaches_every_restored_member(tmp_path):
    """``ServiceClient.insert(obj)`` with no id against a restored
    two-member server: both members, pinned, answer it as the kNN-1."""
    dataset = _dataset("LA")
    manifest = _catalog(dataset).save(tmp_path / "cat")
    service = QueryService.from_snapshot(manifest, calibrate=False)
    with service, HttpQueryServer(service).start() as server:
        client = ServiceClient(port=server.port)
        new_id = client.insert(NEW["LA"])
        assert new_id == len(dataset)
        for member in ("LAESA", "MVPT"):
            hit = client.knn_query(NEW["LA"], 1, index=member)
            assert [(n.object_id, n.distance) for n in hit] == [(new_id, 0.0)]
        client.close()


def test_objects_are_written_once(tmp_path):
    """The primary's file is the plain snapshot of the primary, byte for
    byte; the second member's holds no objects region and refuses to load
    alone, naming its manifest.  Every member still reports the paper's
    per-index storage, its object table included."""
    dataset = _dataset("LA")
    catalog = _catalog(dataset)
    manifest = catalog.save(tmp_path / "cat")
    primary, second = tmp_path / "cat.member00.snap", tmp_path / "cat.member01.snap"
    save_index(catalog.get("LAESA"), tmp_path / "plain.snap")
    assert primary.read_bytes() == (tmp_path / "plain.snap").read_bytes()
    assert [300, 2] in _region_shapes(primary)
    assert [300, 2] not in _region_shapes(second)
    save_index(catalog.get("MVPT"), tmp_path / "alone.snap")
    assert (tmp_path / "alone.snap").stat().st_size - second.stat().st_size >= dataset.nbytes()
    assert snapshot_info(second).n_objects == len(dataset)
    with pytest.raises(SnapshotError, match="cat.catalog.json"):
        load_index(second)
    with pytest.raises(SnapshotError, match="cat.catalog.json"):
        IndexCatalog.load(second)
    loaded = IndexCatalog.load(manifest)
    for m in loaded.members():
        assert m.index.storage_bytes() == catalog.get(m.index_id).storage_bytes()
    # two manifests concatenate: the second's members join the first's dataset
    twice = IndexCatalog.load(manifest, manifest)
    assert twice.ids() == ["LAESA", "MVPT", "LAESA#2", "MVPT#2"]
    assert len(_datasets(twice)) == 1
    assert twice.insert(NEW["LA"]) == len(dataset)
    _assert_brute_force(twice, [NEW["LA"], dataset[3]], RADIUS["LA"])


def test_a_catalog_of_one_keeps_the_plain_bytes(tmp_path):
    dataset = _dataset("LA")
    catalog = _catalog(dataset)
    catalog.remove("MVPT")
    save_index(catalog.get("LAESA"), tmp_path / "plain.snap")
    catalog.save(tmp_path / "one.snap")
    catalog.save(tmp_path / "one.catalog.json")
    plain = (tmp_path / "plain.snap").read_bytes()
    assert (tmp_path / "one.snap").read_bytes() == plain
    assert (tmp_path / "one.member00.snap").read_bytes() == plain


# ---------------------------------------------------------------------------
# register: one dataset, or a CatalogError
# ---------------------------------------------------------------------------


def test_register_refuses_other_objects_of_the_same_count_and_distance():
    ours = _dataset("LA")
    theirs = Dataset(ours.objects + 1.0, ours.distance, name=ours.name)
    catalog = _catalog(ours)
    stray = MVPT.build(MetricSpace(theirs), [0, 1, 2])
    with pytest.raises(CatalogError, match="different dataset"):
        catalog.register(stray, index_id="other")
    words = _dataset("Words")
    shuffled = Dataset(list(reversed(words.objects)), words.distance, name=words.name)
    catalog = _catalog(words)
    with pytest.raises(CatalogError, match="different dataset"):
        catalog.register(MVPT.build(MetricSpace(shuffled), [0, 1, 2]), index_id="other")
    # equal values in another dtype: the members would decode and store
    # an inserted object differently
    whole = Dataset(np.round(ours.objects), ours.distance, name=ours.name)
    as_float32 = Dataset(whole.objects.astype(np.float32), ours.distance, name=ours.name)
    assert np.array_equal(whole.objects, as_float32.objects)
    catalog = _catalog(whole)
    with pytest.raises(CatalogError, match="different dataset"):
        catalog.register(MVPT.build(MetricSpace(as_float32), [0, 1, 2]), index_id="other")


@pytest.mark.parametrize("name", ["LA", "Words"])
def test_register_shares_one_of_two_equal_datasets(name):
    """Two separately built, equal datasets: the second member is accepted
    and left over the first's object, so an insert reaches both."""
    first, second = _dataset(name), _dataset(name)
    assert first is not second
    pivots = select_pivots(MetricSpace(first), 5, strategy="hfi", seed=3)
    catalog = IndexCatalog()
    catalog.register(LAESA.build(MetricSpace(first), pivots))
    catalog.register(MVPT.build(MetricSpace(second), pivots))
    assert catalog.get("MVPT").space.dataset is first
    assert catalog.get("MVPT").space.distance is first.distance
    new_id = catalog.insert(NEW[name])
    _assert_brute_force(catalog, [NEW[name], first[5]], RADIUS[name])
    assert all(m.index.knn_query(NEW[name], 1)[0].object_id == new_id for m in catalog.members())


# ---------------------------------------------------------------------------
# a refused fan-out is undone
# ---------------------------------------------------------------------------


def _refusing(monkeypatch, index, method):
    def refuse(*args, **kwargs):
        raise RuntimeError(f"{method} refused")

    monkeypatch.setattr(index, method, refuse)


@pytest.mark.parametrize("how", RESTORES)
def test_a_refused_insert_is_undone(monkeypatch, tmp_path, how):
    """The second member refuses an insert: the primary deletes the id
    again and the dataset drops the slot it appended, every member answers
    as before the insert, the service's cached answers still equal fresh
    ones, a save writes the objects as they were, and the next insert
    gets the refused one's id."""
    dataset = _dataset("LA")
    restored, mutator = _restore(_catalog(dataset), how, tmp_path)
    new = dataset[7] + 0.5  # inside every cached ball below
    queries = [dataset[7], dataset[100], new]
    cached = None
    if isinstance(mutator, QueryService):
        cached = [mutator.range_query(q, RADIUS["LA"]) for q in queries]
        cached += [mutator.knn_query(q, K) for q in queries]
    _refusing(monkeypatch, restored.get("MVPT"), "insert")
    n = len(dataset)
    with pytest.raises(CatalogError, match="'MVPT' failed after 'LAESA'.*insert refused"):
        mutator.insert(new)
    # the appended slot is dropped again: no orphan object
    assert len(restored.primary.index.space.dataset) == n
    assert all(m.index.space.dataset is restored.primary.index.space.dataset for m in restored)
    _assert_brute_force(restored, queries, RADIUS["LA"])
    if cached is not None:
        again = [mutator.range_query(q, RADIUS["LA"]) for q in queries]
        again += [mutator.knn_query(q, K) for q in queries]
        fresh = [restored.primary.index.range_query(q, RADIUS["LA"]) for q in queries]
        fresh += [restored.primary.index.knn_query(q, K) for q in queries]
        assert again == cached == fresh
    monkeypatch.undo()
    saved = IndexCatalog.load(restored.save(tmp_path / "after"))
    assert len(saved.primary.index.space.dataset) == n
    assert mutator.insert(new) == n
    _assert_brute_force(restored, queries, RADIUS["LA"])
    assert [n] == [hit.object_id for hit in restored.get("MVPT").knn_query(new, 1)]


@pytest.mark.parametrize("how", RESTORES)
def test_a_refused_delete_is_undone(monkeypatch, tmp_path, how):
    """The second member refuses a delete: the primary inserts the object
    back under its id, and nothing a client sees has changed."""
    dataset = _dataset("LA")
    restored, mutator = _restore(_catalog(dataset), how, tmp_path)
    victim = 7
    queries = [dataset[victim], dataset[100]]
    cached = None
    if isinstance(mutator, QueryService):
        cached = [mutator.range_query(q, RADIUS["LA"]) for q in queries]
        cached += [mutator.knn_query(q, K) for q in queries]
    _refusing(monkeypatch, restored.get("MVPT"), "delete")
    with pytest.raises(CatalogError, match="'MVPT' failed after 'LAESA' deleted id 7"):
        mutator.delete(victim)
    _assert_brute_force(restored, queries, RADIUS["LA"])
    if cached is not None:
        again = [mutator.range_query(q, RADIUS["LA"]) for q in queries]
        again += [mutator.knn_query(q, K) for q in queries]
        assert again == cached
    monkeypatch.undo()
    mutator.delete(victim)
    _assert_brute_force(restored, queries, RADIUS["LA"], gone={victim})


def test_an_undo_that_fails_is_named(monkeypatch):
    catalog = _catalog(_dataset("LA"))
    _refusing(monkeypatch, catalog.get("MVPT"), "insert")
    _refusing(monkeypatch, catalog.get("LAESA"), "delete")
    with pytest.raises(CatalogError, match="undoing it failed on 'LAESA'"):
        catalog.insert(NEW["LA"])


# ---------------------------------------------------------------------------
# a catalog saved while every member held its own copy
# ---------------------------------------------------------------------------


def test_a_catalog_saved_with_a_dataset_per_member(tmp_path):
    """``tests/data/catalog/dataset_per_member_la300.*`` (``make_la(300, seed=11)``;
    LAESA + MVPT on 5 HFI pivots, seed 3) was saved while each member's
    file held the objects.  Its LAESA member's table was row-major, which
    only ``repro migrate`` reads; that member migrated, the catalog loads
    into one dataset, answers as recorded, takes a new insert on both
    members, and is saved again with the objects in the primary's file
    only."""
    for path in DATA.glob("dataset_per_member_la300.*"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    member = tmp_path / "dataset_per_member_la300.member00.snap"
    with pytest.raises(SnapshotError, match="repro migrate"):
        IndexCatalog.load(tmp_path / "dataset_per_member_la300.catalog.json")
    migrate(member, member)
    manifest = tmp_path / "dataset_per_member_la300.catalog.json"
    expected = json.loads((DATA / "dataset_per_member_la300_expected.json").read_text())
    catalog = IndexCatalog.load(manifest)
    assert catalog.ids() == ["LAESA", "MVPT"]
    assert len(_datasets(catalog)) == 1
    dataset = catalog.primary.index.space.dataset
    queries = [dataset[i] for i in expected["query_ids"]]
    radius, k = expected["radius"], expected["k"]
    for m in catalog.members():
        assert m.counters.distance_computations == 0
        want = expected[m.index_id]
        assert [m.index.range_query(q, radius) for q in queries] == want["range"]
        got = [[[n.distance, n.object_id] for n in m.index.knn_query(q, k)] for q in queries]
        assert got == want["knn"]
    _assert_brute_force(catalog, queries, radius)
    new_id = catalog.insert(NEW["LA"])
    assert new_id == 300
    _assert_brute_force(catalog, queries + [NEW["LA"]], radius)

    catalog.save(tmp_path / "again")
    assert [300, 2] in _region_shapes(DATA / "dataset_per_member_la300.member01.snap")
    assert _region_shapes(tmp_path / "again.member00.snap")[0] == [301, 2]
    assert [301, 2] not in _region_shapes(tmp_path / "again.member01.snap")
    with pytest.raises(SnapshotError, match="again.catalog.json"):
        load_index(tmp_path / "again.member01.snap")
    again = IndexCatalog.load(tmp_path / "again.catalog.json")
    assert len(_datasets(again)) == 1
    _assert_brute_force(again, queries + [NEW["LA"]], radius)


@pytest.mark.parametrize("name", ["LA", "Words"])
def test_drop_last_is_the_inverse_of_add(name):
    dataset = _dataset(name)
    n = len(dataset)
    new = dataset.add(dataset[3])
    with pytest.raises(ValueError, match="last slot"):
        dataset.drop_last(new - 1)
    dataset.drop_last(new)
    assert len(dataset) == n and dataset.add(dataset[5]) == n
    assert len(dataset) == n + 1
