"""One service shape: a single index is a catalog of one.

``QueryService(index)``, ``QueryService(catalog=<that index alone>)``,
``from_snapshot(plain.snap)`` and ``from_snapshot(<one-member manifest>)``
are four spellings of the same service.  These tests hold them to one
behaviour on purpose -- same stats shape, same answers, same compdists as
the bare index, a planner that records nothing -- and pin the defects
the two-shape service had grown (reload errors answered 500 on one shape,
pins and ``/plan`` refused on the other).
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro import (
    CostCounters,
    MetricSpace,
    brute_force_knn,
    brute_force_range,
    load_index,
    make_la,
    save_index,
    select_pivots,
)
from repro.service import (
    CatalogError,
    HttpQueryServer,
    IndexCatalog,
    QueryPlanner,
    QueryService,
    ServiceClient,
    ServiceClientError,
)
from repro.service import planner as planner_module
from repro.service.planner import row_key
from repro.service.service import iter_pruners
from repro.tables import LAESA
from repro.trees import MVPT

DATA = Path(__file__).parent / "data"
RADIUS, K = 700.0, 6
SPELLINGS = ("index", "catalog", "plain-snapshot", "one-member-manifest")


@pytest.fixture(scope="module")
def la():
    return make_la(400, seed=5)


def _build(dataset, family=MVPT):
    space = MetricSpace(dataset, CostCounters())
    return family.build(space, select_pivots(MetricSpace(dataset), 4, strategy="hfi", seed=0))


def _one_member_catalog(dataset, family=MVPT):
    catalog = IndexCatalog()
    catalog.register(_build(dataset, family))
    return catalog


def _service(spelling, dataset, tmp_path, **kwargs):
    if spelling == "index":
        return QueryService(_build(dataset), **kwargs)
    if spelling == "catalog":
        return QueryService(catalog=_one_member_catalog(dataset), **kwargs)
    if spelling == "plain-snapshot":
        save_index(_build(dataset), tmp_path / "plain.snap")
        return QueryService.from_snapshot(tmp_path / "plain.snap", **kwargs)
    manifest = _one_member_catalog(dataset).save(tmp_path / "one.catalog.json")
    assert manifest.name == "one.catalog.json"
    return QueryService.from_snapshot(manifest, **kwargs)


def _queries(dataset, n=12):
    return [dataset[i] for i in range(3, 3 + 7 * n, 7)]


# ---------------------------------------------------------------------------
# the four spellings are one service
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_four_spellings_one_service(la, tmp_path, spelling):
    reference = _build(la)
    bill = reference.space.counters
    queries = _queries(la)
    built = bill.distance_computations
    want_range = reference.range_query_many(queries, RADIUS)
    range_cost = bill.distance_computations - built
    want_knn = reference.knn_query_many(queries, K)
    knn_cost = bill.distance_computations - built - range_cost

    with _service(spelling, la, tmp_path, use_dispatcher=False) as service:
        # wrapping an index computes no distance (its counters keep what the
        # build spent); restoring one starts from a bill of zero
        start = service.stats()["distance_computations"]
        assert start == {"index": built, "catalog": 0}.get(spelling, 0)
        assert service.counters.distance_computations == start
        assert service.catalog.ids() == [service.index_id] == ["MVPT"]
        assert service.index is service.catalog.primary.index
        # answers and compdists are the bare index's, batch for batch ...
        assert service.range_query_many(queries, RADIUS) == want_range
        assert service.stats()["distance_computations"] - start == range_cost
        assert service.knn_query_many(queries, K) == want_knn
        spent = range_cost + knn_cost
        assert service.stats()["distance_computations"] - start == spent
        # ... and query for query: one query per call is served from the
        # cache the batches filled, and costs nothing more
        assert [service.range_query(q, RADIUS) for q in queries] == want_range
        assert [service.knn_query(q, K, index="MVPT") for q in queries] == want_knn
        stats = service.stats()
        assert stats["distance_computations"] - start == spent
        assert stats["cache"]["hits"] == 2 * len(queries)
        # the member sum, the one member, and the service's own counters
        # are the same bill
        assert (
            stats["members"]["MVPT"]["distance_computations"]
            == service.counters.distance_computations
            == start + spent
        )
        # one shape: the same sections whichever spelling built it
        assert set(stats) == {
            "index", "cache", "distance_computations", "page_accesses",
            "prune_stages", "planner", "members",
        }
        # nothing to choose between, so nothing was recorded
        assert stats["planner"]["observations"] == 0
        assert stats["planner"]["routes"] == {"MVPT": 2}


def test_one_member_planner_does_no_model_work(la, monkeypatch):
    """``route`` short-circuits, ``observe`` and ``calibrate`` record
    nothing: no table row is looked up or filled for a catalog of one --
    and both happen from the moment a second member is registered."""
    calls = []

    def spy(*args):
        calls.append(args)
        return row_key(*args)

    monkeypatch.setattr(planner_module, "row_key", spy)
    catalog = _one_member_catalog(la, LAESA)
    planner = QueryPlanner(catalog)
    assert not planner.choosing
    assert planner.calibrate() == 0
    assert catalog.primary.counters.distance_computations == 0
    assert planner.route("range", RADIUS) == "LAESA"
    planner.observe("LAESA", "range", RADIUS, 4, 120.0, 0.0, 1.5)
    assert calls == [] and planner.table == {}
    assert planner.stats()["observations"] == 0
    catalog.register(_build(la))
    assert planner.choosing
    planner.observe("LAESA", "range", RADIUS, 4, 120.0, 0.0, 1.5)
    assert calls == [("range", RADIUS, 4)]
    assert planner.table == {row_key("range", RADIUS, 4): {"LAESA": [1, 30.0, 0.0, 0.375]}}
    assert planner.stats()["observations"] == 1


def test_counters_passed_with_one_index_are_its_bill(la):
    """``counters=`` beside ``index=`` is rebound into the index: the
    service's accumulator and the index's are one object, which is what
    ``service.counters.distance_computations`` readers rely on."""
    index = _build(la, LAESA)
    counters = CostCounters()
    queries = _queries(la, n=4)
    with QueryService(index, counters=counters, use_dispatcher=False) as service:
        assert service.counters is counters is index.space.counters
        assert service.catalog.primary.counters is counters
        service.range_query_many(queries, RADIUS)
        spent = counters.distance_computations
        assert spent > 0 and counters.cache_misses == len(queries)
        assert service.stats()["distance_computations"] == spent
    # without counters= the index's own accumulator keeps the bill
    index = _build(la, LAESA)
    own = index.space.counters
    with QueryService(index, use_dispatcher=False) as service:
        assert service.counters is own is index.space.counters


def test_stats_sum_members_on_every_shape(la):
    catalog = _one_member_catalog(la, LAESA)
    catalog.register(_build(la))
    queries = _queries(la, n=4)
    with QueryService(catalog=catalog, use_dispatcher=False, cache_size=0) as service:
        assert service.index_id == "catalog"
        for member_id in catalog.ids():
            service.range_query_many(queries, RADIUS, index=member_id)
        stats = service.stats()
    shares = [m["distance_computations"] for m in stats["members"].values()]
    assert all(share > 0 for share in shares)
    assert stats["distance_computations"] == sum(shares)
    # cache accounting is the service's, not any one member's
    assert service.counters.distance_computations == 0


# ---------------------------------------------------------------------------
# snapshots: save / load / reload read either form
# ---------------------------------------------------------------------------


def test_catalog_of_one_saves_a_plain_snapshot_or_a_manifest(la, tmp_path):
    with QueryService(_build(la), use_dispatcher=False) as service:
        plain = service.save(tmp_path / "svc.snap")
        manifest = service.save(tmp_path / "svc.catalog.json")
    assert plain == tmp_path / "svc.snap" and load_index(plain).name == "MVPT"
    assert manifest == tmp_path / "svc.catalog.json"
    members = json.loads(manifest.read_text())["members"]
    assert [m["id"] for m in members] == ["MVPT"]
    for path in (plain, manifest):
        loaded = IndexCatalog.load(path)
        assert loaded.ids() == ["MVPT"]
        assert loaded.primary.counters.distance_computations == 0
    # several paths concatenate; colliding ids are told apart
    both = IndexCatalog.load(plain, manifest)
    assert both.ids() == ["MVPT", "MVPT#2"]


@pytest.mark.parametrize("source", ["same-family", "other-family", "manifest"])
def test_reload_under_traffic_resolves_every_request(la, tmp_path, source):
    """Dispatcher groups are keyed by member id, so a plain snapshot --
    even of another index family -- restores *into* the one member: every
    request queued before, during or after the swap resolves, exactly."""
    if source == "manifest":
        path = _one_member_catalog(la).save(tmp_path / "next.catalog.json")
    else:
        path = tmp_path / "next.snap"
        save_index(_build(la, MVPT if source == "same-family" else LAESA), path)
    oracle = MetricSpace(la, CostCounters())
    queries = _queries(la, n=16)
    want = {
        i: (brute_force_range(oracle, q, RADIUS), brute_force_knn(oracle, q, K))
        for i, q in enumerate(queries)
    }
    service = QueryService(_build(la), cache_size=0, max_batch_size=8)
    member_counters = service.catalog.primary.counters
    stop = threading.Event()
    reloads = []

    def reloader():
        while not stop.is_set():
            reloads.append(service.reload_from_snapshot(path))

    def ask(i):
        q = queries[i % len(queries)]
        return i % len(queries), service.range_query(q, RADIUS), service.knn_query(q, K)

    with service:
        swapper = threading.Thread(target=reloader)
        swapper.start()
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                answers = list(pool.map(ask, range(160)))
        finally:
            stop.set()
            swapper.join(timeout=30)
        assert not swapper.is_alive() and reloads
        assert service.reload_generation == len(reloads)
        assert service.catalog.ids() == [service.index_id] == ["MVPT"]
        if source != "manifest":
            # the member kept its id *and* its bill across the swaps
            assert service.catalog.primary.counters is member_counters
            assert service.counters is member_counters
            assert service.index.name == ("MVPT" if source == "same-family" else "LAESA")
            assert reloads[-1].index_name == service.index.name
            assert service.stats()["distance_computations"] > 0
    assert [(i, r, k) for i, r, k in answers] == [
        (i, want[i][0], want[i][1]) for i, _, _ in answers
    ]


def test_reload_between_batch_set_up_and_evaluation_caches_nothing_stale(la, tmp_path):
    """A batch binds its member's index *after* it captures the cache
    generation.  The other order let a reload that landed between the two
    steps hand the batch the old index and the new generation, and the
    stale answer was cached as the new index's."""
    small = la.subset(range(200))
    q = la[7]
    want_small = brute_force_range(MetricSpace(small, CostCounters()), q, RADIUS)
    want_large = brute_force_range(MetricSpace(la, CostCounters()), q, RADIUS)
    assert want_small != want_large
    save_index(_build(la), tmp_path / "large.snap")
    with QueryService(_build(small), use_dispatcher=False) as service:
        capture = service.cache.generation

        def reload_then_capture(index_id):
            service.cache.generation = capture  # once
            service.reload_from_snapshot(tmp_path / "large.snap")
            return capture(index_id)

        service.cache.generation = reload_then_capture
        first = service.range_query(q, RADIUS)
        assert service.reload_generation == 1
        assert service.range_query(q, RADIUS) == first == want_large


def test_plain_snapshot_cannot_replace_several_members(la, tmp_path):
    catalog = _one_member_catalog(la, LAESA)
    catalog.register(_build(la))
    save_index(_build(la), tmp_path / "plain.snap")
    with QueryService(catalog=catalog, use_dispatcher=False) as service:
        with pytest.raises(CatalogError, match="not a catalog manifest"):
            service.reload_from_snapshot(tmp_path / "plain.snap")
        assert service.reload_generation == 0
        assert service.catalog.ids() == ["LAESA", "MVPT"]


# ---------------------------------------------------------------------------
# snapshots written before the pruner lost its re-ranking state
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["pr21_laesa_reranked_la300.snap", "pr21_eptstar_la300.snap"]
)
def test_snapshot_with_retired_pruner_state_still_loads(migrated, name):
    """Written by PR 21: the LAESA pruner had been switched to online
    re-ranking and driven through eight re-ranks (``adaptive``,
    ``decided_counts``, ``rerank_interval``, ``reranks`` in its pickle),
    EPT* carries the per-object pruner of that commit.  Both load with no
    distance computed, keep the order they were saved with, and answer
    what that commit answered."""
    expected = json.loads((DATA / "pr21_la300_expected.json").read_text())
    counters = CostCounters()
    index = load_index(migrated(name), counters=counters)
    assert counters.distance_computations == 0
    ((_, pruner),) = iter_pruners(index)
    if index.name == "LAESA":
        # the retired bookkeeping rides along as inert attributes
        assert vars(pruner)["adaptive"] is True and vars(pruner)["reranks"] == 8
        assert [int(i) for i in pruner.order] == expected["reranked_order"]
    assert set(pruner.stats()) == {"ptolemaic", "prefix", "order", "n_pairs"}
    dataset = make_la(300, seed=11)
    queries = [dataset[i] for i in expected["query_ids"]]
    order_before = pruner.stats()["order"]
    assert index.range_query_many(queries, expected["radius"]) == expected["range"]
    assert [index.range_query(q, expected["radius"]) for q in queries] == expected["range"]
    assert [
        [[n.distance, n.object_id] for n in answer]
        for answer in index.knn_query_many(queries, expected["k"])
    ] == expected["knn"]
    assert pruner.stats()["order"] == order_before  # traffic re-ranks nothing
    # and it serves, snapshots and restores like any other index
    with QueryService(index, use_dispatcher=False) as service:
        assert service.range_query_many(queries, expected["radius"]) == expected["range"]


# ---------------------------------------------------------------------------
# HTTP: one surface for one member or several
# ---------------------------------------------------------------------------


def _http_service(n_members, dataset):
    catalog = _one_member_catalog(dataset, LAESA)
    if n_members == 2:
        catalog.register(_build(dataset))
        return QueryService(catalog=catalog)
    return QueryService(catalog.primary.index)


@pytest.mark.parametrize("n_members", [1, 2])
def test_http_surface_is_the_same_for_one_member_or_two(la, n_members):
    service = _http_service(n_members, la)
    q = la[9]
    with service, HttpQueryServer(service).start() as server:
        client = ServiceClient(port=server.port)
        members = client.healthz()["members"]
        assert members == service.catalog.ids() and len(members) == n_members
        base = client.range_query(q, RADIUS)
        for member_id in members:
            # a hosted member's id pins over the wire exactly as in-process
            assert client.range_query(q, RADIUS, index=member_id) == base
            assert service.range_query(q, RADIUS, index=member_id) == base
        with pytest.raises(ServiceClientError) as excinfo:
            client.knn_query(q, K, index="nope")
        assert excinfo.value.status == 400
        with pytest.raises(CatalogError):
            service.knn_query(q, K, index="nope")
        plan = client.plan(k=K)
        assert [row["index"] for row in plan] == members
        # one row is chosen, the member a k-NN query would be routed to next
        # (with two members: the first one no k-NN query has explored yet)
        (chosen,) = [row["index"] for row in plan if row["chosen"]]
        assert chosen == service.planner.route("knn", K) == members[0]
        stats = client.stats()
        assert stats["planner"]["members"] == list(stats["members"]) == members
        assert stats["distance_computations"] == sum(
            m["distance_computations"] for m in stats["members"].values()
        )


@pytest.mark.parametrize("n_members", [1, 2])
def test_reload_of_a_bad_path_is_a_400_on_every_service(la, tmp_path, n_members):
    """``/admin/reload`` refuses what it cannot restore with 400 and the
    reason -- a ``CatalogError`` is the caller's mistake exactly like a
    ``SnapshotError`` -- and keeps serving what it had."""
    junk = tmp_path / "junk.snap"
    junk.write_bytes(b"NOTASNAP" + b"\x00" * 32)
    dangling = tmp_path / "dangling.catalog.json"
    dangling.write_text(
        '{"kind": "repro-catalog", "members": [{"id": "a", "snapshot": "gone.snap"}]}'
    )
    bad = {
        str(tmp_path / "missing.snap"): ("No such file", "not a catalog manifest"),
        str(tmp_path / "missing.catalog.json"): ("No such file", "not a catalog manifest"),
        str(junk): ("bad magic", "not a catalog manifest"),
        str(dangling): ("missing member snapshot",) * 2,
    }
    if n_members == 2:
        # a sound snapshot of one index cannot stand in for two members
        save_index(_build(la), tmp_path / "plain.snap")
        bad[str(tmp_path / "plain.snap")] = ("", "not a catalog manifest")
    service = _http_service(n_members, la)
    q = la[9]
    with service, HttpQueryServer(service).start() as server:
        client = ServiceClient(port=server.port)
        expected = client.range_query(q, RADIUS)
        for path, reasons in bad.items():
            with pytest.raises(ServiceClientError) as excinfo:
                client.reload(path)
            assert excinfo.value.status == 400, (path, str(excinfo.value))
            assert "cannot reload" in str(excinfo.value)
            assert reasons[n_members - 1] in str(excinfo.value)
        health = client.healthz()
        assert health["reload_generation"] == 0 and health["snapshot"] is None
        assert health["members"] == service.catalog.ids()
        assert client.range_query(q, RADIUS) == expected
        # and a good path of the right form still reloads
        good = service.save(tmp_path / "good.snap")
        assert client.reload(good)["objects"] == len(la)
        assert client.healthz()["reload_generation"] == 1
        assert client.range_query(q, RADIUS) == expected
