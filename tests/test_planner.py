"""Catalog -> planner -> executor: the multi-index serving refactor.

Covers the four load-bearing claims of the routed serving stack:

* the dispatcher's batch groups are index-aware -- two hosted indexes
  never coalesce, even at identical (kind, param);
* the planner's table routes deterministically: each member is explored
  once per (kind, half-octave, single-or-batch) row, then the lowest mean
  wall wins, and ``explain`` marks the member ``route`` picks;
* the catalog keeps members answer-equivalent (registration guards,
  fan-out mutations, whole-catalog snapshots and hot reloads);
* routed answers are bit-for-bit equal to every member's own answers and
  to brute force -- across Euclidean, Hamming, and quadratic-form
  metrics, through mutations and reloads -- and the planner's
  observability surface (explain, stats, metrics, span meta, HTTP)
  reports what routing actually did.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import (
    CostCounters,
    Dataset,
    HammingDistance,
    MetricSpace,
    QuadraticFormDistance,
    brute_force_knn,
    brute_force_range,
    brute_force_range_many,
    make_la,
    make_words,
    select_pivots,
)
from repro.bench.runner import build_index
from repro.obs import MetricsRegistry, tracing
from repro.service import (
    CatalogError,
    HttpQueryServer,
    IndexCatalog,
    MicroBatchDispatcher,
    QueryPlanner,
    QueryService,
    ServiceClient,
    ServiceClientError,
    is_catalog_manifest,
    load_catalog_manifest,
    save_index,
)
from repro.service.planner import row_key

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _build_catalog(dataset, names=("LAESA", "VPT"), n_pivots=4):
    """Each member on its own MetricSpace (the catalog's requirement)."""
    pivots = select_pivots(MetricSpace(dataset), n_pivots, strategy="hfi", seed=3)
    catalog = IndexCatalog()
    for name in names:
        space = MetricSpace(dataset, CostCounters())
        catalog.register(build_index(name, space, pivots, seed=5))
    return catalog


def _hamming_dataset(n=160, dim=32, seed=9):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(n, dim)).astype(np.float64)
    return Dataset(bits, HammingDistance(), name="bits")


def _quadratic_form_dataset(n=160, dim=8, seed=9):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim))
    matrix = m @ m.T + dim * np.eye(dim)
    return Dataset(
        rng.normal(size=(n, dim)), QuadraticFormDistance(matrix), name="qf"
    )


def _moderate_radius(dataset, query_obj, n_results=12):
    """A radius capturing ~n_results objects (raw metric, uncounted)."""
    dists = sorted(dataset.distance(query_obj, dataset[j]) for j in range(len(dataset)))
    return float(dists[n_results])


# ---------------------------------------------------------------------------
# satellite: index-aware dispatcher groups
# ---------------------------------------------------------------------------


def test_dispatcher_never_coalesces_across_hosted_indexes():
    """Two hosted indexes at the same (kind, param) must batch separately:
    a batch is executed by exactly one member, so mixing would hand one
    member's queries to the other."""
    seen = []

    def executor(index_id, kind, param, queries):
        seen.append((index_id, kind, param, len(queries)))
        return [index_id for _ in queries]

    with MicroBatchDispatcher(executor, max_batch_size=8) as d:
        futures = [d.submit("laesa", "range", f"q{i}", 3.0) for i in range(3)]
        futures += [d.submit("mvpt", "range", f"q{i}", 3.0) for i in range(3)]
        answers = [f.result(timeout=5) for f in futures]
    assert answers == ["laesa"] * 3 + ["mvpt"] * 3
    groups = {(index_id, kind, param) for index_id, kind, param, _ in seen}
    assert groups == {("laesa", "range", 3.0), ("mvpt", "range", 3.0)}
    # and every executed batch was homogeneous: 3 queries per index total
    per_index = {"laesa": 0, "mvpt": 0}
    for index_id, _, _, n in seen:
        per_index[index_id] += n
    assert per_index == {"laesa": 3, "mvpt": 3}


# ---------------------------------------------------------------------------
# the planner's table, driven by observe() with synthetic walls
# ---------------------------------------------------------------------------


class TestPlannerTable:
    @staticmethod
    def _planner(names=("LAESA", "VPT", "MVPT")):
        return QueryPlanner(_build_catalog(make_words(120, seed=13), names=names))

    def test_each_member_is_explored_once_per_row_then_the_lowest_mean_wins(self):
        planner = self._planner()
        walls = {"LAESA": 3.0, "VPT": 1.0, "MVPT": 2.0}
        explored = []
        for _ in walls:
            choice = planner.route("range", 4.0)
            explored.append(choice)
            planner.observe(choice, "range", 4.0, 1, 10.0, 0.0, walls[choice])
        assert sorted(explored) == sorted(walls)
        assert planner.stats()["explored"] == 3
        assert [planner.route("range", 4.0) for _ in range(3)] == ["VPT"] * 3
        # the mean ranks, not the last reading: VPT's (1 + 4) / 2 loses to 2
        planner.observe("VPT", "range", 4.0, 1, 10.0, 0.0, 4.0)
        assert planner.route("range", 4.0) == "MVPT"
        assert planner.stats()["explored"] == 3

    def test_a_radius_two_half_octaves_away_is_its_own_row(self):
        planner = self._planner(("LAESA", "VPT"))
        for member_id, wall in (("LAESA", 1.0), ("VPT", 2.0)):
            planner.observe(member_id, "range", 4.0, 1, 10.0, 0.0, wall)
        # 2 log2(4.5) = 4.34 rounds into radius 4's row
        assert row_key("range", 4.5, 1) == row_key("range", 4.0, 1)
        assert planner.route("range", 4.5) == "LAESA"
        # radius 8 is two half-octaves up: unexplored, so round-robin
        assert row_key("range", 8.0, 1) != row_key("range", 4.0, 1)
        assert [planner.route("range", 8.0) for _ in range(2)] == ["LAESA", "VPT"]
        # radius 0 and an unbounded radius have rows of their own
        assert len({row_key("range", r, 1) for r in (0.0, 1.0, math.inf)}) == 3

    def test_a_batch_is_explored_apart_from_a_single_query(self):
        planner = self._planner(("LAESA", "VPT"))
        for member_id, wall in (("LAESA", 1.0), ("VPT", 2.0)):
            planner.observe(member_id, "range", 4.0, 1, 10.0, 0.0, wall)
        assert planner.route("range", 4.0, batch_size=1) == "LAESA"
        assert [planner.route("range", 4.0, batch_size=8) for _ in range(2)] == [
            "LAESA",
            "VPT",
        ]
        # totals arrive per batch and are kept per query
        planner.observe("VPT", "range", 4.0, 8, 80.0, 16.0, 4.0)
        planner.observe("LAESA", "range", 4.0, 8, 40.0, 0.0, 8.0)
        rows = planner.explain("range", 4.0, batch_size=8)
        assert [row["predicted"] for row in rows] == [
            {"compdists": 5.0, "page_reads": 0.0, "wall_ms": 1.0},
            {"compdists": 10.0, "page_reads": 2.0, "wall_ms": 0.5},
        ]
        assert [row["observations"] for row in rows] == [1, 1]
        assert planner.route("range", 4.0, batch_size=8) == "VPT"
        assert planner.route("range", 4.0, batch_size=1) == "LAESA"

    def test_two_planners_fed_the_same_observations_route_the_same(self):
        dataset = make_words(120, seed=13)
        names = ("LAESA", "VPT", "MVPT")
        planners = [QueryPlanner(_build_catalog(dataset, names=names)) for _ in "ab"]
        base = {"LAESA": 1.0, "VPT": 1.2, "MVPT": 0.9}
        shapes = [("range", r, b) for r in (1.0, 2.0, 4.0, 8.0) for b in (1, 6)]
        shapes += [("knn", 5.0, 1), ("knn", 10.0, 6)]
        noise = np.random.default_rng(4).uniform(0.5, 1.5, size=300)
        routes = [[], []]
        for step, factor in enumerate(noise):
            kind, param, batch = shapes[step % len(shapes)]
            for planner, seen in zip(planners, routes):
                choice = planner.route(kind, param, batch)
                seen.append(choice)
                wall = base[choice] * factor * batch
                planner.observe(choice, kind, param, batch, 10.0 * batch, 0.0, wall)
        assert routes[0] == routes[1]
        assert len(set(routes[0])) == 3
        assert planners[0].table == planners[1].table
        for shape in shapes:
            assert planners[0].explain(*shape) == planners[1].explain(*shape)

    def test_explain_marks_the_member_route_will_pick(self):
        """Only LAESA has a cell in the row: MVPT is explored next, and
        ``explain`` must say so."""
        planner = QueryPlanner(_build_catalog(make_la(160, seed=9), ("LAESA", "MVPT")))

        def chosen():
            rows = planner.explain("range", 100.0)
            return [row["index"] for row in rows if row["chosen"]]

        planner.observe("LAESA", "range", 100.0, 1, 30.0, 0.0, 1.0)
        assert chosen() == ["MVPT"] == [planner.route("range", 100.0)]
        # and once both are in, the lower mean wall
        planner.observe("MVPT", "range", 100.0, 1, 40.0, 0.0, 0.5)
        assert chosen() == ["MVPT"] == [planner.route("range", 100.0)]
        planner.observe("MVPT", "range", 100.0, 1, 40.0, 0.0, 3.5)
        assert chosen() == ["LAESA"] == [planner.route("range", 100.0)]


# ---------------------------------------------------------------------------
# catalog membership, fan-out, snapshots
# ---------------------------------------------------------------------------


class TestIndexCatalog:
    def test_register_defaults_and_duplicates(self):
        dataset = make_words(120, seed=13)
        catalog = _build_catalog(dataset)
        assert catalog.ids() == ["LAESA", "VPT"]
        assert len(catalog) == 2
        assert "LAESA" in catalog and "nope" not in catalog
        assert catalog.primary.index_id == "LAESA"
        with pytest.raises(CatalogError, match="already has a member"):
            catalog.register(catalog.get("LAESA"), index_id="LAESA")

    def test_rejects_shared_metric_space(self):
        dataset = make_words(120, seed=13)
        pivots = select_pivots(MetricSpace(dataset), 4, strategy="hfi", seed=3)
        space = MetricSpace(dataset, CostCounters())
        catalog = IndexCatalog()
        catalog.register(build_index("LAESA", space, pivots, seed=5))
        with pytest.raises(CatalogError, match="shares a MetricSpace"):
            catalog.register(build_index("VPT", space, pivots, seed=5), "VPT")

    def test_rejects_mismatched_datasets(self):
        words = make_words(120, seed=13)
        other = make_la(120, seed=13)
        catalog = _build_catalog(words, names=("LAESA",))
        pivots = select_pivots(MetricSpace(other), 4, strategy="hfi", seed=3)
        stray = build_index("VPT", MetricSpace(other, CostCounters()), pivots, seed=5)
        with pytest.raises(CatalogError, match="different dataset"):
            catalog.register(stray, index_id="VPT")

    def test_remove_guards_last_member(self):
        dataset = make_words(120, seed=13)
        catalog = _build_catalog(dataset)
        catalog.remove("VPT")
        assert catalog.ids() == ["LAESA"]
        with pytest.raises(CatalogError, match="last member"):
            catalog.remove("LAESA")
        with pytest.raises(CatalogError, match="no member"):
            catalog.remove("VPT")
        with pytest.raises(CatalogError, match="no member"):
            catalog.member("VPT")

    def test_fanout_insert_and_delete_keep_members_equal(self):
        dataset = make_words(120, seed=13)
        catalog = _build_catalog(dataset)
        new_id = catalog.insert("zzbrandnew")
        for m in catalog.members():
            assert new_id in m.index.range_query("zzbrandnew", 0.0)
        catalog.delete(new_id)
        for m in catalog.members():
            assert m.index.range_query("zzbrandnew", 0.0) == []

    def test_save_load_roundtrip(self, tmp_path):
        dataset = make_words(120, seed=13)
        catalog = _build_catalog(dataset)
        queries = [dataset[i] for i in (0, 7, 23)]
        expected = [catalog.get("LAESA").range_query(q, 4.0) for q in queries]
        manifest = catalog.save(tmp_path / "cat")
        assert manifest.name == "cat.catalog.json"
        assert is_catalog_manifest(manifest)
        assert not is_catalog_manifest(tmp_path / "cat.member00.snap")
        loaded = IndexCatalog.load(manifest)
        assert loaded.ids() == catalog.ids()
        for m in loaded.members():
            # restore must cost zero distance computations
            assert m.counters.distance_computations == 0
        for m in loaded.members():
            assert [m.index.range_query(q, 4.0) for q in queries] == expected

    def test_manifest_validation(self, tmp_path):
        bad = tmp_path / "bad.catalog.json"
        bad.write_text("{not json")
        assert not is_catalog_manifest(bad)
        with pytest.raises(CatalogError, match="cannot read"):
            load_catalog_manifest(bad)
        bad.write_text('{"kind": "something-else"}')
        assert not is_catalog_manifest(bad)
        with pytest.raises(CatalogError, match="not a repro catalog"):
            load_catalog_manifest(bad)
        bad.write_text('{"kind": "repro-catalog", "members": []}')
        with pytest.raises(CatalogError, match="names no catalog members"):
            load_catalog_manifest(bad)
        bad.write_text(
            '{"kind": "repro-catalog", "members": '
            '[{"id": "a", "snapshot": "missing.snap"}]}'
        )
        with pytest.raises(CatalogError, match="missing member snapshot"):
            load_catalog_manifest(bad)


# ---------------------------------------------------------------------------
# planner: routing, calibration, explain
# ---------------------------------------------------------------------------


class TestQueryPlanner:
    def test_single_member_fast_path(self):
        dataset = make_words(120, seed=13)
        catalog = _build_catalog(dataset, names=("LAESA",))
        planner = QueryPlanner(catalog)
        assert planner.route("range", 3.0) == "LAESA"

    def test_forced_exploration_covers_unmodeled_members(self):
        dataset = make_words(120, seed=13)
        catalog = _build_catalog(dataset)
        planner = QueryPlanner(catalog)
        # no observations yet: round-robin over the unmodeled set, which
        # has no costs to show
        assert [planner.route("range", 3.0) for _ in range(4)] == catalog.ids() * 2
        for row in planner.explain("range", 3.0):
            assert row["predicted"] is None and row["observations"] == 0

    def test_calibration_fits_models_and_explains(self):
        dataset = make_words(160, seed=13)
        catalog = _build_catalog(dataset)
        planner = QueryPlanner(catalog)
        recorded = planner.calibrate(radii=[2.0, 5.0], ks=(5,), n_queries=6)
        # 2 members x 3 tasks x 2 batch sizes
        assert recorded == 12
        # the table holds what was measured and extrapolates nothing:
        # radius 3 is a half-octave from either calibrated radius
        assert [row["observations"] for row in planner.explain("range", 3.0)] == [0, 0]
        rows = planner.explain("range", 5.0)
        assert [row["index"] for row in rows] == catalog.ids()
        assert sum(row["chosen"] for row in rows) == 1
        for row in rows:
            assert row["observations"] > 0
            assert row["predicted"] is not None
            for key in ("compdists", "page_reads", "wall_ms"):
                assert row["predicted"][key] >= 0.0
        chosen = next(row["index"] for row in rows if row["chosen"])
        assert planner.route("range", 5.0) == chosen
        stats = planner.stats()
        assert stats["members"] == catalog.ids()
        assert stats["observations"] == 12
        assert stats["routes"] == {chosen: 1}
        assert 0.0 <= stats["mispredict_ratio"] <= 1.0

    def test_calibration_on_a_one_object_dataset(self, tmp_path):
        """No pair of distinct objects to derive radii from: the fallback
        radius, one query, one batch size."""
        dataset = make_la(1, seed=9)
        catalog = _build_catalog(dataset, names=("LAESA", "MVPT"), n_pivots=1)
        planner = QueryPlanner(catalog)
        assert planner.default_radii() == [1.0]
        # 2 members x (1 radius + 1 k) x 1 batch size
        assert planner.calibrate() == 4
        manifest = catalog.save(tmp_path / "one")
        with QueryService.from_snapshot(manifest, use_dispatcher=False) as service:
            assert service.planner.stats()["observations"] == 4
            assert service.range_query(dataset[0], 1.0) == [0]

    def test_route_stamps_span_meta(self):
        dataset = make_words(120, seed=13)
        catalog = _build_catalog(dataset)
        planner = QueryPlanner(catalog)
        planner.calibrate(radii=[3.0], n_queries=4)
        with tracing.start_trace("request") as root:
            choice = planner.route("range", 3.0)
        assert root.meta["planner"]["index"] == choice
        assert root.meta["planner"]["predicted_ms_per_query"] >= 0.0

    def test_metrics_and_mispredict_gauge(self):
        dataset = make_words(120, seed=13)
        catalog = _build_catalog(dataset)
        metrics = MetricsRegistry()
        planner = QueryPlanner(catalog, metrics=metrics)
        planner.calibrate(radii=[3.0], n_queries=4)
        choice = planner.route("range", 3.0)
        rendered = metrics.render()
        assert f'repro_planner_route_total{{index="{choice}"}} 1' in rendered
        assert "repro_planner_mispredict_ratio" in rendered
        assert f'repro_planner_routed_batch_ms_count{{index="{choice}"}}' in rendered
        assert planner.mispredict_ratio() < 1.0
        # an absurd wall time scores as a mispredict against the cell's mean
        planner.observe(choice, "range", 3.0, 1, 50.0, 0.0, 1e6)
        assert planner.mispredict_ratio() > 0.0


# ---------------------------------------------------------------------------
# routed service parity: routed == every member == brute force
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "maker",
    [
        lambda: make_la(160, seed=9),
        _hamming_dataset,
        _quadratic_form_dataset,
    ],
    ids=["euclidean", "hamming", "quadratic-form"],
)
def test_routed_answers_match_members_and_brute_force(maker):
    dataset = maker()
    catalog = _build_catalog(dataset)
    ref_space = MetricSpace(dataset, CostCounters())
    queries = [dataset[i] for i in (0, 7, 23, 41)]
    radius = _moderate_radius(dataset, queries[0])
    with QueryService(catalog=catalog, use_dispatcher=False) as service:
        service.planner.calibrate(radii=[radius], n_queries=4)
        for q in queries:
            routed = service.range_query(q, radius)
            assert routed == brute_force_range(ref_space, q, radius)
            for m in catalog.members():
                assert m.index.range_query(q, radius) == routed
            neighbors = service.knn_query(q, 5)
            assert neighbors == brute_force_knn(ref_space, q, 5)
            for m in catalog.members():
                assert m.index.knn_query(q, 5) == neighbors
        # batched path routes whole miss partitions; answers stay exact
        batch = service.range_query_many(queries, radius)
        assert batch == brute_force_range_many(ref_space, queries, radius)
        # pinning bypasses the planner but never changes the answer
        for member_id in catalog.ids():
            assert service.range_query_many(
                queries, radius, index=member_id
            ) == batch


def test_routed_dispatcher_path_stays_exact():
    """Concurrent single queries through the live dispatcher, planner on."""
    dataset = make_words(160, seed=13)
    catalog = _build_catalog(dataset)
    ref_space = MetricSpace(dataset, CostCounters())
    queries = [dataset[i] for i in (0, 5, 11, 17, 29, 41, 53, 67)]
    expected = {id(q): brute_force_range(ref_space, q, 4.0) for q in queries}
    with QueryService(catalog=catalog, cache_size=0) as service:
        service.planner.calibrate(radii=[4.0], n_queries=4)
        with ThreadPoolExecutor(max_workers=8) as pool:
            answers = list(
                pool.map(
                    lambda q: (id(q), service.range_query(q, 4.0)), queries * 4
                )
            )
        stats = service.stats()
    for marker, answer in answers:
        assert answer == expected[marker]
    assert stats["dispatcher"]["queries"] == len(queries) * 4
    assert sum(stats["planner"]["routes"].values()) > 0
    assert set(stats["members"]) == set(catalog.ids())


def test_mutation_fanout_preserves_parity():
    dataset = make_words(160, seed=13)
    catalog = _build_catalog(dataset, names=("LAESA", "MVPT"))
    with QueryService(catalog=catalog, use_dispatcher=False) as service:
        q = dataset[0]
        before = service.range_query(q, 5.0)
        victim = before[-1]
        service.delete(victim)
        after = service.range_query(q, 5.0)
        assert victim not in after
        for m in catalog.members():
            assert m.index.range_query(q, 5.0) == after
        service.insert(dataset[victim], object_id=victim)
        assert service.range_query(q, 5.0) == before
        for m in catalog.members():
            assert m.index.range_query(q, 5.0) == before
        new_id = service.insert("zzbrandnew")
        assert new_id in service.range_query("zzbrandnew", 0.0)
        for m in catalog.members():
            assert m.index.range_query("zzbrandnew", 0.0) == [new_id]


def test_catalog_snapshot_roundtrip_and_hot_reload(tmp_path):
    dataset = make_words(160, seed=13)
    catalog = _build_catalog(dataset)
    queries = [dataset[i] for i in (0, 7, 23)]
    with QueryService(catalog=catalog, use_dispatcher=False) as service:
        expected = service.range_query_many(queries, 4.0)
        manifest = service.save(tmp_path / "cat")
    with QueryService.from_snapshot(
        manifest, use_dispatcher=False, calibrate=False
    ) as restored:
        assert restored.catalog.ids() == catalog.ids()
        assert restored.range_query_many(queries, 4.0) == expected
        # diverge, then hot reload back to the snapshot state
        victim = expected[0][-1]
        restored.delete(victim)
        assert restored.range_query_many(queries, 4.0) != expected
        info = restored.reload_from_snapshot(manifest)
        assert info.index_class == "IndexCatalog"
        assert restored.range_query_many(queries, 4.0) == expected
        assert restored.reload_generation == 1


def test_from_snapshots_builds_catalog_and_dedupes_ids(tmp_path):
    dataset = make_words(160, seed=13)
    catalog = _build_catalog(dataset, names=("LAESA", "VPT"))
    paths = []
    for i, m in enumerate(catalog.members()):
        paths.append(tmp_path / f"member{i}.snap")
        save_index(m.index, paths[-1])
    # plus a second LAESA restore: same family, id must dedupe
    paths.append(paths[0])
    with QueryService.from_snapshots(
        paths, calibrate=False, use_dispatcher=False
    ) as service:
        assert service.catalog.ids() == ["LAESA", "VPT", "LAESA#2"]
        q = dataset[3]
        expected = catalog.get("LAESA").range_query(q, 4.0)
        for member_id in service.catalog.ids():
            assert service.range_query(q, 4.0, index=member_id) == expected


def test_single_index_service_api_unchanged():
    """``QueryService(index)`` keeps its spelling; since PR 22 it *is* a
    catalog of that one index, so an unknown pin is the catalog's error and
    the stats carry the ``planner`` / ``members`` sections every service has
    (additive keys; everything that was there still is)."""
    dataset = make_words(120, seed=13)
    catalog = _build_catalog(dataset, names=("LAESA",))
    index = catalog.get("LAESA")
    with pytest.raises(ValueError, match="exactly one"):
        QueryService()
    with pytest.raises(ValueError, match="exactly one"):
        QueryService(index, catalog=catalog)
    with QueryService(index, use_dispatcher=False) as service:
        assert service.index is index and service.catalog.ids() == [service.index_id]
        q = dataset[0]
        expected = service.range_query(q, 4.0)
        # pinning the service's own id is allowed; anything else is not
        assert service.range_query(q, 4.0, index=service.index_id) == expected
        with pytest.raises(CatalogError, match="no member 'other'"):
            service.range_query(q, 4.0, index="other")
        stats = service.stats()
        assert set(stats) >= {
            "index", "cache", "distance_computations", "page_accesses", "prune_stages"
        }
        assert stats["planner"]["members"] == list(stats["members"]) == ["LAESA"]
        assert (
            stats["members"]["LAESA"]["distance_computations"]
            == stats["distance_computations"]
            == service.counters.distance_computations
        )


# ---------------------------------------------------------------------------
# HTTP surface: pins, /plan, health members
# ---------------------------------------------------------------------------


def test_http_catalog_surface():
    dataset = make_words(160, seed=13)
    catalog = _build_catalog(dataset)
    service = QueryService(catalog=catalog)
    service.planner.calibrate(radii=[4.0], n_queries=4)
    q = dataset[3]
    with service, HttpQueryServer(service) as server:
        server.start()
        client = ServiceClient(port=server.port)
        assert client.healthz()["members"] == catalog.ids()
        base = client.range_query(q, 4.0)
        for member_id in catalog.ids():
            assert client.range_query(q, 4.0, index=member_id) == base
        with pytest.raises(ServiceClientError) as excinfo:
            client.range_query(q, 4.0, index="nope")
        assert excinfo.value.status == 400
        plan = client.plan(radius=4.0)
        assert {row["index"] for row in plan} == set(catalog.ids())
        assert sum(row["chosen"] for row in plan) == 1
        assert all(row["kind"] == "knn" for row in client.plan(k=5))
        with pytest.raises(ValueError, match="exactly one"):
            client.plan()
        with pytest.raises(ValueError, match="exactly one"):
            client.plan(radius=1.0, k=5)
        stats = client.stats()
        assert "planner" in stats and "members" in stats


def test_http_single_index_rejects_catalog_features():
    """The name is history: until PR 22 a single-index server refused pins
    and ``/plan``.  A single index is a catalog of one now, so over HTTP it
    takes what it takes in-process -- its own id as a pin, ``/plan`` with
    one row, ``members`` in ``/healthz`` -- and still refuses what any
    catalog refuses: an id it does not host."""
    dataset = make_words(120, seed=13)
    catalog = _build_catalog(dataset, names=("LAESA",))
    service = QueryService(catalog.get("LAESA"))
    q = dataset[3]
    with service, HttpQueryServer(service) as server:
        server.start()
        client = ServiceClient(port=server.port)
        health = client.healthz()
        assert health["members"] == [health["index"]] == ["LAESA"]
        base = client.range_query(q, 4.0)
        assert client.range_query(q, 4.0, index="LAESA") == base
        assert client.knn_query_many([q], 3, index="LAESA") == [service.knn_query(q, 3)]
        with pytest.raises(ServiceClientError) as excinfo:
            client.range_query(q, 4.0, index="nope")
        assert excinfo.value.status == 400 and "members: LAESA" in str(excinfo.value)
        (row,) = client.plan(radius=4.0)
        assert row["index"] == "LAESA" and row["chosen"] and row["predicted"] is None
        stats = client.stats()
        assert "planner" in stats and list(stats["members"]) == ["LAESA"]
