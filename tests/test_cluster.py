"""Multi-process cluster layer: split snapshots, remote members, supervisor.

Covers the tentpole contracts:

* ``ShardedIndex.split()`` parts answer in global ids and reassemble via
  ``merge`` / the static merge helpers bit-for-bit;
* ``save_split`` / ``load_cluster_manifest`` / ``split_snapshot`` write
  and validate the per-shard snapshot set ``repro cluster`` consumes;
* shard-mode scatter-gather answers are bit-for-bit the single-process
  ``ShardedIndex`` answers for MRQ and MkNNQ, over both wire codecs;
* replica mode load-balances least-in-flight, survives a backend killed
  mid-burst (answers stay exact, the dead backend is marked down, a
  restart on the same port is marked back up);
* a dead shard is a clear 503 naming the missing shard id;
* rolling ``POST /admin/reload`` swaps every backend with zero downtime
  for concurrent readers;
* bearer-token auth guards mutation/admin paths at the router edge and
  is forwarded to the backends;
* ``ClusterSupervisor`` spawns real backend processes from a split
  snapshot set and drains them cleanly.
"""

from __future__ import annotations

import json
import threading

import pytest

from conftest import RADIUS
from repro import (
    CostCounters,
    MetricSpace,
    QueryService,
    save_index,
    select_pivots,
)
from repro.cli import main
from repro.core.sharded import ShardedIndex
from repro.service.cluster import (
    ClusterError,
    ClusterIndex,
    ClusterSupervisor,
    load_cluster_manifest,
    save_split,
    split_snapshot,
)
from repro.service.http import HttpQueryServer, ServiceClient, ServiceClientError
from repro.tables import LAESA

K = 5
N_SHARDS = 3


def _build_shard(space):
    return LAESA.build(space, select_pivots(space, 3, strategy="hfi", seed=0))


def _sharded_words(datasets, n=200, n_shards=N_SHARDS):
    dataset = datasets["Words"].subset(range(n))
    space = MetricSpace(dataset, CostCounters())
    return dataset, ShardedIndex.build(space, _build_shard, n_shards=n_shards, seed=1)


def _serve(index, port=0, **service_kwargs):
    service = QueryService(index, cache_size=0, use_dispatcher=False, **service_kwargs)
    return HttpQueryServer(service, port=port).start()


def _router(backends, mode, metrics=None, auth_token=None):
    """The router: the one HTTP front-end over a ``ClusterIndex`` of the
    backends (prober off: tests drive membership with ``probe_now``, so
    nothing is timing-dependent)."""
    topology = ClusterIndex(
        [(b.host, b.port) for b in backends],
        mode=mode,
        probe_interval_s=0,
        metrics=metrics,
        auth_token=auth_token,
    )
    service = QueryService(topology, cache_size=0, use_dispatcher=False)
    return HttpQueryServer(service, metrics=metrics, auth_token=auth_token).start()


def _probe_now(router):
    router.service.index.probe_now()


@pytest.fixture
def shard_cluster(datasets):
    """3 shard backends behind a shard-mode router."""
    dataset, sharded = _sharded_words(datasets)
    backends = [_serve(part) for part in sharded.split()]
    router = _router(backends, "shard")
    yield dataset, sharded, backends, router
    router.close()
    for backend in backends:
        backend.close()


@pytest.fixture
def replica_cluster(datasets):
    """2 full replicas (independent index instances) behind a replica router."""
    dataset = datasets["Words"].subset(range(150))
    indexes = [
        _build_shard(MetricSpace(dataset.subset(range(len(dataset))), CostCounters()))
        for _ in range(2)
    ]
    backends = [_serve(index) for index in indexes]
    router = _router(backends, "replica")
    yield dataset, indexes, backends, router
    router.close()
    for backend in backends:
        backend.close()


# ---------------------------------------------------------------------------
# split / merge / manifests
# ---------------------------------------------------------------------------


def test_split_parts_answer_global_ids_and_merge_roundtrip(datasets):
    dataset, sharded = _sharded_words(datasets)
    radius = RADIUS["Words"]
    queries = [dataset[i] for i in range(6)]
    parts = sharded.split()
    assert len(parts) == N_SHARDS
    for q in queries:
        per_part_range = [part.range_query(q, radius) for part in parts]
        assert ShardedIndex.merge_range_answers(per_part_range) == (
            sharded.range_query(q, radius)
        )
        per_part_knn = [part.knn_query(q, K) for part in parts]
        assert ShardedIndex.merge_knn_answers(per_part_knn, K) == (
            sharded.knn_query(q, K)
        )
    merged = ShardedIndex.merge(sharded.space, parts)
    assert merged.range_query_many(queries, radius) == (
        sharded.range_query_many(queries, radius)
    )
    assert merged.knn_query_many(queries, K) == sharded.knn_query_many(queries, K)


def test_merge_rejects_non_covering_parts(datasets):
    _, sharded = _sharded_words(datasets)
    parts = sharded.split()
    with pytest.raises(ValueError, match="disjointly cover"):
        ShardedIndex.merge(sharded.space, parts[:-1])  # one shard missing
    with pytest.raises(ValueError, match="disjointly cover"):
        ShardedIndex.merge(sharded.space, parts + parts[:1])  # duplicated ids


def test_save_split_writes_per_shard_snapshots_and_manifest(datasets, tmp_path):
    dataset, sharded = _sharded_words(datasets)
    manifest_path = save_split(sharded, tmp_path / "words.snap")
    assert manifest_path == tmp_path / "words.cluster.json"
    manifest = load_cluster_manifest(manifest_path)
    assert manifest["kind"] == "repro-cluster"
    assert manifest["n_objects"] == len(dataset)
    assert len(manifest["shards"]) == N_SHARDS
    assert sum(s["objects"] for s in manifest["shards"]) == len(dataset)
    # the resolved per-shard snapshots restore parts that reproduce the
    # single-process answers through the shared merge helpers
    from repro import load_index

    parts = [load_index(s["snapshot"]) for s in manifest["shards"]]
    q, radius = dataset[0], RADIUS["Words"]
    assert ShardedIndex.merge_range_answers(
        [p.range_query(q, radius) for p in parts]
    ) == sharded.range_query(q, radius)
    assert ShardedIndex.merge_knn_answers(
        [p.knn_query(q, K) for p in parts], K
    ) == sharded.knn_query(q, K)


def test_split_snapshot_roundtrip_and_rejections(datasets, tmp_path):
    dataset, sharded = _sharded_words(datasets, n=120)
    whole = tmp_path / "whole.snap"
    save_index(sharded, whole)
    manifest_path = split_snapshot(whole, tmp_path / "split" / "words.snap")
    assert load_cluster_manifest(manifest_path)["index"] == sharded.name

    # a non-sharded snapshot cannot be split
    flat = tmp_path / "flat.snap"
    save_index(_build_shard(MetricSpace(dataset, CostCounters())), flat)
    with pytest.raises(ClusterError, match="ShardedIndex"):
        split_snapshot(flat, tmp_path / "nope.snap")
    # save_split checks its input type too
    with pytest.raises(ClusterError, match="ShardedIndex"):
        save_split(object(), tmp_path / "nope.snap")


def test_load_cluster_manifest_rejects_bad_files(tmp_path):
    missing = tmp_path / "missing.cluster.json"
    with pytest.raises(ClusterError, match="cannot read"):
        load_cluster_manifest(missing)
    junk = tmp_path / "junk.cluster.json"
    junk.write_text("{not json")
    with pytest.raises(ClusterError, match="cannot read"):
        load_cluster_manifest(junk)
    wrong_kind = tmp_path / "other.cluster.json"
    wrong_kind.write_text(json.dumps({"kind": "something-else"}))
    with pytest.raises(ClusterError, match="not a repro cluster manifest"):
        load_cluster_manifest(wrong_kind)
    dangling = tmp_path / "dangling.cluster.json"
    dangling.write_text(
        json.dumps(
            {"kind": "repro-cluster", "shards": [{"snapshot": "nowhere.snap"}]}
        )
    )
    with pytest.raises(ClusterError, match="missing shard snapshot"):
        load_cluster_manifest(dangling)


# ---------------------------------------------------------------------------
# shard mode: scatter-gather exactness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("binary", [False, True], ids=["json", "binary"])
def test_shard_router_bit_for_bit_vs_sharded_index(shard_cluster, binary):
    dataset, sharded, backends, router = shard_cluster
    radius = RADIUS["Words"]
    queries = [dataset[i] for i in range(8)]
    want_range = sharded.range_query_many(queries, radius)
    want_knn = sharded.knn_query_many(queries, K)
    with ServiceClient(router.host, router.port, binary=binary) as client:
        assert client.range_query_many(queries, radius) == want_range
        assert client.knn_query_many(queries, K) == want_knn
        assert client.range_query(queries[0], radius) == want_range[0]
        assert client.knn_query(queries[0], K) == want_knn[0]
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["role"] == "router"
        assert health["live_backends"] == list(range(N_SHARDS))


def test_shard_router_rejects_bad_requests(shard_cluster):
    dataset, sharded, backends, router = shard_cluster
    with ServiceClient(router.host, router.port) as client:
        with pytest.raises(ServiceClientError, match="404"):
            client._request("POST", "/no/such", {})
        with pytest.raises(ServiceClientError, match="400"):
            client.knn_query(dataset[0], 0)
        with pytest.raises(ServiceClientError, match="400"):
            client._request("POST", "/range", {"radius": 2.0})  # no query


def test_shard_mode_mutations_are_501(shard_cluster):
    dataset, sharded, backends, router = shard_cluster
    with ServiceClient(router.host, router.port) as client:
        for call in (lambda: client.insert(dataset[0]), lambda: client.delete(3)):
            with pytest.raises(ServiceClientError) as excinfo:
                call()
            assert excinfo.value.status == 501


def test_dead_shard_is_clear_503_then_recovers(shard_cluster):
    dataset, sharded, backends, router = shard_cluster
    radius = RADIUS["Words"]
    q = dataset[0]
    expected = sharded.range_query(q, radius)
    victim_port = backends[1].port
    victim_part = backends[1].service.index
    with ServiceClient(router.host, router.port) as client:
        assert client.range_query(q, radius) == expected
        backends[1].close()
        _probe_now(router)
        with pytest.raises(ServiceClientError) as excinfo:
            client.range_query(q, radius)
        assert excinfo.value.status == 503
        assert "1" in str(excinfo.value)  # the missing shard is named
        health = client.healthz()
        assert health["status"] == "degraded"
        assert health["live_backends"] == [0, 2]
        # restart the shard on the same port: the next probe readmits it
        backends[1] = _serve(victim_part, port=victim_port)
        _probe_now(router)
        assert client.healthz()["status"] == "ok"
        assert client.range_query(q, radius) == expected


# ---------------------------------------------------------------------------
# replica mode: balancing + failover
# ---------------------------------------------------------------------------


def test_replica_router_balances_and_matches(replica_cluster):
    dataset, indexes, backends, router = replica_cluster
    radius = RADIUS["Words"]
    queries = [dataset[i] for i in range(8)]
    want = indexes[0].range_query_many(queries, radius)
    want_knn = indexes[0].knn_query_many(queries, K)
    with ServiceClient(router.host, router.port, binary=True) as client:
        for _ in range(4):
            assert client.range_query_many(queries, radius) == want
        assert client.knn_query_many(queries, K) == want_knn
        served = [b["served"] for b in client.stats()["backends"]]
        assert all(s > 0 for s in served), served  # both replicas took traffic


def test_replica_failover_kill_mid_burst_then_rejoin(replica_cluster):
    dataset, indexes, backends, router = replica_cluster
    radius = RADIUS["Words"]
    queries = [dataset[i] for i in range(8)]
    expected = [indexes[0].range_query(q, radius) for q in queries]
    victim_port = backends[0].port
    victim_index = backends[0].service.index
    with ServiceClient(router.host, router.port) as client:
        assert client.range_query(queries[0], radius) == expected[0]
        # kill one replica mid-burst: every answer stays bit-for-bit (the
        # router retries the idempotent query on the surviving replica)
        backends[0].close()
        for i, q in enumerate(queries * 3):
            assert client.range_query(q, radius) == expected[i % len(queries)]
        _probe_now(router)
        health = client.healthz()
        assert health["status"] == "ok"  # degraded capacity, still serving
        assert health["live_backends"] == [1]
        stats = client.stats()
        dead = next(b for b in stats["backends"] if b["backend"] == 0)
        assert dead["up"] is False and dead["markdowns"] >= 1
        # restart on the same port: the probe marks it back up and it
        # serves again
        backends[0] = _serve(victim_index, port=victim_port)
        _probe_now(router)
        assert client.healthz()["live_backends"] == [0, 1]
        for _ in range(6):
            assert client.range_query(queries[0], radius) == expected[0]
        served = [b["served"] for b in client.stats()["backends"]]
        assert all(s > 0 for s in served), served


def test_all_replicas_down_is_503(replica_cluster):
    dataset, indexes, backends, router = replica_cluster
    for backend in backends:
        backend.close()
    _probe_now(router)
    with ServiceClient(router.host, router.port) as client:
        assert client.healthz()["status"] == "unavailable"
        with pytest.raises(ServiceClientError) as excinfo:
            client.range_query(dataset[0], RADIUS["Words"])
        assert excinfo.value.status == 503


def test_replica_mutations_fan_out_to_all(replica_cluster):
    dataset, indexes, backends, router = replica_cluster
    radius = RADIUS["Words"]
    victim = 3
    q = dataset[victim]  # distance 0 to itself: victim is in its own ball
    with ServiceClient(router.host, router.port) as client:
        # auto-assigned ids would diverge across replicas: explicit id only
        with pytest.raises(ServiceClientError) as excinfo:
            client.insert(q)
        assert excinfo.value.status == 400
        # the paper's update pattern, fanned out: delete then re-register
        # under the same slot, visible on *every* replica at each step
        client.delete(victim)
        for backend in backends:
            with ServiceClient(backend.host, backend.port) as direct:
                assert victim not in direct.range_query(q, radius)
        assert client.insert(q, object_id=victim) == victim
        for backend in backends:
            with ServiceClient(backend.host, backend.port) as direct:
                assert victim in direct.range_query(q, radius)
        # a mutation with a replica down would fork the set: refused
        backends[1].close()
        _probe_now(router)
        with pytest.raises(ServiceClientError) as excinfo:
            client.delete(victim)
        assert excinfo.value.status == 503
        assert "replica" in str(excinfo.value)


# ---------------------------------------------------------------------------
# rolling reload
# ---------------------------------------------------------------------------


def test_rolling_reload_zero_downtime(datasets, tmp_path):
    """Swap both replicas to a larger snapshot while readers hammer the
    router: no reader ever sees an error, and afterwards every answer is
    the new snapshot's."""
    small = datasets["Words"].subset(range(80))
    large = datasets["Words"].subset(range(200))
    index_small = _build_shard(MetricSpace(small, CostCounters()))
    index_large = _build_shard(MetricSpace(large, CostCounters()))
    path_small = tmp_path / "small.snap"
    path_large = tmp_path / "large.snap"
    save_index(index_small, path_small)
    save_index(index_large, path_large)
    radius = RADIUS["Words"]
    q = small[0]
    before = index_small.range_query(q, radius)
    after = index_large.range_query(q, radius)
    assert before != after, "fixture subsets too similar to distinguish"

    backends = [
        HttpQueryServer(
            QueryService.from_snapshot(path_small, cache_size=0, use_dispatcher=False)
        ).start()
        for _ in range(2)
    ]
    router = _router(backends, "replica")
    try:
        errors: list[Exception] = []
        stop = threading.Event()

        def hammer():
            with ServiceClient(router.host, router.port) as c:
                while not stop.is_set():
                    try:
                        answer = c.range_query(q, radius)
                    except Exception as exc:  # any error = downtime
                        errors.append(exc)
                        return
                    assert answer in (before, after)

        readers = [threading.Thread(target=hammer) for _ in range(2)]
        for t in readers:
            t.start()
        with ServiceClient(router.host, router.port) as client:
            out = client.reload(path_large)
            assert [r["backend"] for r in out["backends"]] == [0, 1]
            assert all(r["objects"] == 200 for r in out["backends"])
            stop.set()
            for t in readers:
                t.join(timeout=20)
            assert not errors, errors
            assert client.range_query(q, radius) == after
            assert client.healthz()["live_backends"] == [0, 1]
    finally:
        stop.set()
        router.close()
        for backend in backends:
            backend.close()


# ---------------------------------------------------------------------------
# auth: router edge + end-to-end forwarding
# ---------------------------------------------------------------------------


def test_router_auth_guards_edge_and_forwards_to_backends(datasets):
    dataset = datasets["Words"].subset(range(100))
    token = "cluster-secret"
    indexes = [
        _build_shard(MetricSpace(dataset.subset(range(len(dataset))), CostCounters()))
        for _ in range(2)
    ]
    backends = [
        HttpQueryServer(
            QueryService(index, cache_size=0, use_dispatcher=False), auth_token=token
        ).start()
        for index in indexes
    ]
    router = _router(backends, "replica", auth_token=token)
    try:
        radius = RADIUS["Words"]
        victim = 0
        q = dataset[victim]
        with ServiceClient(router.host, router.port) as anon:
            # queries and observability stay open without credentials
            assert anon.range_query(q, radius) == indexes[0].range_query(q, radius)
            assert anon.healthz()["status"] == "ok"
            # mutations are refused at the router's edge
            with pytest.raises(ServiceClientError) as excinfo:
                anon.delete(victim)
            assert excinfo.value.status == 401
        with ServiceClient(router.host, router.port, auth_token="wrong") as bad:
            with pytest.raises(ServiceClientError) as excinfo:
                bad.delete(victim)
            assert excinfo.value.status == 401
        with ServiceClient(router.host, router.port, auth_token=token) as ok:
            # the credential is forwarded, so the token-guarded *backends*
            # accept the fanned-out mutation too
            ok.delete(victim)
            assert victim not in ok.range_query(q, radius)
            assert ok.insert(q, object_id=victim) == victim
            assert victim in ok.range_query(q, radius)
    finally:
        router.close()
        for backend in backends:
            backend.close()


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------


def test_router_stats_shape_and_metrics(datasets):
    from repro.obs.metrics import MetricsRegistry

    dataset, sharded = _sharded_words(datasets, n=120)
    registry = MetricsRegistry()
    backends = [_serve(part) for part in sharded.split()]
    router = _router(backends, "shard", metrics=registry)
    try:
        with ServiceClient(router.host, router.port) as client:
            client.range_query(dataset[0], RADIUS["Words"])
            stats = client.stats()
            assert stats["role"] == "router" and stats["mode"] == "shard"
            assert stats["http"]["served"] >= 1
            for row in stats["backends"]:
                assert set(row) >= {
                    "backend",
                    "address",
                    "up",
                    "inflight",
                    "served",
                    "markdowns",
                    "connections_opened",
                    "retries",
                    "pooled",
                }
                assert row["up"] is True and row["served"] >= 1
        rendered = registry.render()
        assert "repro_router_fanout_ms" in rendered
        assert "repro_router_backend_up" in rendered
    finally:
        router.close()
        for backend in backends:
            backend.close()


def test_router_rejects_bad_topologies():
    with pytest.raises(ClusterError, match="at least one backend"):
        ClusterIndex(backends=[])
    with pytest.raises(ClusterError, match="mode"):
        ClusterIndex(backends=[("127.0.0.1", 1)], mode="quorum")
    with pytest.raises(ClusterError, match="host:port"):
        ClusterIndex(backends=["not-an-address"])


# ---------------------------------------------------------------------------
# the supervisor + CLI front door
# ---------------------------------------------------------------------------


def test_cli_snapshot_split_verify(tmp_path):
    """`repro snapshot --split N --verify` writes the manifest set and its
    self-check passes."""
    out = tmp_path / "words.snap"
    assert (
        main(
            [
                "snapshot",
                "--dataset",
                "Words",
                "--n",
                "120",
                "--index",
                "LAESA",
                "--pivots",
                "3",
                "--out",
                str(out),
                "--split",
                "2",
                "--verify",
            ]
        )
        == 0
    )
    manifest = load_cluster_manifest(tmp_path / "words.cluster.json")
    assert len(manifest["shards"]) == 2
    assert manifest["n_objects"] == 120


def test_supervisor_spawns_real_backends_and_drains(datasets, tmp_path):
    """End to end minus the CLI loop: split snapshots -> ClusterSupervisor
    spawns `repro serve` children -> routed answers are bit-for-bit ->
    close() drains everything."""
    dataset, sharded = _sharded_words(datasets, n=150, n_shards=2)
    manifest_path = save_split(sharded, tmp_path / "words.snap")
    manifest = load_cluster_manifest(manifest_path)
    radius = RADIUS["Words"]
    queries = [dataset[i] for i in range(4)]
    want_range = sharded.range_query_many(queries, radius)
    want_knn = sharded.knn_query_many(queries, K)

    supervisor = ClusterSupervisor(
        snapshots=[s["snapshot"] for s in manifest["shards"]],
        mode="shard",
        probe_interval_s=0,
        startup_timeout_s=120.0,
    )
    with supervisor:
        router = supervisor.router
        assert supervisor.poll() == []  # all children alive
        assert len(supervisor.backend_ports) == 2
        with ServiceClient(router.host, router.port, binary=True) as client:
            assert client.healthz()["status"] == "ok"
            assert client.range_query_many(queries, radius) == want_range
            assert client.knn_query_many(queries, K) == want_knn
    assert supervisor.router is None  # drained
    assert supervisor.poll() == []  # children list cleared


def test_supervisor_rejects_missing_snapshots(tmp_path):
    with pytest.raises(ClusterError, match="does not exist"):
        ClusterSupervisor(snapshots=[str(tmp_path / "missing.snap")])
    with pytest.raises(ClusterError, match="at least one backend"):
        ClusterSupervisor(snapshots=[])
