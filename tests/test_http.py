"""HTTP front-end: the QueryService surface over a loopback socket.

Covers the tentpole contracts:

* every endpoint returns answers bit-for-bit equal to direct
  ``QueryService`` / index calls (strings and numpy vectors both survive
  the JSON round trip);
* concurrent HTTP clients flow through the cache -> dispatcher -> batch
  stack (coalescing visible in ``/stats``);
* backpressure: requests beyond ``max_inflight`` get 503 immediately;
* graceful shutdown: in-flight requests complete, the dispatcher drains,
  then the socket closes;
* ``POST /admin/reload`` hot-swaps a newer snapshot atomically;
* the ``repro serve --http`` CLI serves and shuts down cleanly on SIGINT.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from conftest import MALFORMED_HEADERS, RADIUS, rewrite_header
from repro import (
    CostCounters,
    MetricSpace,
    QueryService,
    save_index,
    select_pivots,
)
from repro.service.http import (
    HttpQueryServer,
    ServiceClient,
    ServiceClientError,
    decode_neighbors,
    encode_neighbors,
    encode_object,
)
from repro.tables import LAESA

K = 5


def _laesa_over(dataset):
    space = MetricSpace(dataset, CostCounters())
    return LAESA.build(space, select_pivots(MetricSpace(dataset), 3, strategy="hfi"))


@pytest.fixture
def served(datasets, built_indexes):
    """Words LAESA behind a loopback HTTP server (shared, read-only)."""
    index = built_indexes("Words", "LAESA")
    service = QueryService(index, max_batch_size=16)
    server = HttpQueryServer(service, max_inflight=64).start()
    client = ServiceClient(port=server.port)
    yield index, service, server, client
    server.close()
    service.close()


class _SlowServed:
    """A served index whose range queries block until released.

    ``service.range_query`` is wrapped so each call signals ``entered``
    and parks on ``release`` -- the deterministic way to hold requests
    in flight while a test observes backpressure or drain behaviour.
    """

    def __init__(self, dataset, max_inflight):
        self.index = _laesa_over(dataset)
        self.service = QueryService(self.index)
        self.entered = threading.Semaphore(0)
        self.release = threading.Event()
        original = self.service.range_query

        def slow(query_obj, radius, index=None):
            self.entered.release()
            assert self.release.wait(20), "test never released in-flight queries"
            return original(query_obj, radius, index=index)

        self.service.range_query = slow
        self.server = HttpQueryServer(self.service, max_inflight=max_inflight)
        self.server.start()
        self.client = ServiceClient(port=self.server.port)

    def close(self):
        self.release.set()
        self.server.close()
        self.service.close()


# ---------------------------------------------------------------------------
# wire codec + basic endpoints
# ---------------------------------------------------------------------------


def test_encode_decode_neighbors_roundtrip():
    from repro.core.queries import Neighbor

    answer = [Neighbor(1.5, 3), Neighbor(2.25, 8)]
    assert decode_neighbors(encode_neighbors(answer)) == answer
    assert encode_object("word") == "word"
    assert encode_object(np.array([1.0, 2.5])) == [1.0, 2.5]


def test_healthz_and_stats_shapes(served):
    index, service, server, client = served
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["index"] == "LAESA"
    assert health["objects"] == len(index.space)
    stats = client.stats()
    assert set(stats) >= {"cache", "dispatcher", "http", "index"}
    assert stats["http"]["max_inflight"] == 64
    assert stats["http"]["draining"] is False


def test_single_endpoints_match_direct_calls(served, datasets):
    index, service, server, client = served
    radius = RADIUS["Words"]
    for q in [datasets["Words"][i] for i in range(5)]:
        assert client.range_query(q, radius) == index.range_query(q, radius)
        assert client.knn_query(q, K) == index.knn_query(q, K)


def test_batch_endpoints_match_direct_calls(served, datasets):
    index, service, server, client = served
    queries = [datasets["Words"][i] for i in range(8)]
    radius = RADIUS["Words"]
    assert client.range_query_many(queries, radius) == index.range_query_many(
        queries, radius
    )
    assert client.knn_query_many(queries, K) == index.knn_query_many(queries, K)


def test_vector_queries_roundtrip_bit_for_bit(datasets):
    """Float64 vectors must survive the JSON trip exactly -- kNN distances
    and ids compare with ==, not approx."""
    index = _laesa_over(datasets["LA"])
    with QueryService(index, use_dispatcher=False) as service:
        with HttpQueryServer(service).start() as server:
            client = ServiceClient(port=server.port)
            queries = [datasets["LA"][i] for i in range(4)]
            radius = RADIUS["LA"]
            assert client.range_query_many(queries, radius) == (
                index.range_query_many(queries, radius)
            )
            assert client.knn_query_many(queries, K) == index.knn_query_many(
                queries, K
            )


def test_error_statuses(served):
    index, service, server, client = served
    with pytest.raises(ServiceClientError, match="404"):
        client._request("POST", "/no/such/route", {})
    with pytest.raises(ServiceClientError, match="404"):
        client._request("GET", "/no/such/route")
    with pytest.raises(ServiceClientError, match="400") as excinfo:
        client._request("POST", "/range", {"radius": 2.0})  # missing query
    assert excinfo.value.status == 400
    with pytest.raises(ServiceClientError, match="400"):
        client._request("POST", "/range", {"query": "word"})  # missing radius
    with pytest.raises(ServiceClientError, match="400"):
        client._request("POST", "/knn", {"query": "word", "k": 0})
    with pytest.raises(ServiceClientError, match="400"):
        client._request("POST", "/range_many", {"queries": [], "radius": 1.0})
    with pytest.raises(ServiceClientError, match="400"):
        client._request("POST", "/delete", {"object_id": "three"})
    # malformed body -> 400, not a hung connection
    import http.client as http_client

    conn = http_client.HTTPConnection(client.host, client.port, timeout=10)
    try:
        conn.request(
            "POST", "/range", body=b"{not json", headers={"Content-Type": "application/json"}
        )
        assert conn.getresponse().status == 400
    finally:
        conn.close()


def test_vector_shape_mismatch_is_400(datasets):
    index = _laesa_over(datasets["LA"])
    with QueryService(index, use_dispatcher=False) as service:
        with HttpQueryServer(service).start() as server:
            client = ServiceClient(port=server.port)
            with pytest.raises(ServiceClientError, match="400"):
                client.range_query(np.array([1.0, 2.0, 3.0]), 10.0)  # LA is 2-d
            with pytest.raises(ServiceClientError, match="400"):
                client.range_query("not-a-vector", 10.0)


# ---------------------------------------------------------------------------
# concurrency: exactness + micro-batching over the wire
# ---------------------------------------------------------------------------


def test_32_concurrent_mixed_clients_exact_and_coalesced(served, datasets):
    """The acceptance bar: >= 32 concurrent clients of mixed MRQ/MkNNQ
    traffic, answers bit-for-bit the direct ones, dispatcher coalescing
    visible in /stats (batches < queries)."""
    index, service, server, client = served
    dataset = datasets["Words"]
    radius = RADIUS["Words"]
    sample = [dataset[i] for i in range(16)]
    expected_range = {i: index.range_query(q, radius) for i, q in enumerate(sample)}
    expected_knn = {i: index.knn_query(q, K) for i, q in enumerate(sample)}

    def one_client(i):
        # each of the 32 clients issues one MRQ and one MkNNQ
        q = sample[i % len(sample)]
        return client.range_query(q, radius), client.knn_query(q, K)

    with ThreadPoolExecutor(max_workers=32) as pool:
        results = list(pool.map(one_client, range(32)))
    for i, (got_range, got_knn) in enumerate(results):
        assert got_range == expected_range[i % len(sample)]
        assert got_knn == expected_knn[i % len(sample)]
    stats = client.stats()
    dispatcher = stats["dispatcher"]
    assert dispatcher["queries"] > 0, "wire traffic never reached the dispatcher"
    assert dispatcher["batches"] < dispatcher["queries"], dispatcher
    assert stats["http"]["served"] >= 64


# ---------------------------------------------------------------------------
# keep-alive connection pooling
# ---------------------------------------------------------------------------


def test_keep_alive_reuses_one_connection(served, datasets):
    """N sequential calls ride one pooled keep-alive connection."""
    index, service, server, client = served
    dataset = datasets["Words"]
    radius = RADIUS["Words"]
    with ServiceClient(port=server.port) as fresh:
        assert fresh.connections_opened == 0
        for i in range(6):
            q = dataset[i]
            assert fresh.range_query(q, radius) == index.range_query(q, radius)
            assert fresh.knn_query(q, K) == index.knn_query(q, K)
        assert fresh.healthz()["status"] == "ok"
        # GETs bypass admission accounting; the 12 POSTs were all served
        assert fresh.stats()["http"]["served"] >= 12
        assert fresh.connections_opened == 1


def test_keep_alive_reconnects_on_stale_socket(served, datasets):
    """A dead pooled socket is replaced transparently, one retry, no error."""
    import socket

    index, service, server, client = served
    dataset = datasets["Words"]
    radius = RADIUS["Words"]
    with ServiceClient(port=server.port) as fresh:
        q = dataset[0]
        expected = index.range_query(q, radius)
        assert fresh.range_query(q, radius) == expected
        assert fresh.connections_opened == 1
        # simulate the server dropping the idle keep-alive connection: the
        # next request hits a dead socket and must retry on a fresh one
        fresh._local.conn.sock.shutdown(socket.SHUT_RDWR)
        assert fresh.range_query(q, radius) == expected
        assert fresh.connections_opened == 2
        # the transparent retry is accounted, not silent
        assert fresh.retries == 1
        assert fresh.client_stats() == {
            "connections_opened": 2,
            "retries": 1,
            "pooled": 1,
        }
        # the replacement connection is pooled and reused thereafter
        assert fresh.knn_query(q, K) == index.knn_query(q, K)
        assert fresh.connections_opened == 2
        assert fresh.retries == 1


def test_keep_alive_close_releases_and_reopens(served, datasets):
    """close() drops pooled sockets; the client stays usable afterwards."""
    index, service, server, client = served
    dataset = datasets["Words"]
    radius = RADIUS["Words"]
    fresh = ServiceClient(port=server.port)
    q = dataset[1]
    expected = index.range_query(q, radius)
    assert fresh.range_query(q, radius) == expected
    fresh.close()
    assert fresh._conns == []
    assert fresh.range_query(q, radius) == expected  # reopens cleanly
    assert fresh.connections_opened == 2
    fresh.close()


def test_keep_alive_pools_per_thread(served, datasets):
    """A shared client fans out: one pooled connection per calling thread."""
    index, service, server, client = served
    dataset = datasets["Words"]
    radius = RADIUS["Words"]
    with ServiceClient(port=server.port) as fresh:
        expected = {i: index.range_query(dataset[i], radius) for i in range(4)}

        def worker(i):
            # two sequential calls per thread: the second reuses the first's
            # pooled connection, so total connections == thread count
            assert fresh.range_query(dataset[i], radius) == expected[i]
            assert fresh.range_query(dataset[i], radius) == expected[i]

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(worker, range(4)))
        assert 1 <= fresh.connections_opened <= 4


# ---------------------------------------------------------------------------
# backpressure
# ---------------------------------------------------------------------------


def test_backpressure_rejects_with_503(datasets):
    slow = _SlowServed(datasets["Words"].subset(range(60)), max_inflight=2)
    try:
        q = datasets["Words"][0]
        answers = []
        clients = [
            threading.Thread(target=lambda: answers.append(slow.client.range_query(q, 2.0)))
            for _ in range(2)
        ]
        for t in clients:
            t.start()
        slow.entered.acquire(timeout=10)
        slow.entered.acquire(timeout=10)
        # both slots occupied: the third request is rejected immediately
        with pytest.raises(ServiceClientError) as excinfo:
            slow.client.range_query(q, 2.0)
        assert excinfo.value.status == 503
        assert slow.server.rejected == 1
        # observability keeps answering under saturation
        assert slow.client.healthz()["status"] == "ok"
        slow.release.set()
        for t in clients:
            t.join(timeout=10)
        expected = slow.index.range_query(q, 2.0)
        assert answers == [expected, expected]
        # capacity freed: new requests are admitted again
        assert slow.client.range_query(q, 2.0) == expected
    finally:
        slow.close()


# ---------------------------------------------------------------------------
# graceful shutdown
# ---------------------------------------------------------------------------


def test_graceful_shutdown_drains_inflight_then_closes(datasets):
    slow = _SlowServed(datasets["Words"].subset(range(60)), max_inflight=8)
    q = datasets["Words"][0]
    answers = []
    clients = [
        threading.Thread(target=lambda: answers.append(slow.client.range_query(q, 2.0)))
        for _ in range(2)
    ]
    for t in clients:
        t.start()
    slow.entered.acquire(timeout=10)
    slow.entered.acquire(timeout=10)

    closer = threading.Thread(target=slow.server.close)
    closer.start()
    # draining: new work is rejected while in-flight requests keep running
    deadline = time.time() + 10
    while not slow.server.draining and time.time() < deadline:
        time.sleep(0.01)
    assert slow.server.draining
    with pytest.raises(ServiceClientError) as excinfo:
        slow.client.range_query(q, 2.0)
    assert excinfo.value.status == 503
    assert slow.client.healthz()["status"] == "draining"
    closer.join(timeout=0.2)
    assert closer.is_alive()  # close() is still waiting on the in-flight pair

    slow.release.set()
    for t in clients:
        t.join(timeout=10)
    closer.join(timeout=10)
    assert not closer.is_alive()
    # the in-flight requests completed with real answers, never resets
    expected = slow.index.range_query(q, 2.0)
    assert answers == [expected, expected]
    # the dispatcher drained before the socket closed...
    with pytest.raises(RuntimeError, match="closed"):
        slow.service.dispatcher.submit(slow.service.index_id, "range", q, 2.0)
    # ...and the socket is now actually closed
    with pytest.raises(OSError):
        slow.client.healthz()
    slow.server.close()  # idempotent
    slow.service.close()


# ---------------------------------------------------------------------------
# snapshot startup + hot reload
# ---------------------------------------------------------------------------


def _snapshot_pair(datasets, tmp_path):
    """Two snapshots of LAESA over nested Words subsets (answers differ)."""
    small = datasets["Words"].subset(range(100))
    large = datasets["Words"].subset(range(250))
    index_small, index_large = _laesa_over(small), _laesa_over(large)
    path_small = tmp_path / "small.snap"
    path_large = tmp_path / "large.snap"
    save_index(index_small, path_small)
    save_index(index_large, path_large)
    return (index_small, path_small), (index_large, path_large)


def test_reload_hot_swaps_snapshot(datasets, tmp_path):
    (index_small, path_small), (index_large, path_large) = _snapshot_pair(
        datasets, tmp_path
    )
    radius = RADIUS["Words"]
    # a query whose answer provably changes with the larger subset
    query = None
    for i in range(100):
        q = datasets["Words"][i]
        if index_small.range_query(q, radius) != index_large.range_query(q, radius):
            query = q
            break
    assert query is not None, "fixture subsets too similar to distinguish"

    service = QueryService.from_snapshot(path_small)
    with service, HttpQueryServer(service).start() as server:
        client = ServiceClient(port=server.port)
        assert client.healthz()["objects"] == 100
        before = client.range_query(query, radius)
        assert before == index_small.range_query(query, radius)

        out = client.reload(path_large)
        assert out["objects"] == 250
        assert client.healthz()["objects"] == 250
        # the swap invalidated the cached pre-reload answer: the same query
        # now reflects the new snapshot, both cold and from cache
        after = client.range_query(query, radius)
        assert after == index_large.range_query(query, radius)
        assert after != before
        assert client.range_query(query, radius) == after  # cached re-ask
        assert client.stats()["cache"]["hits"] >= 1


def test_reload_rejects_bad_snapshots_and_keeps_serving(datasets, tmp_path):
    (index_small, path_small), _ = _snapshot_pair(datasets, tmp_path)
    junk = tmp_path / "junk.snap"
    junk.write_bytes(b"NOTASNAP" + b"\x00" * 32)
    service = QueryService.from_snapshot(path_small)
    with service, HttpQueryServer(service).start() as server:
        client = ServiceClient(port=server.port)
        q = datasets["Words"][0]
        expected = client.range_query(q, RADIUS["Words"])
        for bad in (str(tmp_path / "missing.snap"), str(junk)):
            with pytest.raises(ServiceClientError) as excinfo:
                client.reload(bad)
            assert excinfo.value.status == 400
        # the old index is untouched and still serving
        assert client.healthz()["objects"] == 100
        assert client.range_query(q, RADIUS["Words"]) == expected


def test_reload_refuses_a_malformed_header_and_keeps_serving(datasets, tmp_path):
    """A snapshot whose header is not an object, lacks a field, or holds a
    size of the wrong type or sign is a 400, not a server error, and so is
    a current one whose header names format 3, which reads only through
    ``repro migrate``; the old index keeps serving."""
    (_, path_small), (_, path_large) = _snapshot_pair(datasets, tmp_path)
    service = QueryService.from_snapshot(path_small)
    refused = {**MALFORMED_HEADERS, "format 3": lambda header: {**header, "format_version": 3}}
    with service, HttpQueryServer(service).start() as server:
        client = ServiceClient(port=server.port)
        q = datasets["Words"][0]
        expected = client.range_query(q, RADIUS["Words"])
        for name, edit in refused.items():
            bad = tmp_path / f"{name}.snap"
            bad.write_bytes(path_large.read_bytes())
            rewrite_header(bad, edit)
            with pytest.raises(ServiceClientError) as excinfo:
                client.reload(bad)
            assert excinfo.value.status == 400, name
        assert "repro migrate" in str(excinfo.value)  # the last, format 3
        assert client.healthz()["objects"] == 100
        assert client.range_query(q, RADIUS["Words"]) == expected


def test_service_reload_generation_drops_inflight_puts(datasets, tmp_path):
    """An answer computed against the pre-reload index must never be cached
    after the swap (the service-level half of the reload contract)."""
    (index_small, path_small), (_, path_large) = _snapshot_pair(datasets, tmp_path)
    service = QueryService.from_snapshot(path_small, use_dispatcher=False)
    with service:
        q = datasets["Words"][0]
        key = service.cache.make_key(service.index_id, "range", q, 2.0)
        stale_generation = service.cache.generation(service.index_id)
        stale_answer = service.index.range_query(q, 2.0)
        service.reload_from_snapshot(path_large)
        service.cache.put(key, stale_answer, generation=stale_generation, query_obj=q)
        assert service.cache.get(key) is None  # the stale put was dropped
        assert len(service.index.space) == 250


# ---------------------------------------------------------------------------
# mutations over the wire
# ---------------------------------------------------------------------------


def test_insert_and_delete_endpoints(datasets):
    dataset = datasets["Words"].subset(range(120))
    index = _laesa_over(dataset)
    with QueryService(index) as service:
        with HttpQueryServer(service).start() as server:
            client = ServiceClient(port=server.port)
            q = dataset[0]
            baseline = client.range_query(q, 2.0)
            new_id = client.insert(q)  # a duplicate word: distance 0 <= r
            assert isinstance(new_id, int)
            grown = client.range_query(q, 2.0)
            assert set(grown) == set(baseline) | {new_id}
            client.delete(new_id)
            assert client.range_query(q, 2.0) == baseline


def test_insert_vector_object_over_wire(datasets):
    dataset = datasets["LA"].subset(range(80))
    index = _laesa_over(dataset)
    with QueryService(index) as service:
        with HttpQueryServer(service).start() as server:
            client = ServiceClient(port=server.port)
            q = dataset[0]
            baseline = client.range_query(q, RADIUS["LA"])
            new_id = client.insert(np.asarray(q))
            assert new_id in client.range_query(q, RADIUS["LA"])
            client.delete(new_id)
            assert client.range_query(q, RADIUS["LA"]) == baseline


# ---------------------------------------------------------------------------
# server argument validation
# ---------------------------------------------------------------------------


def test_server_rejects_bad_arguments(datasets):
    index = _laesa_over(datasets["Words"].subset(range(30)))
    with QueryService(index, use_dispatcher=False) as service:
        with pytest.raises(ValueError, match="max_inflight"):
            HttpQueryServer(service, max_inflight=0)
        server = HttpQueryServer(service)
        server.start()
        with pytest.raises(RuntimeError, match="already started"):
            server.start()
        server.close()


def test_close_before_start_returns_and_frees_the_port(datasets):
    """close() on a constructed-but-never-started server must not hang on
    the serve_forever handshake, and must release the bound socket."""
    index = _laesa_over(datasets["Words"].subset(range(30)))
    with QueryService(index, use_dispatcher=False) as service:
        server = HttpQueryServer(service)
        port = server.port
        done = threading.Event()

        def closer():
            server.close()
            done.set()

        thread = threading.Thread(target=closer)
        thread.start()
        assert done.wait(timeout=5), "close() hung on a never-started server"
        thread.join()
        # the port is free again: a new server can bind it immediately
        rebound = HttpQueryServer(service, port=port)
        rebound.start()
        rebound.close()


def test_early_replies_keep_the_connection_synchronized(datasets):
    """404/503 are decided before the handler parses the body -- the body
    must still be drained, or a keep-alive connection would parse the
    leftover bytes as the next request (and the kernel could RST the reply
    away entirely).  A follow-up request on the *same* connection proves
    the stream stayed in sync."""
    import http.client as http_client

    slow = _SlowServed(datasets["Words"].subset(range(40)), max_inflight=1)
    try:
        q = datasets["Words"][0]
        holder = threading.Thread(
            target=lambda: slow.client.range_query(q, 2.0)
        )
        holder.start()
        slow.entered.acquire(timeout=10)

        body = b'{"query": "word", "radius": 2.0}'
        for path, status in (("/range", 503), ("/no/such", 404)):
            conn = http_client.HTTPConnection(
                slow.client.host, slow.client.port, timeout=10
            )
            try:
                conn.request(
                    "POST",
                    path,
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == status
                response.read()
                # the same connection must still speak valid HTTP
                conn.request("GET", "/healthz")
                follow_up = conn.getresponse()
                assert follow_up.status == 200
                follow_up.read()
            finally:
                conn.close()
        slow.release.set()
        holder.join(timeout=10)
    finally:
        slow.close()


def test_insert_rejects_boolean_object_id(datasets):
    """JSON true passes isinstance(x, int); it must still be a 400, not a
    silent insert at object_id 1."""
    index = _laesa_over(datasets["Words"].subset(range(40)))
    with QueryService(index, use_dispatcher=False) as service:
        with HttpQueryServer(service).start() as server:
            client = ServiceClient(port=server.port)
            with pytest.raises(ServiceClientError) as excinfo:
                client._request(
                    "POST", "/insert", {"object": "word", "object_id": True}
                )
            assert excinfo.value.status == 400
            with pytest.raises(ServiceClientError) as excinfo:
                client._request("POST", "/delete", {"object_id": False})
            assert excinfo.value.status == 400


@pytest.mark.parametrize("front", ["server", "router"])
def test_refused_mutations_are_client_errors(datasets, front):
    """An insert the index refuses answers 400 -- an id already indexed,
    an id outside the dataset, another object than the dataset's under an
    id -- and a delete of an id the index does not hold answers 404 (each
    answered 500 before), from the server and relayed by a replica router
    whose remote member is that server; a refused mutation changes
    nothing."""
    from repro.external import SPBTree
    from repro.service.cluster import ClusterIndex

    dataset = datasets["LA"].subset(range(120))
    space = MetricSpace(dataset, CostCounters())
    index = SPBTree.build(space, select_pivots(MetricSpace(dataset), 3, strategy="hfi"))
    backend = HttpQueryServer(QueryService(index, use_dispatcher=False)).start()
    server = backend
    if front == "router":
        member = ClusterIndex([(backend.host, backend.port)], mode="replica", probe_interval_s=0)
        server = HttpQueryServer(QueryService(member, cache_size=0, use_dispatcher=False)).start()
    try:
        client = ServiceClient(port=server.port)
        q, radius = dataset[5], RADIUS["LA"]
        baseline = client.range_query(q, radius)
        assert 5 in baseline
        client.delete(5)

        def refused(call, status, message):
            with pytest.raises(ServiceClientError) as excinfo:
                call()
            assert excinfo.value.status == status, excinfo.value
            assert message in excinfo.value.payload["error"]

        refused(lambda: client.insert(dataset[7] + 5000.0, object_id=5), 400, "another object")
        refused(lambda: client.delete(5), 404, "not in the index")
        refused(lambda: client.delete(10_000), 404, "not in the index")
        assert client.insert(np.array(dataset[5]), object_id=5) == 5  # a copy is fine
        refused(lambda: client.insert(dataset[5], object_id=5), 400, "already indexed")
        refused(lambda: client.insert(dataset[5], object_id=120), 400, "outside the dataset")
        assert client.range_query(q, radius) == baseline
        assert client.range_query(dataset[7] + 5000.0, 1.0) == []
        assert len(index.raf) == 120
    finally:
        server.close()
        if server is not backend:
            backend.close()


def test_mutation_faults_past_the_checks_answer_500(datasets, monkeypatch):
    """Only the index's own refusals are client errors: a ``KeyError`` or
    ``ValueError`` an insert or delete raises past its checks (a page
    never written, a broken invariant) is the server's fault and answers
    500."""
    index = _laesa_over(datasets["Words"].subset(range(40)))

    def page_fault(*args, **kwargs):
        raise KeyError("page 3 was allocated but never written")

    def invariant_fault(*args, **kwargs):
        raise ValueError("leaf keys out of order")

    monkeypatch.setattr(index, "delete", page_fault)
    monkeypatch.setattr(index, "insert", invariant_fault)
    with QueryService(index, use_dispatcher=False) as service:
        with HttpQueryServer(service).start() as server:
            client = ServiceClient(port=server.port)
            for call in (lambda: client.delete(3), lambda: client.insert("abc")):
                with pytest.raises(ServiceClientError) as excinfo:
                    call()
                assert excinfo.value.status == 500, excinfo.value


def test_mutations_serialize_with_reload(datasets):
    """insert/delete must hold the reload lock: an acknowledged mutation
    may never land in an index a concurrent hot swap is discarding."""
    index = _laesa_over(datasets["Words"].subset(range(40)))
    with QueryService(index, use_dispatcher=False) as service:
        acked = threading.Event()

        def mutate():
            service.insert(datasets["Words"][0])
            acked.set()

        with service._reload_lock:  # a reload is mid-swap
            thread = threading.Thread(target=mutate)
            thread.start()
            assert not acked.wait(timeout=0.2), "insert ignored the reload lock"
        assert acked.wait(timeout=5)
        thread.join()


# ---------------------------------------------------------------------------
# bearer-token auth
# ---------------------------------------------------------------------------


def test_auth_token_guards_mutations_and_admin(datasets):
    """With an auth token set, /insert, /delete, and /admin/reload demand
    `Authorization: Bearer <token>`; queries and observability stay open."""
    dataset = datasets["Words"].subset(range(60))
    index = _laesa_over(dataset)
    token = "s3cret-token"
    with QueryService(index, use_dispatcher=False) as service:
        server = HttpQueryServer(service, auth_token=token).start()
        with server:
            q = dataset[0]
            expected = index.range_query(q, 2.0)
            with ServiceClient(port=server.port) as anon:
                # read paths are open without credentials
                assert anon.range_query(q, 2.0) == expected
                assert anon.knn_query(q, K) == index.knn_query(q, K)
                assert anon.healthz()["status"] == "ok"
                assert "http" in anon.stats()
                # guarded paths are 401 without (or with a wrong) token
                for call in (
                    lambda c: c.insert(q),
                    lambda c: c.delete(0),
                    lambda c: c.reload("/nowhere.snap"),
                ):
                    with pytest.raises(ServiceClientError) as excinfo:
                        call(anon)
                    assert excinfo.value.status == 401
            with ServiceClient(port=server.port, auth_token="wrong") as bad:
                with pytest.raises(ServiceClientError) as excinfo:
                    bad.delete(0)
                assert excinfo.value.status == 401
            with ServiceClient(port=server.port, auth_token=token) as ok:
                # authorized: the mutation goes through (and the guarded
                # reload path gets far enough to reject the bad snapshot,
                # proving auth passed)
                new_id = ok.insert(q)
                assert new_id in ok.range_query(q, 2.0)
                ok.delete(new_id)
                with pytest.raises(ServiceClientError) as excinfo:
                    ok.reload("/nowhere.snap")
                assert excinfo.value.status == 400


def test_no_auth_token_leaves_every_path_open(datasets):
    dataset = datasets["Words"].subset(range(40))
    index = _laesa_over(dataset)
    with QueryService(index, use_dispatcher=False) as service:
        with HttpQueryServer(service).start() as server:
            with ServiceClient(port=server.port) as client:
                q = dataset[0]
                new_id = client.insert(q)
                client.delete(new_id)


# ---------------------------------------------------------------------------
# the CLI front door: repro serve --http
# ---------------------------------------------------------------------------


def test_cli_serve_http_from_snapshot(datasets, tmp_path):
    """End to end: snapshot -> `repro serve --http 0` subprocess -> client
    traffic -> SIGINT -> graceful shutdown with exit code 0."""
    index = _laesa_over(datasets["Words"].subset(range(150)))
    snap = tmp_path / "cli.snap"
    save_index(index, snap)

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--http", "0", "--snapshot", str(snap)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        bufsize=1,
        env=env,
    )
    try:
        port = None
        deadline = time.time() + 60
        while time.time() < deadline:
            line = proc.stdout.readline()
            if not line:
                break  # the child exited before binding
            match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        assert port is not None, "server never printed its address"
        client = ServiceClient(port=port)
        assert client.healthz()["objects"] == 150
        q = datasets["Words"][0]
        assert client.range_query(q, 2.0) == index.range_query(q, 2.0)
        assert client.knn_query(q, K) == index.knn_query(q, K)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    assert "shut down cleanly" in out
