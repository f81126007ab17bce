"""One front-end: what the HTTP handler guarantees, on a server and a router.

A cluster router is the same ``HttpQueryServer`` as a single-index server,
hosting a ``ClusterIndex`` of remote backends.  Every guarantee below is
therefore asserted against both:

* a stalled or malformed request body never takes an admission slot: a
  bad ``Content-Length`` is a 400, a body that stops arriving is a 408 on
  a closed connection, and neither blocks honest clients or the drain --
  while idle keep-alive connections stay up;
* a NaN or negative ``radius`` (and a NaN or infinite ``k``) is a 400 on
  both wire codecs, before anything reaches the service or its cache;
* a backend that drops its connection mid-response during a scatter is a
  503 naming that shard in shard mode, an exact answer from the surviving
  replica in replica mode -- and the router still drains on close;
* errors map to statuses by type: an operation the hosted index does not
  support is a 501 on a server as on a router, and a rolling reload the
  backends refuse stops with the backend's status and how far it got.
"""

from __future__ import annotations

import math
import socket
import threading
import time

import pytest

from conftest import RADIUS
from repro import CostCounters, MetricSpace, QueryService, save_index, select_pivots
from repro.core.sharded import ShardedIndex
from repro.service.cluster import ClusterIndex
from repro.service.http import (
    HttpQueryServer,
    ServiceClient,
    ServiceClientError,
    _Handler,
)
from repro.tables import AESA, LAESA

K = 5


def _build(space):
    return LAESA.build(space, select_pivots(space, 3, strategy="hfi", seed=0))


def _laesa(dataset):
    return _build(MetricSpace(dataset, CostCounters()))


def _serve(index, max_inflight=64):
    return HttpQueryServer(
        QueryService(index, use_dispatcher=False), max_inflight=max_inflight
    ).start()


def _router(backends, mode, max_inflight=64):
    topology = ClusterIndex(
        [(b.host, b.port) for b in backends], mode=mode, probe_interval_s=0
    )
    service = QueryService(topology, cache_size=0, use_dispatcher=False)
    return HttpQueryServer(service, max_inflight=max_inflight).start()


@pytest.fixture(params=["server", "router"])
def front(request, datasets):
    """A front-end admitting 2 requests at once: the Words LAESA server
    itself, or a replica router over it.  Yields (front, index, dataset)."""
    dataset = datasets["Words"].subset(range(120))
    index = _laesa(dataset)
    backend = _serve(index, max_inflight=2 if request.param == "server" else 64)
    front = backend if request.param == "server" else _router([backend], "replica", 2)
    yield front, index, dataset
    front.close()
    backend.close()


def _raw_post(front, headers: bytes, body: bytes = b"") -> socket.socket:
    sock = socket.create_connection((front.host, front.port), timeout=10)
    sock.sendall(
        b"POST /range HTTP/1.1\r\nHost: test\r\n"
        b"Content-Type: application/json\r\n" + headers + b"\r\n" + body
    )
    return sock


def _reply_to_eof(sock: socket.socket) -> bytes:
    """Everything the server sends until it closes the connection."""
    with sock, sock.makefile("rb") as reader:
        return reader.read()


# ---------------------------------------------------------------------------
# request bodies and admission
# ---------------------------------------------------------------------------


def test_bad_content_length_is_400_on_a_closed_connection(front):
    front, _, _ = front
    for length in (b"abc", b"-5"):
        reply = _reply_to_eof(_raw_post(front, b"Content-Length: " + length + b"\r\n"))
        assert reply.startswith(b"HTTP/1.1 400"), reply
        assert b"Content-Length" in reply
    assert front.rejected == 0 and front.requests_served == 0


def test_stalled_bodies_take_no_admission_slot(front):
    front, index, dataset = front
    q, radius = dataset[0], RADIUS["Words"]
    # two connections declare a large body and send one byte: before, they
    # held both slots for ever, the honest client got 503 and the drain
    # timed out
    stalled = [
        _raw_post(front, b"Content-Length: 100000\r\n", b"{") for _ in range(2)
    ]
    try:
        time.sleep(0.2)  # both handlers are now blocked reading
        with ServiceClient(front.host, front.port) as honest:
            assert honest.range_query(q, radius) == index.range_query(q, radius)
        assert front.rejected == 0
        assert front.close(drain_timeout=2) is True
    finally:
        for sock in stalled:
            sock.close()


def test_a_stalled_body_gets_408_and_its_connection_closes(front, monkeypatch):
    front, _, _ = front
    monkeypatch.setattr(_Handler, "_BODY_TIMEOUT_S", 0.3)
    t0 = time.monotonic()
    reply = _reply_to_eof(_raw_post(front, b"Content-Length: 100000\r\n", b"{"))
    assert reply.startswith(b"HTTP/1.1 408"), reply
    assert time.monotonic() - t0 < 5


def test_idle_keep_alive_outlives_the_body_timeout(front, monkeypatch):
    front, index, dataset = front
    monkeypatch.setattr(_Handler, "_BODY_TIMEOUT_S", 0.2)
    q, radius = dataset[1], RADIUS["Words"]
    with ServiceClient(front.host, front.port) as client:
        assert client.range_query(q, radius) == index.range_query(q, radius)
        time.sleep(0.5)  # idle for longer than a body may stall
        assert client.range_query(q, radius) == index.range_query(q, radius)
        assert client.client_stats()["connections_opened"] == 1
        assert client.retries == 0


# ---------------------------------------------------------------------------
# scalar validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("binary", [False, True], ids=["json", "binary"])
def test_nan_or_negative_radius_and_bad_k_are_400(front, binary):
    front, _, dataset = front
    q = dataset[0]
    bad = [
        ("/range", {"query": q, "radius": value})
        for value in (math.nan, -math.inf, -5.0)
    ] + [
        ("/range_many", {"queries": [q], "radius": math.nan}),
        ("/knn", {"query": q, "k": math.nan}),
        ("/knn_many", {"queries": [q], "k": math.inf}),
    ]
    with ServiceClient(front.host, front.port, binary=binary) as client:
        for path, payload in bad:
            with pytest.raises(ServiceClientError) as excinfo:
                client._request("POST", path, payload)
            assert excinfo.value.status == 400, (path, payload)
            assert "radius" in str(excinfo.value) or "'k'" in str(excinfo.value)
    # rejected before the service: nothing cached under an unhittable key
    assert len(front.service.cache) == 0


# ---------------------------------------------------------------------------
# a backend killed mid-scatter
# ---------------------------------------------------------------------------


class _DroppingBackend:
    """Reads each request, starts a 200 reply and drops the connection
    mid-body: a backend process killed while answering."""

    def __init__(self):
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(0.1)
        self.host, self.port = self._sock.getsockname()[:2]
        self.requests = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                continue
            conn.settimeout(10)
            with conn, conn.makefile("rb") as reader:
                length = 0
                reader.readline()  # the request line
                while (line := reader.readline()) not in (b"\r\n", b""):
                    name, _, value = line.decode("latin-1").partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value)
                reader.read(length)
                self.requests += 1
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/x-repro-binary\r\n"
                    b"Content-Length: 4096\r\n\r\nRPWB"
                )

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5)
        self._sock.close()


def test_shard_killed_mid_scatter_is_503_naming_it_and_router_drains(datasets):
    dataset = datasets["Words"].subset(range(150))
    sharded = ShardedIndex.build(
        MetricSpace(dataset, CostCounters()), _build, n_shards=3, seed=1
    )
    parts = sharded.split()
    live = [_serve(parts[0]), _serve(parts[2])]
    dead = _DroppingBackend()
    router = _router([live[0], dead, live[1]], "shard")
    queries = [dataset[i] for i in range(6)]
    try:
        with ServiceClient(router.host, router.port, timeout=10) as client:
            t0 = time.monotonic()
            with pytest.raises(ServiceClientError) as excinfo:
                client.range_query_many(queries, RADIUS["Words"])
            assert time.monotonic() - t0 < 10
            assert excinfo.value.status == 503
            assert excinfo.value.payload["unavailable"] == [1]
            assert dead.requests >= 1
            # the shard stays down until a probe readmits it: named at once
            with pytest.raises(ServiceClientError) as excinfo:
                client.knn_query_many(queries, K)
            assert excinfo.value.status == 503 and "[1]" in str(excinfo.value)
            assert client.healthz()["live_backends"] == [0, 2]
        assert router.close(drain_timeout=5) is True
    finally:
        router.close()
        dead.close()
        for backend in live:
            backend.close()


@pytest.mark.parametrize("binary", [False, True], ids=["json", "binary"])
def test_replica_killed_mid_scatter_answers_from_the_survivor(datasets, binary):
    dataset = datasets["Words"].subset(range(150))
    index = _laesa(dataset)
    survivor = _serve(index)
    dead = _DroppingBackend()
    # the dead replica is backend 0: the first pick of an idle cluster
    router = _router([dead, survivor], "replica")
    queries = [dataset[i] for i in range(8)]
    radius = RADIUS["Words"]
    try:
        with ServiceClient(router.host, router.port, binary=binary) as client:
            assert client.range_query_many(queries, radius) == (
                index.range_query_many(queries, radius)
            )
            assert dead.requests == 1
            assert client.knn_query_many(queries, K) == index.knn_query_many(queries, K)
            rows = client.stats()["backends"]
            assert [row["up"] for row in rows] == [False, True]
            assert rows[0]["markdowns"] == 1
        assert router.close(drain_timeout=5) is True
    finally:
        router.close()
        dead.close()
        survivor.close()


# ---------------------------------------------------------------------------
# errors by type, and reloads as a member operation
# ---------------------------------------------------------------------------


def test_unsupported_operation_is_501_on_server_and_router(datasets):
    dataset = datasets["Words"].subset(range(60))
    backend = _serve(AESA.build(MetricSpace(dataset, CostCounters())))
    router = _router([backend], "replica")
    try:
        for front in (backend, router):
            with ServiceClient(front.host, front.port) as client:
                with pytest.raises(ServiceClientError) as excinfo:
                    client.delete(3)
                assert excinfo.value.status == 501, front
                assert "does not support delete" in str(excinfo.value)
    finally:
        router.close()
        backend.close()


def test_rolling_reload_stops_at_the_first_refusal(datasets, tmp_path):
    dataset = datasets["Words"].subset(range(80))
    path = tmp_path / "words.snap"
    save_index(_laesa(dataset), path)
    backends = [_serve(_laesa(dataset)) for _ in range(2)]
    router = _router(backends, "replica")
    try:
        with ServiceClient(router.host, router.port) as client:
            # one path per backend: the second does not exist
            with pytest.raises(ServiceClientError) as excinfo:
                client._request(
                    "POST",
                    "/admin/reload",
                    {"snapshots": [str(path), str(tmp_path / "missing.snap")]},
                )
            assert excinfo.value.status == 400
            assert "backend 1 refused reload" in str(excinfo.value)
            assert excinfo.value.payload["reloaded"] == [0]
            # a list of the wrong length is refused before any backend swaps
            with pytest.raises(ServiceClientError) as excinfo:
                client._request("POST", "/admin/reload", {"snapshots": [str(path)]})
            assert excinfo.value.status == 400
            assert "one path per backend (2 needed)" in str(excinfo.value)
            rows = client.reload(path)["backends"]
            assert [row["objects"] for row in rows] == [80, 80]
        # an in-process index restores one path, not a list
        with ServiceClient(backends[0].host, backends[0].port) as direct:
            with pytest.raises(ServiceClientError) as excinfo:
                direct._request("POST", "/admin/reload", {"snapshots": [str(path)]})
            assert excinfo.value.status == 400
            assert "not a snapshot path" in str(excinfo.value)
    finally:
        router.close()
        for backend in backends:
            backend.close()
