"""HTTP front-end: the :class:`QueryService` surface as JSON over a socket.

:class:`HttpQueryServer` is a stdlib-only threaded HTTP server, and the one
front-end whatever the service hosts -- a cluster router is this server
over a service whose member is a
:class:`~repro.service.cluster.ClusterIndex` of remote backends:

* **endpoints** -- ``POST /range``, ``POST /knn``, their batch variants
  ``POST /range_many`` / ``POST /knn_many``, mutations ``POST /insert`` /
  ``POST /delete``, observability ``GET /stats`` / ``GET /healthz``, and
  ``POST /admin/reload`` to hot-swap a newer snapshot;
* **layering preserved** -- each handler thread calls straight into the
  hosted :class:`~repro.service.service.QueryService`, so wire traffic
  flows through the exact cache -> dispatcher -> batch stack in-process
  callers use;
* **one handler** -- it reads a request's whole body before admitting it,
  decodes each wire value through the hosted space (a remote member's
  passes values through for its backends to validate), checks ``k`` and
  ``radius`` itself, and maps errors to statuses by type: 400 for a bad
  request or an :class:`~repro.core.index.InsertRefused`, 404 for a
  :class:`~repro.core.index.NotIndexed` delete, 501 for
  :class:`~repro.core.index.UnsupportedOperation`, a remote member's
  :class:`ServiceClientError` relayed with its own status (a backend's
  4xx, or 503 naming backends that could not answer), 500 for anything
  else -- an index fault past its checks among them;
* **backpressure** -- at most ``max_inflight`` requests run at once;
  excess requests are rejected immediately with ``503``;
* **graceful shutdown** -- :meth:`HttpQueryServer.close` stops admitting
  work, waits for every in-flight request, closes the service, and only
  then closes the listening socket.

Wire formats: **JSON** (the default) and the **binary fast path** of
:mod:`repro.service.wire`, negotiated per request via ``Content-Type``
(request body) and ``Accept`` (response body) naming
``application/x-repro-binary``.  Under JSON, vector queries travel as
arrays decoded to the hosted dataset's dtype, string queries (Words) as
strings, kNN answers as ``[distance, object_id]`` pairs; Python's
shortest-repr float encoding round-trips float64 exactly, and binary
frames carry raw little-endian buffers.  Either way HTTP answers are
**bit-for-bit** a direct :class:`QueryService` call's (``tests/test_http.py``
and the CI loopback smoke).  An optional **structured access log**
(``access_log=<file-like>``) writes one JSON line per request.

:class:`ServiceClient` is the matching programmatic client (pooled
keep-alive connections, re-established on stale sockets; ``binary=True``
for the binary protocol); see ``examples/http_quickstart.py``.
"""

from __future__ import annotations

import hmac
import http.client
import json
import math
import socket
import sys
import threading
import time
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from ..core.index import InsertRefused, NotIndexed, UnsupportedOperation
from ..core.queries import Neighbor
from ..obs import tracing
from ..obs.metrics import BYTE_SIZE_BUCKETS, MetricsRegistry
from . import wire
from .catalog import CatalogError
from .snapshot import SnapshotError
from .service import QueryService
from .wire import BINARY_CONTENT_TYPE, WireError

__all__ = [
    "HttpQueryServer",
    "ServiceClient",
    "ServiceClientError",
    "encode_object",
    "encode_neighbors",
    "decode_neighbors",
    "BINARY_CONTENT_TYPE",
]


# -- wire codec ---------------------------------------------------------------


def encode_object(obj):
    """A JSON-safe representation of a query/dataset object.

    Numpy vectors become JSON arrays (``tolist`` yields Python floats whose
    shortest-repr JSON encoding round-trips float64 exactly); strings and
    other JSON-native objects pass through.
    """
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def encode_neighbors(neighbors) -> list:
    """kNN answers as ``[distance, object_id]`` pairs."""
    return [[float(n.distance), int(n.object_id)] for n in neighbors]


def decode_neighbors(payload) -> list[Neighbor]:
    """The inverse of :func:`encode_neighbors`."""
    return [Neighbor(float(d), int(i)) for d, i in payload]


class _BadRequest(ValueError):
    """Raised by handlers for malformed bodies; mapped to HTTP 400."""


# -- server -------------------------------------------------------------------


class _ThreadedServer(ThreadingHTTPServer):
    """One handler thread per connection, none of them blocking exit.

    ``daemon_threads`` keeps idle keep-alive connections from pinning the
    process; ``block_on_close`` is off because :meth:`HttpQueryServer.close`
    performs its own (stronger) drain: it waits for in-flight *requests*,
    not for connection threads that may sit idle in a keep-alive read.
    """

    daemon_threads = True
    block_on_close = False
    allow_reuse_address = True
    # the socketserver default backlog of 5 resets bursts of concurrent
    # connects; admission control is the app's job (max_inflight -> 503),
    # so the kernel queue must be deep enough to let every burst reach it
    request_queue_size = 128


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-service/1"
    # keep-alive clients send many small request/response pairs on one
    # socket; without TCP_NODELAY the Nagle + delayed-ACK interaction can
    # stall each exchange by ~40 ms
    disable_nagle_algorithm = True

    @property
    def app(self) -> "HttpQueryServer":
        return self.server.app

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the structured access log replaces stderr noise

    # set per request by _send_json / do_*; consumed by the access log
    # and the request metrics
    _log_status = 0
    _log_bytes = 0
    _log_req_bytes = 0
    _log_codec = "json"

    def _send_json(self, status: int, payload: dict) -> None:
        """Send a payload in the request's negotiated codec.

        Despite the name, the payload is encoded with the binary wire codec
        when the request's ``Accept`` header asked for it -- error payloads
        included, so a binary client never has to guess a response's
        format from its status code.
        """
        if getattr(self, "_binary_accept", False):
            self._send(status, wire.dumps(payload), BINARY_CONTENT_TYPE)
        else:
            self._send(status, json.dumps(payload).encode("utf-8"), "application/json")

    def _send(self, status: int, blob: bytes, content_type: str) -> None:
        if self.app.draining:
            # graceful drain: answer, then shed the keep-alive connection so
            # pooled clients reconnect (and find the listener gone once the
            # drain completes) instead of talking to a lingering handler
            self.close_connection = True
        self._log_status, self._log_bytes = status, len(blob)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(blob)))
        if self.close_connection:
            # tell keep-alive clients the connection ends with this reply
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(blob)

    # early-reply paths (404/401) discard the request body up to this much;
    # a body any bigger is not worth reading just to be polite
    _DRAIN_LIMIT = 1 << 20
    # a body still incomplete this long after its headers is abandoned and
    # its connection closed (idle keep-alive waits for the *next* request
    # stay unbounded)
    _BODY_TIMEOUT_S = 10.0

    def _drain_body(self) -> None:
        """Consume the unread request body before an early reply.

        Replying with body bytes still queued desynchronises keep-alive
        parsing and -- worse -- makes the kernel RST the connection, which
        can destroy the reply before the client reads it.  Bodies within
        the limit are drained fully (connection stays reusable); anything
        larger, or of unknown length, is abandoned and the connection
        closed after the reply.
        """
        try:
            remaining = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            remaining = 1  # unknown length: the stream cannot be resynchronised
        budget = self._DRAIN_LIMIT
        while remaining > 0 and budget > 0:
            chunk = self.rfile.read(min(65536, remaining, budget))
            if not chunk:
                break
            remaining -= len(chunk)
            budget -= len(chunk)
        if remaining > 0:
            self.close_connection = True

    def _read_body(self) -> bytes | None:
        """The whole request body, or None for a bad, stalled or abandoned
        one -- its connection then closes (after a 400 / 408 reply)."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True  # the stream cannot be resynchronised
            self._send_json(400, {"error": "Content-Length must be a byte count"})
            return None
        self._log_req_bytes = length
        stalled = False
        self.connection.settimeout(self._BODY_TIMEOUT_S)
        try:
            body = self.rfile.read(length)
        except socket.timeout:
            body, stalled = b"", True
        except OSError:  # the client went away
            body = b""
        finally:
            self.connection.settimeout(None)
        if len(body) == length:
            return body
        self.close_connection = True
        if stalled:
            self._send_json(
                408,
                {"error": f"request body incomplete after {self._BODY_TIMEOUT_S:g} s"},
            )
        return None

    def _payload(self, body: bytes) -> dict:
        """The request body as a payload dict, per its ``Content-Type``."""
        if not body:
            raise _BadRequest("request body must be a payload object")
        if self._binary_body:
            try:
                payload = wire.loads(body)
            except WireError as exc:
                raise _BadRequest(f"malformed binary body: {exc}") from None
        else:
            try:
                payload = json.loads(body)
            except json.JSONDecodeError as exc:
                raise _BadRequest(f"malformed JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _BadRequest("request body must be a payload object")
        return payload

    def _negotiate(self) -> bool:
        """Fix this request's codecs: its body's from ``Content-Type``, its
        reply's from ``Accept`` (returned)."""
        self._binary_accept = wire.accepts_binary(self.headers.get("Accept"))
        self._binary_body = wire.accepts_binary(self.headers.get("Content-Type"))
        if self._binary_accept or self._binary_body:
            self._log_codec = "binary"
        return self._binary_accept

    def do_GET(self) -> None:
        self._logged(self._handle_get)

    def do_POST(self) -> None:
        self._logged(self._handle_post)

    def _logged(self, inner) -> None:
        """Run one request inside its observation envelope.

        The envelope is layered strictly cheapest-first: with no access
        log, no metrics registry, and no slow-query threshold configured
        this is one extra attribute check per request.  When configured it
        (1) records per-endpoint latency/size/outcome metrics, (2) emits
        the structured access-log line, and (3) -- for query endpoints
        under a slow-query threshold -- runs the request inside a root
        trace span and writes the span tree (with attributed batch costs)
        to the slow-query log when the request overruns the threshold.
        """
        app = self.app
        traced = (
            app.slow_query_ms is not None
            and self.command == "POST"
            and self.path in app.post_routes
        )
        plain = app.access_log is None and app.metrics is None and not traced
        if plain:
            inner()
            return
        root = None
        t0 = time.perf_counter()
        try:
            if traced:
                with tracing.start_trace(
                    "request", method=self.command, path=self.path
                ) as root:
                    inner()
            else:
                inner()
        finally:
            wall_ms = (time.perf_counter() - t0) * 1000.0
            app._observe_request(
                path=self.path,
                status=self._log_status,
                wall_ms=wall_ms,
                resp_bytes=self._log_bytes,
                req_bytes=self._log_req_bytes,
                codec=self._log_codec,
            )
            if app.access_log is not None:
                app._log_access(
                    method=self.command,
                    path=self.path,
                    status=self._log_status,
                    nbytes=self._log_bytes,
                    wall_ms=wall_ms,
                    codec=self._log_codec,
                )
            if root is not None and wall_ms >= app.slow_query_ms:
                app._log_slow_query(
                    root,
                    method=self.command,
                    path=self.path,
                    status=self._log_status,
                    codec=self._log_codec,
                )

    def _handle_get(self) -> None:
        self._negotiate()
        # observability endpoints bypass backpressure: health checks and
        # stats scrapes must keep answering while queries saturate the limit
        if self.path == "/healthz":
            self._send_json(200, self.app.health())
        elif self.path == "/stats":
            self._send_json(200, self.app.stats())
        elif self.path == "/metrics":
            if self.app.metrics is None:
                self._send_json(
                    404,
                    {"error": "metrics not enabled (serve with --metrics)"},
                )
            else:
                # the Prometheus text exposition format
                self._log_codec = "text"
                self._send(
                    200,
                    self.app.metrics.render().encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def _handle_post(self) -> None:
        app = self.app
        binary = self._negotiate()
        route = app.post_routes.get(self.path)
        if route is None:
            self._drain_body()
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        auth_error = app._auth_error(self.path, self.headers)
        if auth_error is not None:
            self._drain_body()
            self._send_json(401, {"error": auth_error})
            return
        # the body arrives before admission: a stalled or malformed one
        # never holds a slot, and a 503 leaves the connection in sync
        body = self._read_body()
        if body is None:
            return
        if not app._begin_request():
            self._send_json(
                503,
                {
                    "error": (
                        "draining: shutting down"
                        if app.draining
                        else f"at capacity ({app.max_inflight} in flight)"
                    )
                },
            )
            return
        try:
            self._send_json(200, route(self._payload(body), binary))
        except (_BadRequest, InsertRefused) as exc:
            self._send_json(400, {"error": str(exc)})
        except NotIndexed as exc:
            self._send_json(404, {"error": exc.args[0]})
        except UnsupportedOperation as exc:
            self._send_json(501, {"error": str(exc)})
        except ServiceClientError as exc:
            # a remote member's own answer: a backend's 4xx, or a 503
            # naming the backends that could not answer
            self._send_json(exc.status, exc.payload)
        except Exception as exc:  # index/service errors -> 500, not a hang
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
        finally:
            app._end_request()


class HttpQueryServer:
    """Expose one :class:`QueryService` as a threaded JSON HTTP server.

    Args:
        service: the (already built or restored) service to serve -- over
            in-process indexes, or over remote backends (a cluster router
            hosts a :class:`~repro.service.cluster.ClusterIndex`).
        host / port: bind address; port 0 picks a free ephemeral port
            (read it back from :attr:`port`).
        max_inflight: bound on concurrently executing requests -- the
            backpressure limit.  Requests beyond it receive ``503``
            immediately; clients are expected to retry.
        access_log: optional file-like object; when given, every request
            appends one JSON line (method, path, status, bytes, wall ms,
            codec).  Off by default -- serving must not pay logging IO
            unless asked to.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            when given, ``GET /metrics`` serves its Prometheus text
            exposition, per-endpoint request latency/outcome/size metrics
            are recorded, and the percentile summaries appear under
            ``/stats``'s ``telemetry`` key (share the registry with the
            hosted service to get its cache/dispatcher/batch metrics in
            the same exposition).
        slow_query_ms: optional threshold in milliseconds; when set, every
            query request runs inside a trace span tree and any request
            slower than the threshold writes one JSON line -- including
            the span tree with per-request attributed batch costs -- to
            ``slow_query_log``.  0 traces (and logs) every query request.
        slow_query_log: file-like sink for slow-query lines; defaults to
            ``sys.stderr``.
        auth_token: optional bearer token; when set, ``/insert``,
            ``/delete``, and ``/admin/reload`` require
            ``Authorization: Bearer <token>`` and answer 401 without it.
            Query and observability endpoints stay open.

    Use :meth:`start` to serve from a background thread and :meth:`close`
    (or the context manager form) to shut down gracefully: draining
    requests, then the dispatcher, then the socket -- in that order.
    """

    # paths that require ``Authorization: Bearer <token>`` when an
    # auth_token is configured; query and observability paths stay open
    _PROTECTED_PATHS = frozenset({"/insert", "/delete", "/admin/reload"})

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        access_log=None,
        metrics: MetricsRegistry | None = None,
        slow_query_ms: float | None = None,
        slow_query_log=None,
        auth_token: str | None = None,
    ):
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if slow_query_ms is not None and slow_query_ms < 0:
            raise ValueError(f"slow_query_ms must be >= 0, got {slow_query_ms}")
        self.service = service
        self.max_inflight = int(max_inflight)
        self.access_log = access_log
        self.metrics = metrics
        self.auth_token = auth_token
        self.slow_query_ms = slow_query_ms
        self.slow_query_log = (
            slow_query_log
            if slow_query_log is not None
            else (sys.stderr if slow_query_ms is not None else None)
        )
        self._slow_lock = threading.Lock()
        self._access_lock = threading.Lock()
        self._t_start = time.monotonic()
        self._m_requests = self._m_latency = None
        self._m_resp_bytes = self._m_wire_bytes = None
        if metrics is not None:
            self._m_requests = metrics.counter(
                "repro_http_requests_total",
                "HTTP requests by endpoint and status code.",
                labelnames=("endpoint", "status"),
            )
            self._m_latency = metrics.histogram(
                "repro_http_request_ms",
                "End-to-end request wall time by endpoint, milliseconds.",
                labelnames=("endpoint",),
            )
            self._m_resp_bytes = metrics.histogram(
                "repro_http_response_bytes",
                "Response body size by wire codec, bytes.",
                labelnames=("codec",),
                buckets=BYTE_SIZE_BUCKETS,
            )
            self._m_wire_bytes = metrics.counter(
                "repro_http_wire_bytes_total",
                "Body bytes moved by wire codec and direction.",
                labelnames=("codec", "direction"),
            )
            metrics.gauge(
                "repro_http_inflight_requests",
                "Requests currently executing (admitted, not finished).",
            ).set_function(lambda: self._active)
            metrics.gauge(
                "repro_http_uptime_seconds",
                "Seconds since this server object was constructed.",
            ).set_function(lambda: time.monotonic() - self._t_start)
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._active = 0
        self._draining = False
        self._closed = False
        self.requests_served = 0
        self.rejected = 0
        self._admin_lock = threading.Lock()  # one reload at a time
        self.post_routes = {
            "/range": self._handle_range,
            "/knn": self._handle_knn,
            "/range_many": self._handle_range_many,
            "/knn_many": self._handle_knn_many,
            "/insert": self._handle_insert,
            "/delete": self._handle_delete,
            "/plan": self._handle_plan,
            "/admin/reload": self._handle_reload,
        }
        self._httpd = _ThreadedServer((host, port), _Handler)
        self._httpd.app = self
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def is_serving(self) -> bool:
        """True while the background accept loop is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "HttpQueryServer":
        """Serve from a background thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def join(self, timeout: float | None = None) -> None:
        """Block on the serving thread (the CLI's foreground wait)."""
        if self._thread is not None:
            self._thread.join(timeout)

    def close(self, drain_timeout: float | None = None) -> bool:
        """Graceful shutdown: requests, then the service, then the socket.

        1. stop admitting work -- new requests are rejected with 503;
        2. wait (up to ``drain_timeout``) for in-flight requests to finish;
        3. close the service: its dispatcher drains, so every coalesced
           batch an HTTP thread is waiting on resolves, and its hosted
           indexes release what they hold (a remote member its sockets);
        4. only then stop the accept loop and close the listening socket.

        Idempotent.  With the default ``drain_timeout=None`` the drain
        waits as long as it takes, so requests admitted before the call
        complete with real answers, never connection resets.  Returns True
        for a clean drain; a finite timeout that expires returns False and
        shuts down anyway -- requests still in flight at that point may
        fail (the machinery they depend on is being closed), which is the
        caller's explicit trade when bounding the wait.
        """
        drained = True
        with self._idle:
            already = self._closed
            self._draining = True
            if not already:
                drained = self._idle.wait_for(
                    lambda: self._active == 0, timeout=drain_timeout
                )
                self._closed = True
        if already:
            return drained
        self.service.close()
        if self._thread is not None:
            # shutdown() handshakes with serve_forever; calling it on a
            # never-started server would wait forever on an event only
            # serve_forever's exit can set
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        return drained

    def __enter__(self) -> "HttpQueryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request admission (backpressure + drain accounting) ------------------

    def _begin_request(self) -> bool:
        with self._lock:
            if self._draining or self._active >= self.max_inflight:
                self.rejected += 1
                return False
            self._active += 1
            return True

    def _end_request(self) -> None:
        with self._idle:
            self._active -= 1
            self.requests_served += 1
            if self._active == 0:
                self._idle.notify_all()

    def _auth_error(self, path: str, headers) -> str | None:
        """None when the request may proceed, else the 401 error message.

        Token comparison is constant-time (:func:`hmac.compare_digest`);
        with no ``auth_token`` configured every path stays open.
        """
        if self.auth_token is None or path not in self._PROTECTED_PATHS:
            return None
        header = headers.get("Authorization")
        if not header or not header.startswith("Bearer "):
            return f"{path} requires 'Authorization: Bearer <token>'"
        if not hmac.compare_digest(header[len("Bearer ") :], self.auth_token):
            return "invalid bearer token"
        return None

    # -- observability ---------------------------------------------------------

    def _observe_request(
        self, path, status, wall_ms, resp_bytes, req_bytes, codec
    ) -> None:
        """Record one finished request into the metrics registry (if any).

        The endpoint label collapses unknown paths to ``other`` so a probe
        scanning random URLs cannot mint unbounded label children.
        """
        if self.metrics is None:
            return
        known = path in self.post_routes or path in ("/stats", "/healthz", "/metrics")
        endpoint = path if known else "other"
        self._m_requests.labels(endpoint, str(status)).inc()
        self._m_latency.labels(endpoint).observe(wall_ms)
        self._m_resp_bytes.labels(codec).observe(resp_bytes)
        self._m_wire_bytes.labels(codec, "out").inc(resp_bytes)
        if req_bytes:
            self._m_wire_bytes.labels(codec, "in").inc(req_bytes)

    def _log_slow_query(self, root, method, path, status, codec) -> None:
        """Write one slow request's JSON line: envelope + full span tree.

        The ``trace`` field is the root span's tree; ``batch_execute``
        spans inside it carry this request's attributed share of the
        batch's measured cost delta (``coalesced`` marks shared batches).
        """
        if self.slow_query_log is None:
            return
        record = {
            "ts": round(time.time(), 6),
            "kind": "slow_query",
            "method": method,
            "path": path,
            "status": status,
            "codec": codec,
            "wall_ms": round(root.wall_ms, 3) if root.wall_ms is not None else None,
            "threshold_ms": self.slow_query_ms,
            "trace": root.to_dict(),
        }
        line = json.dumps(record, sort_keys=True)
        with self._slow_lock:
            try:
                self.slow_query_log.write(line + "\n")
                self.slow_query_log.flush()
            except (OSError, ValueError):
                pass  # a full disk or closed sink must never fail a request

    def _log_access(self, **fields) -> None:
        """Append one JSON access-log line (called per request when enabled)."""
        fields["ts"] = round(time.time(), 6)
        fields["wall_ms"] = round(fields["wall_ms"], 3)
        line = json.dumps(fields, sort_keys=True)
        with self._access_lock:
            try:
                self.access_log.write(line + "\n")
                self.access_log.flush()
            except (OSError, ValueError):
                pass  # a full disk or closed sink must never fail a request


    def health(self) -> dict:
        out = {
            "status": "ok",
            "index": self.service.index_id,
            "members": self.service.catalog.ids(),
            "objects": len(self.service.index.space),
            "uptime_s": round(time.monotonic() - self._t_start, 3),
            "snapshot": self.service.snapshot_path,
            "reload_generation": self.service.reload_generation,
            **self.service.index.health(),
        }
        if self._draining:
            out["status"] = "draining"
        return out

    def stats(self) -> dict:
        out = self.service.stats()
        out.update(self.service.index.health())
        with self._lock:
            out["http"] = {
                "active": self._active,
                "max_inflight": self.max_inflight,
                "served": self.requests_served,
                "rejected": self.rejected,
                "draining": self._draining,
            }
        return out

    # -- payload decoding ------------------------------------------------------
    #
    # The hosted space turns wire values into query objects (a remote
    # member's passes them through, for its backends to validate); the
    # scalars of a request are checked here, whatever is hosted.

    def _decode(self, value, field: str = "query"):
        if value is None:
            raise _BadRequest(f"missing {field!r}")
        try:
            return self.service.index.space.decode(value, field)
        except ValueError as exc:
            raise _BadRequest(str(exc)) from None

    def _decode_many(self, payload) -> list:
        queries = payload.get("queries")
        if not (
            isinstance(queries, list) and queries
            or isinstance(queries, np.ndarray) and queries.size
        ):
            raise _BadRequest("'queries' must be a non-empty batch")
        try:
            return self.service.index.space.decode_many(queries)
        except ValueError as exc:
            raise _BadRequest(str(exc)) from None

    @staticmethod
    def _number(payload, field: str) -> float:
        value = payload.get(field)
        # bool subclasses int; NaN compares unequal to itself
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise _BadRequest(f"{field!r} must be a number")
        if value != value:
            raise _BadRequest(f"{field!r} must be a number, not NaN")
        return float(value)

    def _radius(self, payload) -> float:
        radius = self._number(payload, "radius")
        if radius < 0:
            raise _BadRequest("'radius' must be >= 0")
        return radius

    def _k(self, payload) -> int:
        k = self._number(payload, "k")
        if not 1 <= k < math.inf or k != int(k):
            raise _BadRequest("'k' must be a positive integer")
        return int(k)

    def _pin(self, payload: dict) -> str | None:
        """The optional ``"index"`` field: pin one hosted member by id."""
        pin = payload.get("index")
        if pin is None:
            return None
        if not isinstance(pin, str) or not pin:
            raise _BadRequest("'index' must be a member id string")
        catalog = self.service.catalog
        if pin not in catalog:
            raise _BadRequest(
                f"unknown index {pin!r}; members: {', '.join(catalog.ids())}"
            )
        return pin

    # -- query endpoints -------------------------------------------------------

    def _handle_range(self, payload: dict, binary: bool = False) -> dict:
        query = self._decode(payload.get("query"))
        radius = self._radius(payload)
        ids = self.service.range_query(query, radius, index=self._pin(payload))
        if binary:
            return {"ids": wire.pack_id_list(ids)}
        return {"ids": [int(i) for i in ids]}

    def _handle_knn(self, payload: dict, binary: bool = False) -> dict:
        query = self._decode(payload.get("query"))
        k = self._k(payload)
        neighbors = self.service.knn_query(query, k, index=self._pin(payload))
        if binary:
            return {"neighbors": wire.pack_neighbors(neighbors)}
        return {"neighbors": encode_neighbors(neighbors)}

    def _handle_range_many(self, payload: dict, binary: bool = False) -> dict:
        queries = self._decode_many(payload)
        radius = self._radius(payload)
        answers = self.service.range_query_many(
            queries, radius, index=self._pin(payload)
        )
        if binary:
            return {"results": wire.pack_id_lists(answers)}
        return {"results": [[int(i) for i in ids] for ids in answers]}

    def _handle_knn_many(self, payload: dict, binary: bool = False) -> dict:
        queries = self._decode_many(payload)
        k = self._k(payload)
        answers = self.service.knn_query_many(queries, k, index=self._pin(payload))
        if binary:
            return {"results": wire.pack_neighbor_lists(answers)}
        return {"results": [encode_neighbors(a) for a in answers]}

    def _handle_plan(self, payload: dict, binary: bool = False) -> dict:
        """The planner's explain table for one query shape: a row a member."""
        if "radius" in payload:
            kind, param = "range", self._radius(payload)
        elif "k" in payload:
            kind, param = "knn", float(self._k(payload))
        else:
            raise _BadRequest("pass 'radius' (MRQ) or 'k' (MkNNQ) to plan")
        batch_size = 1
        if "batch_size" in payload:
            batch_size = self._number(payload, "batch_size")
            if batch_size < 1 or batch_size != int(batch_size):
                raise _BadRequest("'batch_size' must be a positive integer")
            batch_size = int(batch_size)
        return {"plan": self.service.planner.explain(kind, param, batch_size)}

    # -- mutation + admin endpoints --------------------------------------------

    @staticmethod
    def _object_id(payload, required: bool) -> int | None:
        object_id = payload.get("object_id")
        if object_id is None and not required:
            return None
        # bool subclasses int: JSON true must not silently target id 1
        if not isinstance(object_id, int) or isinstance(object_id, bool):
            raise _BadRequest("'object_id' must be an integer")
        return object_id

    def _handle_insert(self, payload: dict, binary: bool = False) -> dict:
        obj = self._decode(payload.get("object"), "object")
        object_id = self._object_id(payload, required=False)
        return {"object_id": int(self.service.insert(obj, object_id=object_id))}

    def _handle_delete(self, payload: dict, binary: bool = False) -> dict:
        object_id = self._object_id(payload, required=True)
        self.service.delete(object_id)
        return {"deleted": object_id}

    def _handle_reload(self, payload: dict, binary: bool = False) -> dict:
        """Hot-swap what the service hosts.  ``{"snapshot": path}``, or --
        for a member rolling out to several backends -- ``{"snapshots":
        [path, ...]}``, one per backend; the reply is the new header plus
        the hosted index's :meth:`~repro.core.index.MetricIndex.health`."""
        target = payload.get("snapshots", payload.get("snapshot"))
        paths = target if isinstance(target, list) and target else [target]
        if not all(isinstance(path, str) and path for path in paths):
            raise _BadRequest("'snapshot' must be a path string")
        with self._admin_lock:
            try:
                info = self.service.reload_from_snapshot(target)
            except (OSError, SnapshotError, CatalogError) as exc:
                raise _BadRequest(f"cannot reload {target!r}: {exc}") from None
        return {
            "reloaded": target,
            "index": info.index_name,
            "objects": info.n_objects,
            "distance": info.distance_name,
            "dataset": info.dataset_name,
            **self.service.index.health(),
        }


# -- client -------------------------------------------------------------------


class ServiceClientError(RuntimeError):
    """A non-200 response from the server; carries the HTTP status and, as
    ``payload``, the decoded reply -- what a router relays to its client."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = {"error": message}


class ServiceClient:
    """Programmatic client for :class:`HttpQueryServer` (stdlib only).

    Connections are **pooled keep-alive**: the server speaks HTTP/1.1, so
    sequential calls from a thread reuse one TCP connection instead of
    paying a handshake per request (``connections_opened`` counts how many
    sockets were actually created).  The pool is per *thread* -- a client
    shared across threads gives each thread its own pooled connection, so
    concurrent callers still fan out in parallel (and still coalesce in
    the server's dispatcher).  A request that hits a stale pooled socket
    -- the server dropped an idle keep-alive connection, or the process
    was restarted -- is transparently retried once on a fresh connection;
    errors on a brand-new connection propagate, and mutations
    (:meth:`insert` / :meth:`delete`) are never resent -- a retry could
    double-apply one whose connection died after the server processed it.
    Use as a context manager (or call :meth:`close`) to release the
    pooled sockets.

    Query objects are encoded with :func:`encode_object` (numpy vectors
    accepted directly); kNN answers come back as
    :class:`~repro.core.queries.Neighbor` lists, bit-for-bit equal to a
    direct :class:`QueryService` call's.

    ``binary=True`` sends numpy arrays as :mod:`repro.service.wire`'s
    framed binary codec: a request carrying one travels as a frame of raw
    buffers (a whole ``*_query_many`` vector batch as one 2-D matrix) and
    asks, through ``Accept``, for a framed reply whose answers decode from
    flat columnar arrays.  A request without an array -- strings, ids, a
    health check -- goes as plain JSON both ways, which a frame would only
    wrap.  Same endpoints, same answers bit-for-bit -- only the codec tax
    changes.
    """

    # a stale pooled socket surfaces as one of these on the next request;
    # they are safe to retry once on a fresh connection because the request
    # never reached (or never completed at) the application layer
    _RETRYABLE = (
        http.client.RemoteDisconnected,
        http.client.CannotSendRequest,
        http.client.BadStatusLine,
        ConnectionResetError,
        BrokenPipeError,
    )

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        timeout: float = 30.0,
        binary: bool = False,
        auth_token: str | None = None,
    ):
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.binary = bool(binary)
        self.auth_token = auth_token
        self.connections_opened = 0
        # stale-socket retries actually performed (each one re-sent a
        # request on a fresh connection) -- the observable trace of
        # server restarts and dropped keep-alive sockets
        self.retries = 0
        self._local = threading.local()
        self._lock = threading.Lock()  # guards the counter and registry
        # (owning thread, connection) pairs: the registry lets close()
        # release every thread's pooled socket, and lets _connect prune
        # sockets whose owning thread exited (nothing would reuse them,
        # and each pins a server handler thread in a keep-alive read)
        self._conns: list[tuple[threading.Thread, HTTPConnection]] = []

    # -- connection pool -------------------------------------------------------

    def _pooled(self) -> HTTPConnection | None:
        """This thread's live pooled connection, if any."""
        conn = getattr(self._local, "conn", None)
        if conn is not None and conn.sock is None:
            # closed underneath (close() was called, or the exchange that
            # carried a Connection: close reply already dropped the socket)
            self._discard(conn)
            conn = None
        return conn

    def _connect(self) -> HTTPConnection:
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        conn.connect()
        # pooled sockets carry many small exchanges: disable Nagle so a
        # request is not held back waiting for the previous delayed ACK
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._lock:
            self.connections_opened += 1
            kept = []
            for thread, pooled in self._conns:
                if thread.is_alive():
                    kept.append((thread, pooled))
                else:
                    pooled.close()
            kept.append((threading.current_thread(), conn))
            self._conns = kept
        self._local.conn = conn
        return conn

    def _discard(self, conn: HTTPConnection) -> None:
        conn.close()
        if getattr(self._local, "conn", None) is conn:
            self._local.conn = None
        with self._lock:
            self._conns = [(t, c) for t, c in self._conns if c is not conn]

    def close(self) -> None:
        """Close every pooled connection (the client stays usable)."""
        with self._lock:
            conns, self._conns = self._conns, []
        for _thread, conn in conns:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request machinery -----------------------------------------------------

    def _exchange(self, conn: HTTPConnection, method, path, body, headers):
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        blob = response.read()  # drain fully so the connection stays reusable
        content_type = response.getheader("Content-Type")
        if response.will_close:
            self._discard(conn)
        return response.status, blob, content_type

    def _roundtrip(
        self,
        method: str,
        path: str,
        body,
        headers: dict,
        idempotent: bool = True,
    ) -> tuple[int, bytes, str | None]:
        """One exchange with the stale-socket retry: (status, body, type)."""
        conn = self._pooled()
        reused = conn is not None
        if conn is None:
            conn = self._connect()
        try:
            return self._exchange(conn, method, path, body, headers)
        except self._RETRYABLE:
            self._discard(conn)
            # only idempotent requests may be resent: a mutation whose
            # connection died *after* the server processed it (response
            # phase) would double-apply on retry
            if not reused or not idempotent:
                raise
            with self._lock:
                self.retries += 1
            conn = self._connect()
            try:
                return self._exchange(conn, method, path, body, headers)
            except Exception:
                self._discard(conn)
                raise
        except Exception:
            # unknown failure mid-exchange: the connection state is
            # indeterminate, so do not reuse it
            self._discard(conn)
            raise

    def _request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        idempotent: bool = True,
        raw: bool = False,
    ):
        body = None
        headers = {}
        if self.auth_token is not None:
            headers["Authorization"] = f"Bearer {self.auth_token}"
        if payload is not None:
            # a frame pays off for the raw buffers it carries: a payload with
            # an array goes framed and asks for a framed reply; anything else
            # is plain JSON both ways, which a frame would only wrap
            if self.binary and any(
                isinstance(value, np.ndarray) for value in payload.values()
            ):
                body = wire.dumps(payload)
                headers["Content-Type"] = headers["Accept"] = BINARY_CONTENT_TYPE
            else:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
        status, blob, content_type = self._roundtrip(
            method, path, body, headers, idempotent=idempotent
        )
        if raw and status == 200:
            # text endpoints (/metrics): hand back the body verbatim
            return blob.decode("utf-8")
        # decode by the *response's* Content-Type, not by what was asked
        # for: error paths and non-binary servers may answer JSON to a
        # binary-accepting client
        if wire.accepts_binary(content_type):
            try:
                out = wire.loads(blob)
            except WireError as exc:
                out = {"error": f"undecodable binary response: {exc}"}
        else:
            try:
                out = json.loads(blob) if blob else {}
            except json.JSONDecodeError:
                out = {"error": blob.decode("utf-8", "replace")}
        if status != 200:
            error = ServiceClientError(status, out.get("error", "unexpected response"))
            error.payload = out
            raise error
        return out

    # -- queries ---------------------------------------------------------------

    def _encode_query(self, obj):
        """One query in this client's wire form (ndarray under binary)."""
        if self.binary and isinstance(obj, np.ndarray):
            return obj
        return encode_object(obj)

    def _encode_batch(self, queries):
        """A query batch: one 2-D matrix under binary when vectors stack."""
        queries = list(queries)
        if self.binary:
            try:
                qmat = np.asarray(queries)
            except (ValueError, TypeError):
                qmat = None
            if qmat is not None and qmat.ndim == 2 and qmat.dtype.kind in "biufc":
                return qmat
        return [encode_object(q) for q in queries]

    def range_query(self, query_obj, radius: float, index: str | None = None) -> list[int]:
        payload = {"query": self._encode_query(query_obj), "radius": float(radius)}
        if index is not None:
            payload["index"] = index
        ids = self._request("POST", "/range", payload)["ids"]
        return wire.unpack_id_list(ids)

    def knn_query(self, query_obj, k: int, index: str | None = None) -> list[Neighbor]:
        payload = {"query": self._encode_query(query_obj), "k": int(k)}
        if index is not None:
            payload["index"] = index
        neighbors = self._request("POST", "/knn", payload)["neighbors"]
        return wire.unpack_neighbors(neighbors)

    def range_query_many(
        self, queries, radius: float, index: str | None = None
    ) -> list[list[int]]:
        payload = {"queries": self._encode_batch(queries), "radius": float(radius)}
        if index is not None:
            payload["index"] = index
        results = self._request("POST", "/range_many", payload)["results"]
        return wire.unpack_id_lists(results)

    def knn_query_many(
        self, queries, k: int, index: str | None = None
    ) -> list[list[Neighbor]]:
        payload = {"queries": self._encode_batch(queries), "k": int(k)}
        if index is not None:
            payload["index"] = index
        results = self._request("POST", "/knn_many", payload)["results"]
        return wire.unpack_neighbor_lists(results)

    def plan(
        self,
        radius: float | None = None,
        k: int | None = None,
        batch_size: int = 1,
    ) -> list[dict]:
        """The server planner's explain rows, one per hosted member."""
        if (radius is None) == (k is None):
            raise ValueError("pass exactly one of radius= or k=")
        payload: dict = {"batch_size": int(batch_size)}
        if radius is not None:
            payload["radius"] = float(radius)
        else:
            payload["k"] = int(k)
        return self._request("POST", "/plan", payload)["plan"]

    # -- mutations + admin -----------------------------------------------------

    def insert(self, obj, object_id: int | None = None) -> int:
        payload = {"object": self._encode_query(obj)}
        if object_id is not None:
            payload["object_id"] = int(object_id)
        return int(
            self._request("POST", "/insert", payload, idempotent=False)["object_id"]
        )

    def delete(self, object_id: int) -> None:
        self._request("POST", "/delete", {"object_id": int(object_id)}, idempotent=False)

    def reload(self, snapshot_path) -> dict:
        return self._request("POST", "/admin/reload", {"snapshot": str(snapshot_path)})

    # -- observability ---------------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def metrics_text(self) -> str:
        """The server's ``GET /metrics`` Prometheus exposition, verbatim."""
        return self._request("GET", "/metrics", raw=True)

    def client_stats(self) -> dict:
        """This client's own counters (no server round-trip)."""
        with self._lock:
            return {
                "connections_opened": self.connections_opened,
                "retries": self.retries,
                "pooled": len(self._conns),
            }
