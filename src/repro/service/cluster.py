"""Multi-process serving cluster: a router fronting N backend servers.

One :class:`~repro.service.http.HttpQueryServer` process is GIL-bound --
its numpy kernels release the GIL only inside ``pairwise``, so a single
process caps out well below the hardware.  This module scales the same
HTTP surface across processes:

* **shard mode** -- each backend hosts one shard of a
  :class:`~repro.core.sharded.ShardedIndex` (split into per-shard
  snapshots by :func:`save_split` / ``repro snapshot --split N``).  The
  router scatter-gathers every query over all backends on a thread pool
  and merges the partial answers with the *exact* merge helpers sharded
  fan-out uses in-process (:meth:`ShardedIndex.merge_range_answers`,
  :meth:`ShardedIndex.merge_knn_answers`), so a routed answer is
  bit-for-bit the single-process answer: sorted id lists for MRQ,
  canonical ``(distance, id)`` tie-breaking for MkNNQ.  Every shard must
  be live; a missing shard is a clear 503 naming the shard id.
* **replica mode** -- each backend hosts the full index.  The router
  load-balances with least-in-flight routing, retries an idempotent query
  once on another backend when a connection dies mid-call, and answers
  503 only when *no* backend is live.  Mutations fan out to every replica
  (all must be live) and are never retried.

Either way the router speaks both wire codecs end-to-end: request bodies
are forwarded **verbatim** (same ``Content-Type``, ``Authorization``
passed through), shard-mode backend responses travel binary and are
re-encoded per the client's ``Accept``, replica-mode responses are
relayed untouched.  Health-checked membership (a background prober marks
backends down and back up), zero-downtime rolling ``POST /admin/reload``
(backends hot-swap one at a time while the others keep answering), and
per-backend telemetry (fan-out latency, in-flight, mark-downs, client
retries) in the shared :class:`~repro.obs.metrics.MetricsRegistry`.

:class:`ClusterSupervisor` spawns, supervises, and drains the whole
topology as child processes (``repro cluster --backends N`` is its CLI
form); :class:`ClusterRouter` alone fronts backends started elsewhere.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Sequence

from ..core.sharded import ShardedIndex
from ..obs.metrics import MetricsRegistry
from . import wire
from .http import (
    ServiceClient,
    _BadRequest,
    _Handler,
    _HttpAppBase,
    encode_neighbors,
)
from .snapshot import load_index, save_index
from .wire import BINARY_CONTENT_TYPE

__all__ = [
    "CLUSTER_MANIFEST_KIND",
    "ClusterError",
    "ClusterRouter",
    "ClusterSupervisor",
    "load_cluster_manifest",
    "save_split",
    "split_snapshot",
]

CLUSTER_MANIFEST_KIND = "repro-cluster"


class ClusterError(RuntimeError):
    """Raised for invalid topologies, manifests, or failed backend spawns."""


# -- per-shard snapshots + manifest -------------------------------------------


def _manifest_stem(path: Path) -> Path:
    """The naming stem: ``color.cluster.json`` and ``color.snap`` -> ``color``."""
    if path.name.endswith(".cluster.json"):
        return path.with_name(path.name[: -len(".cluster.json")])
    return path.with_suffix("") if path.suffix else path


def save_split(index: ShardedIndex, path) -> Path:
    """Save each shard of a ``ShardedIndex`` as its own snapshot + manifest.

    Writes ``{stem}.shard{i:02d}.snap`` for each part of
    :meth:`ShardedIndex.split` (a part answers in **global** ids, so a
    backend hosting it needs no id translation) and a
    ``{stem}.cluster.json`` manifest naming them in shard order.  Returns
    the manifest path -- the thing ``repro cluster --snapshot`` takes.
    """
    if not isinstance(index, ShardedIndex):
        raise ClusterError(
            f"can only split a ShardedIndex, got {type(index).__name__}"
        )
    stem = _manifest_stem(Path(path))
    stem.parent.mkdir(parents=True, exist_ok=True)
    shards = []
    for i, part in enumerate(index.split()):
        part_path = stem.parent / f"{stem.name}.shard{i:02d}.snap"
        info = save_index(part, part_path)
        shards.append({"snapshot": part_path.name, "objects": info.n_objects})
    manifest_path = stem.parent / f"{stem.name}.cluster.json"
    manifest = {
        "kind": CLUSTER_MANIFEST_KIND,
        "mode": "shard",
        "index": index.name,
        "n_objects": len(index.space),
        "shards": shards,
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest_path


def split_snapshot(snapshot_path, out) -> Path:
    """Split a snapshot holding a ``ShardedIndex`` into per-shard snapshots.

    Loads the snapshot, splits it, and writes the parts + manifest next to
    ``out`` (see :func:`save_split`).  Returns the manifest path.
    """
    index = load_index(snapshot_path)
    if not isinstance(index, ShardedIndex):
        raise ClusterError(
            f"{snapshot_path} holds a {type(index).__name__}; only a "
            "ShardedIndex snapshot can be split into shard backends"
        )
    return save_split(index, out)


def load_cluster_manifest(path) -> dict:
    """Parse and validate a cluster manifest; snapshot paths come back absolute."""
    path = Path(path)
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ClusterError(f"cannot read cluster manifest {path}: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("kind") != CLUSTER_MANIFEST_KIND:
        raise ClusterError(f"{path} is not a repro cluster manifest")
    shards = manifest.get("shards")
    if not isinstance(shards, list) or not shards:
        raise ClusterError(f"{path} names no shard snapshots")
    for entry in shards:
        snap = path.parent / entry["snapshot"]
        if not snap.exists():
            raise ClusterError(f"{path} names missing shard snapshot {snap}")
        entry["snapshot"] = str(snap)
    return manifest


# -- router internals ---------------------------------------------------------


class _Relay(Exception):
    """A ready-to-send response decided mid-route (errors, backend relays)."""

    def __init__(self, status: int, payload: dict):
        super().__init__(payload.get("error", ""))
        self.status = status
        self.payload = payload


class _RouterCtx:
    """One routed request: raw body + the headers the router must honour."""

    __slots__ = ("body", "content_type", "accept", "authorization", "binary")

    def __init__(self, body, content_type, accept, authorization, binary):
        self.body = body
        self.content_type = content_type
        self.accept = accept
        self.authorization = authorization
        self.binary = binary  # client asked for a binary response

    def payload(self) -> dict:
        """Decode the body per its ``Content-Type`` (only when a route
        genuinely needs a field -- forwarding never re-encodes)."""
        if wire.accepts_binary(self.content_type):
            try:
                payload = wire.loads(self.body)
            except wire.WireError as exc:
                raise _BadRequest(f"malformed binary body: {exc}") from None
        else:
            try:
                payload = json.loads(self.body)
            except json.JSONDecodeError as exc:
                raise _BadRequest(f"malformed JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _BadRequest("request body must be a payload object")
        return payload

    def forward_headers(self, accept: str | None = None) -> dict:
        """Headers for a backend call mirroring this request."""
        headers = {}
        if self.content_type:
            headers["Content-Type"] = self.content_type
        accept = accept if accept is not None else self.accept
        if accept:
            headers["Accept"] = accept
        if self.authorization:
            headers["Authorization"] = self.authorization
        return headers


class _RouterHandler(_Handler):
    """The shared HTTP handler, with POST routing over raw bodies.

    GET endpoints (``/healthz`` / ``/stats`` / ``/metrics``) come from the
    base handler unchanged -- the router duck-types the same ``health()``
    / ``stats()`` surface.  POST bodies are *not* decoded here: routes
    receive the raw bytes plus a :class:`_RouterCtx` so forwarding stays
    codec-blind, and reply either with a payload dict (re-encoded per the
    client's ``Accept``) or a verbatim ``(status, blob, content_type)``
    relay of one backend's response.
    """

    server_version = "repro-router/1"

    def _send_blob(self, status: int, blob: bytes, content_type: str | None) -> None:
        if self.app.draining:
            self.close_connection = True
        self._log_status, self._log_bytes = status, len(blob)
        self.send_response(status)
        self.send_header("Content-Type", content_type or "application/json")
        self.send_header("Content-Length", str(len(blob)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(blob)

    def _handle_post(self) -> None:
        app = self.app
        binary = self._negotiate()
        route = app.post_routes.get(self.path)
        if route is None:
            self._drain_body()
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        auth_error = app._auth_error(self.path, self.headers.get("Authorization"))
        if auth_error is not None:
            self._drain_body()
            self._send_json(401, {"error": auth_error})
            return
        if not app._begin_request():
            self._drain_body()
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
            length = int(self.headers.get("Content-Length") or 0)
            self._log_req_bytes = max(0, length)
            body = self.rfile.read(length) if length > 0 else b""
            if not body:
                raise _BadRequest("request body must be a payload object")
            ctx = _RouterCtx(
                body=body,
                content_type=self.headers.get("Content-Type"),
                accept=self.headers.get("Accept"),
                authorization=self.headers.get("Authorization"),
                binary=binary,
            )
            out = route(ctx)
            if len(out) == 2:
                self._send_json(out[0], out[1])
            else:
                self._send_blob(*out)
        except _Relay as exc:
            self._send_json(exc.status, exc.payload)
        except _BadRequest as exc:
            self._send_json(400, {"error": str(exc)})
        except Exception as exc:  # fan-out/merge errors -> 500, not a hang
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
        finally:
            app._end_request()


class _Backend:
    """One backend's routing state: address, clients, liveness, counters."""

    def __init__(self, backend_id: int, host: str, port: int, timeout: float):
        self.backend_id = backend_id
        self.host = host
        self.port = int(port)
        # forwarding client (pooled keep-alive per router thread) and a
        # separate short-timeout prober client, so a backend wedged
        # mid-query cannot stall the health loop behind a long timeout
        self.client = ServiceClient(host, port, timeout=timeout)
        self.probe_client = ServiceClient(host, port, timeout=min(2.0, timeout))
        self.up = True
        self.inflight = 0
        self.served = 0
        self.markdowns = 0
        self.lock = threading.Lock()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def close(self) -> None:
        self.client.close()
        self.probe_client.close()


def _parse_backend(spec, backend_id: int, timeout: float) -> _Backend:
    if isinstance(spec, _Backend):
        return spec
    if isinstance(spec, str):
        host, _, port = spec.rpartition(":")
        if not host or not port.isdigit():
            raise ClusterError(f"backend spec {spec!r} is not 'host:port'")
        return _Backend(backend_id, host, int(port), timeout)
    host, port = spec
    return _Backend(backend_id, host, int(port), timeout)


# retryable transport failures when talking to a backend: the backend
# died, restarted, or dropped the connection -- never an application error
_BACKEND_ERRORS = (OSError, http.client.HTTPException)


class ClusterRouter(_HttpAppBase):
    """Front N ``HttpQueryServer`` backends behind one HTTP endpoint.

    Args:
        backends: backend addresses, in shard order for shard mode --
            ``(host, port)`` tuples or ``"host:port"`` strings.
        mode: ``"shard"`` (each backend holds one shard; queries
            scatter-gather over all of them) or ``"replica"`` (each
            backend holds the full index; queries load-balance).
        host / port: the router's own bind address (port 0 = ephemeral).
        max_inflight: admission bound, as on :class:`HttpQueryServer`.
        timeout: per-backend-call socket timeout, seconds.
        probe_interval_s: health-probe period; 0 disables the prober
            (membership then changes only on request failures).
        metrics: optional registry; adds router fan-out latency,
            per-backend up/in-flight gauges, and mark-down counters next
            to the standard ``repro_http_*`` request metrics.
        auth_token: optional bearer token checked at the router's edge for
            mutation/admin paths.  Independently of it, every request's
            ``Authorization`` header is forwarded to the backends, so
            backend tokens are enforced end-to-end either way.

    The router holds no index: shard-mode merging uses the same static
    :class:`ShardedIndex` merge helpers the in-process fan-out uses, which
    is what makes routed answers bit-for-bit identical to single-process
    answers for both codecs.
    """

    _handler_class = _RouterHandler
    _thread_name = "repro-router"

    def __init__(
        self,
        backends: Sequence,
        mode: str = "shard",
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 128,
        timeout: float = 30.0,
        probe_interval_s: float = 2.0,
        access_log=None,
        metrics: MetricsRegistry | None = None,
        slow_query_ms: float | None = None,
        slow_query_log=None,
        auth_token: str | None = None,
    ):
        if mode not in ("shard", "replica"):
            raise ClusterError(f"mode must be 'shard' or 'replica', got {mode!r}")
        if not backends:
            raise ClusterError("a cluster needs at least one backend")
        self.mode = mode
        self.timeout = float(timeout)
        self.probe_interval_s = float(probe_interval_s)
        self._backends = [
            _parse_backend(spec, i, self.timeout) for i, spec in enumerate(backends)
        ]
        super().__init__(
            host=host,
            port=port,
            max_inflight=max_inflight,
            access_log=access_log,
            metrics=metrics,
            slow_query_ms=slow_query_ms,
            slow_query_log=slow_query_log,
            auth_token=auth_token,
        )
        self.post_routes = {
            "/range": lambda ctx: self._route_query(ctx, "/range"),
            "/knn": lambda ctx: self._route_query(ctx, "/knn"),
            "/range_many": lambda ctx: self._route_query(ctx, "/range_many"),
            "/knn_many": lambda ctx: self._route_query(ctx, "/knn_many"),
            "/insert": lambda ctx: self._route_mutation(ctx, "/insert"),
            "/delete": lambda ctx: self._route_mutation(ctx, "/delete"),
            "/admin/reload": self._route_reload,
        }
        self._admin_lock = threading.Lock()  # one rolling reload at a time
        self._pool = ThreadPoolExecutor(
            max_workers=min(32, max(8, 4 * len(self._backends))),
            thread_name_prefix="repro-router-fanout",
        )
        self._probe_stop = threading.Event()
        self._probe_thread: threading.Thread | None = None
        self._m_fanout = self._m_markdowns = None
        if metrics is not None:
            self._m_fanout = metrics.histogram(
                "repro_router_fanout_ms",
                "Backend fan-out wall time by endpoint, milliseconds.",
                labelnames=("endpoint",),
            )
            self._m_markdowns = metrics.counter(
                "repro_router_backend_markdowns_total",
                "Times a backend was marked down (probe or request failure).",
                labelnames=("backend",),
            )
            up_gauge = metrics.gauge(
                "repro_router_backend_up",
                "1 while the backend is considered live, else 0.",
                labelnames=("backend",),
            )
            inflight_gauge = metrics.gauge(
                "repro_router_backend_inflight",
                "Requests the router currently has in flight per backend.",
                labelnames=("backend",),
            )
            retries_gauge = metrics.gauge(
                "repro_router_backend_client_retries",
                "Stale-socket retries the router's pooled client performed.",
                labelnames=("backend",),
            )
            for b in self._backends:
                up_gauge.labels(b.address).set_function(
                    lambda b=b: 1.0 if b.up else 0.0
                )
                inflight_gauge.labels(b.address).set_function(
                    lambda b=b: float(b.inflight)
                )
                retries_gauge.labels(b.address).set_function(
                    lambda b=b: float(b.client.retries)
                )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ClusterRouter":
        super().start()
        if self.probe_interval_s > 0:
            self._probe_thread = threading.Thread(
                target=self._probe_loop, name="repro-router-probe", daemon=True
            )
            self._probe_thread.start()
        return self

    def _on_drained(self) -> None:
        self._probe_stop.set()
        if self._probe_thread is not None:
            self._probe_thread.join(timeout=5.0)
        self._pool.shutdown(wait=True)
        for backend in self._backends:
            backend.close()

    # -- membership ----------------------------------------------------------

    def _mark_down(self, backend: _Backend) -> None:
        with backend.lock:
            was_up, backend.up = backend.up, False
            if was_up:
                backend.markdowns += 1
        if was_up:
            # drop the pooled sockets: they may still reach the dead
            # backend's draining handler threads (or a predecessor on a
            # reused port), so readmission must reconnect from scratch
            backend.client.close()
            if self._m_markdowns is not None:
                self._m_markdowns.labels(backend.address).inc()

    def _mark_up(self, backend: _Backend) -> None:
        with backend.lock:
            backend.up = True

    def _probe_loop(self) -> None:
        """Periodic ``/healthz`` probes: mark backends down and back up.

        Probes run even while requests flow -- a request failure marks a
        backend down immediately, and only a successful probe brings it
        back, so a flapping backend cannot bounce per-request.
        """
        while not self._probe_stop.wait(self.probe_interval_s):
            for backend in self._backends:
                if self._probe_stop.is_set():
                    return
                try:
                    backend.probe_client.healthz()
                except Exception:
                    self._mark_down(backend)
                else:
                    self._mark_up(backend)

    def probe_now(self) -> None:
        """Run one synchronous probe round (tests and CLI readiness)."""
        for backend in self._backends:
            try:
                backend.probe_client.healthz()
            except Exception:
                self._mark_down(backend)
            else:
                self._mark_up(backend)

    # -- backend calls ---------------------------------------------------------

    def _call_backend(
        self, backend: _Backend, path: str, body, headers, idempotent=True
    ):
        """One forwarded call with in-flight accounting and fail-fast mark-down."""
        with backend.lock:
            backend.inflight += 1
        try:
            out = backend.client.forward(
                "POST", path, body=body, headers=headers, idempotent=idempotent
            )
        except _BACKEND_ERRORS:
            self._mark_down(backend)
            raise
        finally:
            with backend.lock:
                backend.inflight -= 1
                backend.served += 1
        return out

    @staticmethod
    def _decode_response(status: int, blob: bytes, content_type: str | None) -> dict:
        """A backend response body as a payload dict (either codec)."""
        if wire.accepts_binary(content_type):
            try:
                return wire.loads(blob)
            except wire.WireError as exc:
                return {"error": f"undecodable binary backend response: {exc}"}
        try:
            out = json.loads(blob) if blob else {}
        except json.JSONDecodeError:
            out = {"error": blob.decode("utf-8", "replace")}
        return out if isinstance(out, dict) else {"error": f"HTTP {status}"}

    # -- shard mode: scatter-gather --------------------------------------------

    def _scatter(self, ctx: _RouterCtx, path: str) -> list[dict]:
        """Forward the raw body to every backend; decoded payloads in shard order.

        Backends are asked for **binary** responses regardless of the
        client's codec (the router must decode partial answers to merge
        them, and the packed columnar form is the cheap one to decode);
        the merged answer is re-encoded per the client's ``Accept``.
        """
        down = [b.backend_id for b in self._backends if not b.up]
        if down:
            raise _Relay(
                503,
                {
                    "error": f"shard(s) {down} unavailable",
                    "missing_shards": down,
                },
            )
        headers = ctx.forward_headers(accept=BINARY_CONTENT_TYPE)
        t0 = time.perf_counter()
        futures = [
            self._pool.submit(self._call_backend, backend, path, ctx.body, headers)
            for backend in self._backends
        ]
        responses = []
        failed: list[int] = []
        for backend, future in zip(self._backends, futures):
            try:
                responses.append(future.result())
            except _BACKEND_ERRORS:
                failed.append(backend.backend_id)
                responses.append(None)
        if self._m_fanout is not None:
            self._m_fanout.labels(path).observe((time.perf_counter() - t0) * 1000.0)
        if failed:
            raise _Relay(
                503,
                {"error": f"shard(s) {failed} unavailable", "missing_shards": failed},
            )
        payloads = []
        for backend, (status, blob, content_type) in zip(self._backends, responses):
            payload = self._decode_response(status, blob, content_type)
            if status != 200:
                # all shards see the same request, so the first error is
                # representative (a 400 is a 400 everywhere); relay it
                raise _Relay(status, payload)
            payloads.append(payload)
        return payloads

    @staticmethod
    def _k_of(payload: dict) -> int:
        k = payload.get("k")
        if isinstance(k, bool) or not isinstance(k, (int, float)):
            raise _BadRequest("'k' must be a number")
        if k < 1 or k != int(k):
            raise _BadRequest("'k' must be a positive integer")
        return int(k)

    def _merge_shard_answers(self, ctx: _RouterCtx, path: str, payloads: list[dict]):
        if path == "/range":
            parts = [wire.unpack_id_list(p["ids"]) for p in payloads]
            merged = ShardedIndex.merge_range_answers(parts)
            if ctx.binary:
                return 200, {"ids": wire.pack_id_list(merged)}
            return 200, {"ids": [int(i) for i in merged]}
        if path == "/knn":
            k = self._k_of(ctx.payload())
            parts = [wire.unpack_neighbors(p["neighbors"]) for p in payloads]
            merged = ShardedIndex.merge_knn_answers(parts, k)
            if ctx.binary:
                return 200, {"neighbors": wire.pack_neighbors(merged)}
            return 200, {"neighbors": encode_neighbors(merged)}
        per_backend = [wire.unpack_id_lists(p["results"]) for p in payloads] if (
            path == "/range_many"
        ) else [wire.unpack_neighbor_lists(p["results"]) for p in payloads]
        lengths = {len(lists) for lists in per_backend}
        if len(lengths) != 1:
            raise _Relay(
                500, {"error": f"shards answered mismatched batch sizes {lengths}"}
            )
        if path == "/range_many":
            merged = [
                ShardedIndex.merge_range_answers(parts)
                for parts in zip(*per_backend)
            ]
            if ctx.binary:
                return 200, {"results": wire.pack_id_lists(merged)}
            return 200, {"results": [[int(i) for i in ids] for ids in merged]}
        k = self._k_of(ctx.payload())
        merged = [
            ShardedIndex.merge_knn_answers(parts, k) for parts in zip(*per_backend)
        ]
        if ctx.binary:
            return 200, {"results": wire.pack_neighbor_lists(merged)}
        return 200, {"results": [encode_neighbors(a) for a in merged]}

    # -- replica mode: least-in-flight -----------------------------------------

    def _pick_replica(self, exclude: set[int] = frozenset()) -> _Backend | None:
        """The live backend with the fewest in-flight requests.

        Ties break deterministically by total served then backend id, so
        an idle cluster round-robins instead of hammering backend 0.
        """
        best = None
        best_key = None
        for backend in self._backends:
            if not backend.up or backend.backend_id in exclude:
                continue
            with backend.lock:
                key = (backend.inflight, backend.served, backend.backend_id)
            if best_key is None or key < best_key:
                best, best_key = backend, key
        return best

    def _route_query(self, ctx: _RouterCtx, path: str):
        if self.mode == "shard":
            return self._merge_shard_answers(ctx, path, self._scatter(ctx, path))
        headers = ctx.forward_headers()
        tried: set[int] = set()
        soft: tuple | None = None
        last_error: Exception | None = None
        # one placement + one retry: a query is idempotent, so when the
        # picked backend's connection dies mid-call -- or it answers 503
        # (draining / at capacity) -- it is safe to re-ask a different
        # live backend once
        for _attempt in range(2):
            backend = self._pick_replica(exclude=tried)
            if backend is None:
                break
            tried.add(backend.backend_id)
            try:
                out = self._call_backend(backend, path, ctx.body, headers)
            except _BACKEND_ERRORS as exc:
                last_error = exc
                continue
            if out[0] == 503:
                soft = out
                continue
            return out
        if soft is not None:
            return soft  # every candidate shed load: relay the backend's 503
        if last_error is not None:
            raise _Relay(
                503, {"error": f"no live backend answered: {last_error}"}
            )
        raise _Relay(503, {"error": "no live backend"})

    # -- mutations + admin -----------------------------------------------------

    def _route_mutation(self, ctx: _RouterCtx, path: str):
        if self.mode == "shard":
            raise _Relay(
                501,
                {
                    "error": "mutations are not supported in shard mode "
                    "(rebuild and split a new snapshot, then rolling-reload)"
                },
            )
        if path == "/insert" and ctx.payload().get("object_id") is None:
            raise _BadRequest(
                "replica mode requires an explicit 'object_id' for /insert "
                "(auto-assigned ids would diverge across replicas)"
            )
        down = [b.backend_id for b in self._backends if not b.up]
        if down:
            # a mutation applied to a subset would silently fork the
            # replicas; require full membership instead
            raise _Relay(
                503,
                {"error": f"replica(s) {down} down; mutations need all replicas"},
            )
        headers = ctx.forward_headers()
        results = []
        for backend in self._backends:
            try:
                results.append(
                    self._call_backend(
                        backend, path, ctx.body, headers, idempotent=False
                    )
                )
            except _BACKEND_ERRORS as exc:
                applied = [b.backend_id for b in self._backends[: len(results)]]
                raise _Relay(
                    500,
                    {
                        "error": (
                            f"backend {backend.backend_id} failed mid-mutation "
                            f"({exc}); applied on {applied} -- replicas may "
                            "have diverged, rolling-reload a fresh snapshot"
                        )
                    },
                ) from None
        for status, blob, content_type in results:
            if status != 200:
                raise _Relay(status, self._decode_response(status, blob, content_type))
        return results[0]

    def _route_reload(self, ctx: _RouterCtx):
        """Zero-downtime rolling reload: one backend at a time, verified.

        Payload: ``{"snapshot": path}`` applies one snapshot to every
        backend (replica mode); ``{"snapshots": [p0..pN-1]}`` applies one
        per backend in shard order (shard mode).  Each backend hot-swaps
        while the others keep answering; a failure stops the roll and
        reports how far it got.
        """
        payload = ctx.payload()
        snapshots = payload.get("snapshots")
        if snapshots is None:
            snapshot = payload.get("snapshot")
            if not isinstance(snapshot, str) or not snapshot:
                raise _BadRequest("'snapshot' must be a path string")
            snapshots = [snapshot] * len(self._backends)
        if not isinstance(snapshots, list) or len(snapshots) != len(self._backends):
            raise _BadRequest(
                f"'snapshots' must list one path per backend "
                f"({len(self._backends)} needed)"
            )
        headers = {"Content-Type": "application/json"}
        if ctx.authorization:
            headers["Authorization"] = ctx.authorization
        with self._admin_lock:
            reloaded = []
            for backend, snapshot in zip(self._backends, snapshots):
                body = json.dumps({"snapshot": str(snapshot)}).encode("utf-8")
                try:
                    status, blob, content_type = self._call_backend(
                        backend, "/admin/reload", body, headers, idempotent=False
                    )
                except _BACKEND_ERRORS as exc:
                    raise _Relay(
                        500,
                        {
                            "error": f"backend {backend.backend_id} died during "
                            f"reload: {exc}",
                            "reloaded": reloaded,
                        },
                    ) from None
                response = self._decode_response(status, blob, content_type)
                if status != 200:
                    raise _Relay(
                        status,
                        {
                            "error": f"backend {backend.backend_id} refused reload: "
                            f"{response.get('error', status)}",
                            "reloaded": reloaded,
                        },
                    )
                reloaded.append(
                    {"backend": backend.backend_id, **response}
                )
        return 200, {"mode": self.mode, "reloaded": reloaded}

    # -- observability ---------------------------------------------------------

    def health(self) -> dict:
        live = [b.backend_id for b in self._backends if b.up]
        if self._draining:
            status = "draining"
        elif self.mode == "shard":
            status = "ok" if len(live) == len(self._backends) else "degraded"
        else:
            status = "ok" if live else "unavailable"
        return {
            "status": status,
            "role": "router",
            "mode": self.mode,
            "backends": len(self._backends),
            "live_backends": live,
            "uptime_s": round(time.monotonic() - self._t_start, 3),
        }

    def stats(self) -> dict:
        backends = []
        for b in self._backends:
            with b.lock:
                entry = {
                    "backend": b.backend_id,
                    "address": b.address,
                    "up": b.up,
                    "inflight": b.inflight,
                    "served": b.served,
                    "markdowns": b.markdowns,
                    **b.client.client_stats(),
                }
                up = b.up
            if up:
                # best effort: every backend exposes its planner's routing
                # stats; a dead one never breaks the router's own /stats
                try:
                    planner = b.probe_client.stats().get("planner")
                except Exception:
                    planner = None
                if planner is not None:
                    entry["planner"] = planner
            backends.append(entry)
        with self._lock:
            http_stats = {
                "active": self._active,
                "max_inflight": self.max_inflight,
                "served": self.requests_served,
                "rejected": self.rejected,
                "draining": self._draining,
            }
        return {
            "role": "router",
            "mode": self.mode,
            "http": http_stats,
            "backends": backends,
        }


# -- process supervision ------------------------------------------------------


class _BackendProcess:
    """One spawned ``repro serve`` child and the files that locate it."""

    def __init__(self, backend_id: int, process, port_file: Path):
        self.backend_id = backend_id
        self.process = process
        self.port_file = port_file
        self.port: int | None = None


class ClusterSupervisor:
    """Spawn, supervise, and drain a router + N backend topology.

    Each backend is a ``repro serve --http`` child process restoring one
    snapshot (a shard part in shard mode, the full snapshot in replica
    mode) on an ephemeral port published through ``--port-file``.  Once
    every backend answers ``/healthz``, the router starts in-process and
    fronts them.  :meth:`close` drains the router first (clients see 503,
    in-flight requests finish), then SIGINTs the backends and waits for
    their own graceful drains.

    Args:
        snapshots: one snapshot path per backend, in shard order.
        mode: ``"shard"`` or ``"replica"`` (see :class:`ClusterRouter`).
        host: bind address for router and backends.
        router_port: the router's port (0 = ephemeral).
        cache_size / cache_ttl_s: backend result-cache knobs.
        auth_token: bearer token handed to every backend *and* checked at
            the router's edge.
        max_inflight: router admission bound; backends get the same.
        startup_timeout_s: how long to wait for all backends to come up.
    """

    def __init__(
        self,
        snapshots: Sequence,
        mode: str = "shard",
        host: str = "127.0.0.1",
        router_port: int = 0,
        max_inflight: int = 128,
        cache_size: int = 1024,
        cache_ttl_s: float | None = None,
        auth_token: str | None = None,
        metrics: MetricsRegistry | None = None,
        timeout: float = 30.0,
        probe_interval_s: float = 2.0,
        startup_timeout_s: float = 60.0,
    ):
        if not snapshots:
            raise ClusterError("a cluster needs at least one backend snapshot")
        self.snapshots = [str(s) for s in snapshots]
        for snap in self.snapshots:
            if not Path(snap).exists():
                raise ClusterError(f"backend snapshot {snap} does not exist")
        self.mode = mode
        self.host = host
        self.router_port = router_port
        self.max_inflight = max_inflight
        self.cache_size = cache_size
        self.cache_ttl_s = cache_ttl_s
        self.auth_token = auth_token
        self.metrics = metrics
        self.timeout = timeout
        self.probe_interval_s = probe_interval_s
        self.startup_timeout_s = startup_timeout_s
        self.router: ClusterRouter | None = None
        self._children: list[_BackendProcess] = []
        self._workdir = None

    def _spawn_backend(self, backend_id: int, snapshot: str) -> _BackendProcess:
        port_file = Path(self._workdir.name) / f"backend{backend_id:02d}.port"
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--snapshot",
            snapshot,
            "--http",
            "0",
            "--host",
            self.host,
            "--port-file",
            str(port_file),
            "--cache-size",
            str(self.cache_size),
            "--max-inflight",
            str(self.max_inflight),
        ]
        if self.cache_ttl_s is not None:
            argv += ["--cache-ttl", str(self.cache_ttl_s)]
        if self.auth_token is not None:
            argv += ["--auth-token", self.auth_token]
        env = dict(os.environ)
        env.setdefault("PYTHONUNBUFFERED", "1")
        # the child must resolve the same `repro` package as this process,
        # even when it is importable only via sys.path (e.g. a test runner
        # injecting src/ without exporting PYTHONPATH)
        pkg_root = str(Path(__file__).resolve().parents[2])
        paths = env.get("PYTHONPATH", "")
        if pkg_root not in paths.split(os.pathsep):
            env["PYTHONPATH"] = pkg_root + (os.pathsep + paths if paths else "")
        process = subprocess.Popen(
            argv,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
        )
        return _BackendProcess(backend_id, process, port_file)

    def _await_backends(self) -> None:
        deadline = time.monotonic() + self.startup_timeout_s
        for child in self._children:
            while child.port is None:
                if child.process.poll() is not None:
                    stderr = (child.process.stderr.read() or b"").decode(
                        "utf-8", "replace"
                    )
                    raise ClusterError(
                        f"backend {child.backend_id} exited with code "
                        f"{child.process.returncode} during startup:\n{stderr[-2000:]}"
                    )
                if time.monotonic() > deadline:
                    raise ClusterError(
                        f"backend {child.backend_id} did not publish its port "
                        f"within {self.startup_timeout_s}s"
                    )
                try:
                    text = child.port_file.read_text().strip()
                    if text:
                        child.port = int(text)
                        break
                except (OSError, ValueError):
                    pass
                time.sleep(0.05)
            client = ServiceClient(self.host, child.port, timeout=2.0)
            try:
                while True:
                    try:
                        client.healthz()
                        break
                    except Exception:
                        if child.process.poll() is not None:
                            raise ClusterError(
                                f"backend {child.backend_id} died before "
                                "answering /healthz"
                            ) from None
                        if time.monotonic() > deadline:
                            raise ClusterError(
                                f"backend {child.backend_id} did not answer "
                                f"/healthz within {self.startup_timeout_s}s"
                            ) from None
                        time.sleep(0.05)
            finally:
                client.close()

    def start(self) -> "ClusterSupervisor":
        if self.router is not None:
            raise RuntimeError("cluster already started")
        self._workdir = tempfile.TemporaryDirectory(prefix="repro-cluster-")
        try:
            self._children = [
                self._spawn_backend(i, snap) for i, snap in enumerate(self.snapshots)
            ]
            self._await_backends()
            self.router = ClusterRouter(
                backends=[(self.host, child.port) for child in self._children],
                mode=self.mode,
                host=self.host,
                port=self.router_port,
                max_inflight=self.max_inflight,
                timeout=self.timeout,
                probe_interval_s=self.probe_interval_s,
                metrics=self.metrics,
                auth_token=self.auth_token,
            )
            self.router.start()
        except BaseException:
            self.close()
            raise
        return self

    @property
    def backend_ports(self) -> list[int]:
        return [child.port for child in self._children]

    def poll(self) -> list[int]:
        """Backend ids whose process has exited (the CLI's watchdog check)."""
        return [
            child.backend_id
            for child in self._children
            if child.process.poll() is not None
        ]

    def close(self, drain_timeout: float | None = None) -> None:
        """Drain the router, then gracefully stop every backend child."""
        if self.router is not None:
            self.router.close(drain_timeout=drain_timeout)
            self.router = None
        for child in self._children:
            if child.process.poll() is None:
                try:
                    child.process.send_signal(signal.SIGINT)
                except OSError:
                    pass
        deadline = time.monotonic() + 10.0
        for child in self._children:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                child.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                child.process.kill()
                child.process.wait(timeout=5.0)
            if child.process.stderr is not None:
                child.process.stderr.close()
        self._children = []
        if self._workdir is not None:
            self._workdir.cleanup()
            self._workdir = None

    def __enter__(self) -> "ClusterSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
