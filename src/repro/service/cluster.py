"""Multi-process serving: remote backends as index members.

One :class:`~repro.service.http.HttpQueryServer` process is GIL-bound --
its numpy kernels release the GIL only inside ``pairwise``, so a single
process caps out well below the hardware.  This module scales the same
HTTP surface across processes without a second front-end: a backend
*server* becomes an index *member*, and a router is the one
``HttpQueryServer`` over a service hosting those members.

* :class:`RemoteIndex` -- one backend behind the
  :class:`~repro.core.index.MetricIndex` query surface: a binary
  :class:`~repro.service.http.ServiceClient`, liveness, in-flight /
  served / mark-down counts, and ``/healthz`` probing.
* :class:`ClusterIndex` -- N remote backends hosted as one member.
  **Shard mode**: each backend holds one :meth:`ShardedIndex.split` part
  (written by :func:`save_split` / ``repro snapshot --split N``), which
  answers in global ids; queries scatter through ``ShardedIndex``'s own
  fan-out over :class:`RemoteIndex` parts and merge with its exact
  ``merge_*`` helpers, so a routed answer is bit-for-bit the in-process
  one.  Every shard must be live, else 503 naming the missing shards;
  mutations are 501.  **Replica mode**: each backend holds the full index;
  a query goes to the live replica with the fewest requests in flight
  (ties by served, then id) and is retried once elsewhere on a transport
  error or a 503; a mutation goes to every replica or, with one down, is
  refused with 503.  Rolling ``POST /admin/reload`` is the member's
  :meth:`~ClusterIndex.reload`: one backend at a time, verified.

The router is ``HttpQueryServer(QueryService(ClusterIndex(...),
cache_size=0, use_dispatcher=False))`` and holds no objects.  What it
answers for its remote member:

* ``len(space)`` -- the object counts the backends reported at their last
  probe or reload: summed over shards, the largest over replicas;
* decoding -- none: a wire value passes through untouched, the backends
  validate it, and a bad query is their 400, relayed;
* cache invalidation -- nothing to drop: the router caches nothing, and
  its space has no metric, so a mutation wipes an empty namespace while
  each backend invalidates its own cache.

:class:`ClusterSupervisor` spawns, supervises, and drains the whole
topology as child processes (``repro cluster --backends N`` is its CLI
form).
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
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from ..core.counters import CostCounters
from ..core.index import MetricIndex, UnsupportedOperation
from ..core.sharded import ShardedIndex
from ..obs.metrics import MetricsRegistry
from .catalog import CatalogError, manifest_stem, read_manifest
from .http import HttpQueryServer, ServiceClient, ServiceClientError
from .service import QueryService
from .snapshot import SnapshotInfo, load_index, save_index

__all__ = [
    "CLUSTER_MANIFEST_KIND",
    "BackendUnavailable",
    "ClusterError",
    "ClusterIndex",
    "ClusterSupervisor",
    "RemoteIndex",
    "load_cluster_manifest",
    "save_split",
    "split_snapshot",
]

CLUSTER_MANIFEST_KIND = "repro-cluster"


class ClusterError(CatalogError):
    """Raised for invalid topologies, manifests, or failed backend spawns.

    A :class:`CatalogError`: a rolling reload asked of a topology that
    cannot take it is refused with 400, like any other reload error."""


# -- per-shard snapshots + manifest -------------------------------------------


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
    stem = manifest_stem(Path(path), ".cluster.json")
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
    return read_manifest(
        path, CLUSTER_MANIFEST_KIND, "shards", "shard", "shard snapshots", ClusterError
    )


# -- remote members -----------------------------------------------------------

# a transport failure talking to a backend: it died, restarted or dropped
# the connection -- never an application error
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException)
_CALL_TIMEOUT_S = 30.0
# probes get their own short-timeout client, so a backend wedged mid-query
# cannot stall the health loop behind a long call
_PROBE_TIMEOUT_S = 2.0


class BackendUnavailable(ServiceClientError):
    """Backends that could not answer: a 503 naming them."""

    def __init__(self, backend_ids: list[int], detail: str = ""):
        message = f"backend(s) {backend_ids} unavailable"
        super().__init__(503, f"{message}: {detail}" if detail else message)
        self.payload["unavailable"] = list(backend_ids)


class _RemoteSpace:
    """What a router knows of the data behind a remote member: how many
    objects there are -- and no objects, no dataset, no metric."""

    dataset = None
    distance = None

    def __init__(self, count):
        self.counters = CostCounters()
        self._count = count

    def __len__(self) -> int:
        return self._count()

    @staticmethod
    def decode(value, field: str = "query"):
        return value  # the backend validates it

    @staticmethod
    def decode_many(values):
        return values


class RemoteIndex(MetricIndex):
    """One backend :class:`HttpQueryServer` as an index member.

    Queries and mutations are calls of a pooled binary
    :class:`ServiceClient`; answers come back in the backend's ids (global
    ones, for a ``split()`` part).  A transport failure marks the backend
    down and raises :class:`BackendUnavailable`; a backend's own non-200
    answer raises its :class:`ServiceClientError`.  Only a successful
    :meth:`probe` marks a backend back up, so a flapping one cannot bounce
    per request.
    """

    name = "Remote"

    def __init__(
        self,
        host: str,
        port: int,
        backend_id: int = 0,
        auth_token: str | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        super().__init__(_RemoteSpace(lambda: self.objects))
        self.backend_id = backend_id
        self.host = host
        self.port = int(port)
        self.client = ServiceClient(
            host, port, timeout=_CALL_TIMEOUT_S, binary=True, auth_token=auth_token
        )
        self.probe_client = ServiceClient(host, port, timeout=_PROBE_TIMEOUT_S)
        self.up = True
        self.inflight = self.served = self.markdowns = self.objects = 0
        self._lock = threading.Lock()
        self._markdown_total = None
        if metrics is not None:
            label = self.address
            metrics.gauge(
                "repro_router_backend_up",
                "1 while the backend is considered live, else 0.",
                labelnames=("backend",),
            ).labels(label).set_function(lambda: 1.0 if self.up else 0.0)
            metrics.gauge(
                "repro_router_backend_inflight",
                "Requests the router currently has in flight per backend.",
                labelnames=("backend",),
            ).labels(label).set_function(lambda: float(self.inflight))
            metrics.gauge(
                "repro_router_backend_client_retries",
                "Stale-socket retries the router's pooled client performed.",
                labelnames=("backend",),
            ).labels(label).set_function(lambda: float(self.client.retries))
            self._markdown_total = metrics.counter(
                "repro_router_backend_markdowns_total",
                "Times a backend was marked down (probe or request failure).",
                labelnames=("backend",),
            ).labels(label)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- calls -----------------------------------------------------------------

    def _call(self, method, *args):
        with self._lock:
            self.inflight += 1
        try:
            return method(*args)
        except _TRANSPORT_ERRORS as exc:
            self.mark_down()
            raise BackendUnavailable([self.backend_id], str(exc)) from None
        finally:
            with self._lock:
                self.inflight -= 1
                self.served += 1

    def range_query(self, query_obj, radius: float) -> list[int]:
        return self._call(self.client.range_query, query_obj, radius)

    def knn_query(self, query_obj, k: int):
        return self._call(self.client.knn_query, query_obj, k)

    # a batch of one travels as /range or /knn, where the backend's
    # dispatcher can coalesce it with other callers' single queries
    def range_query_many(self, queries, radius: float) -> list[list[int]]:
        queries = list(queries)
        if len(queries) == 1:
            return [self.range_query(queries[0], radius)]
        return self._call(self.client.range_query_many, queries, radius)

    def knn_query_many(self, queries, k: int):
        queries = list(queries)
        if len(queries) == 1:
            return [self.knn_query(queries[0], k)]
        return self._call(self.client.knn_query_many, queries, k)

    def insert(self, obj, object_id: int | None = None) -> int:
        return self._call(self.client.insert, obj, object_id)

    def delete(self, object_id: int) -> None:
        self._call(self.client.delete, object_id)

    def reload(self, snapshot) -> SnapshotInfo:
        reply = self._call(self.client.reload, snapshot)
        self.objects = reply["objects"]
        return SnapshotInfo(
            format_version=0,
            index_name=reply["index"],
            index_class=type(self).__name__,
            n_objects=reply["objects"],
            distance_name=reply["distance"],
            dataset_name=reply["dataset"],
            payload_bytes=0,
        )

    # -- membership ------------------------------------------------------------

    def mark_down(self) -> None:
        with self._lock:
            was_up, self.up = self.up, False
            if was_up:
                self.markdowns += 1
        if was_up:
            # drop the pooled sockets: they may still reach the dead
            # backend's draining handler threads (or a predecessor on a
            # reused port), so readmission must reconnect from scratch
            self.client.close()
            if self._markdown_total is not None:
                self._markdown_total.inc()

    def probe(self) -> bool:
        """One ``/healthz`` round trip: marks the backend up or down."""
        try:
            health = self.probe_client.healthz()
        except Exception:
            self.mark_down()
            return False
        with self._lock:
            self.up = True
            self.objects = health.get("objects", self.objects)
        return True

    def load(self) -> tuple[int, int, int]:
        """The replica-choice key: fewest in flight, then fewest served."""
        with self._lock:
            return self.inflight, self.served, self.backend_id

    def row(self) -> dict:
        """This backend's ``/stats`` row."""
        with self._lock:
            row = {
                "backend": self.backend_id,
                "address": self.address,
                "up": self.up,
                "inflight": self.inflight,
                "served": self.served,
                "markdowns": self.markdowns,
                "objects": self.objects,
            }
        row.update(self.client.client_stats())
        return row

    def close(self) -> None:
        self.client.close()
        self.probe_client.close()


def _parse_backend(spec, backend_id: int, **kwargs) -> RemoteIndex:
    if isinstance(spec, str):
        host, _, port = spec.rpartition(":")
        if not host or not port.isdigit():
            raise ClusterError(f"backend spec {spec!r} is not 'host:port'")
    else:
        host, port = spec
    return RemoteIndex(host, int(port), backend_id, **kwargs)


_SHARD_MUTATIONS = (
    "mutations are not supported in shard mode "
    "(rebuild and split a new snapshot, then rolling-reload)"
)


class ClusterIndex(MetricIndex):
    """N backend servers hosted as one index member (see the module doc).

    Args:
        backends: backend addresses, in shard order for shard mode --
            ``(host, port)`` tuples or ``"host:port"`` strings.
        mode: ``"shard"`` (each backend holds one ``split()`` part) or
            ``"replica"`` (each backend holds the full index).
        probe_interval_s: health-probe period; 0 disables the prober
            (membership then changes only on request failures and
            :meth:`probe_now`).
        auth_token: bearer token the members present to their backends.
        metrics: optional registry for the per-backend up / in-flight /
            retry gauges, mark-down counters and the fan-out histogram.
    """

    name = "Cluster"

    def __init__(
        self,
        backends: Sequence,
        mode: str = "shard",
        probe_interval_s: float = 2.0,
        auth_token: str | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if mode not in ("shard", "replica"):
            raise ClusterError(f"mode must be 'shard' or 'replica', got {mode!r}")
        if not backends:
            raise ClusterError("a cluster needs at least one backend")
        self.mode = mode
        self.backends = [
            _parse_backend(spec, i, auth_token=auth_token, metrics=metrics)
            for i, spec in enumerate(backends)
        ]
        super().__init__(_RemoteSpace(self._object_count))
        self._pool = self._sharded = None
        if mode == "shard":
            self._pool = ThreadPoolExecutor(
                max_workers=len(self.backends), thread_name_prefix="repro-scatter"
            )
            self._sharded = ShardedIndex(
                self.space, self.backends, None, executor=self._pool
            )
        self._fanout = None
        if metrics is not None:
            self._fanout = metrics.histogram(
                "repro_router_fanout_ms",
                "Backend fan-out wall time by endpoint, milliseconds.",
                labelnames=("endpoint",),
            )
        self._probe_stop = threading.Event()
        self._prober = None
        if probe_interval_s > 0:
            self._prober = threading.Thread(
                target=self._probe_loop,
                args=(float(probe_interval_s),),
                name="repro-cluster-probe",
                daemon=True,
            )
            self._prober.start()

    def _object_count(self) -> int:
        counts = [b.objects for b in self.backends]
        return sum(counts) if self.mode == "shard" else max(counts)

    def _down(self) -> list[int]:
        return [b.backend_id for b in self.backends if not b.up]

    # -- queries ---------------------------------------------------------------

    def range_query_many(self, queries, radius: float) -> list[list[int]]:
        return self._query("range_query_many", list(queries), radius)

    def knn_query_many(self, queries, k: int):
        return self._query("knn_query_many", list(queries), k)

    def _query(self, method: str, queries: list, param):
        t0 = time.perf_counter()
        if self._sharded is not None:
            down = self._down()
            if down:
                raise BackendUnavailable(down)
            answers = getattr(self._sharded, method)(queries, param)
        else:
            answers = self._on_a_replica(
                lambda replica: getattr(replica, method)(queries, param)
            )
        if self._fanout is not None:
            self._fanout.labels("/" + method.replace("_query", "")).observe(
                (time.perf_counter() - t0) * 1000.0
            )
        return answers

    def _on_a_replica(self, call):
        """One placement and one retry on another live replica: a query is
        idempotent, so when the picked backend's connection dies or it
        answers 503 (draining, at capacity), asking another is safe."""
        tried: list[int] = []
        failure = None
        for _attempt in range(2):
            live = [
                b for b in self.backends if b.up and b.backend_id not in tried
            ]
            if not live:
                break
            replica = min(live, key=RemoteIndex.load)
            tried.append(replica.backend_id)
            try:
                return call(replica)
            except ServiceClientError as exc:
                if exc.status != 503:
                    raise
                failure = exc
        if failure is not None:
            raise failure
        raise BackendUnavailable(self._down(), "no live backend")

    # -- mutations -------------------------------------------------------------

    def insert(self, obj, object_id: int | None = None) -> int:
        if self._sharded is not None:
            raise UnsupportedOperation(_SHARD_MUTATIONS)
        if object_id is None:
            raise ServiceClientError(
                400,
                "replica mode requires an explicit 'object_id' for /insert "
                "(auto-assigned ids would diverge across replicas)",
            )
        return self._on_every_replica(lambda b: b.insert(obj, object_id))

    def delete(self, object_id: int) -> None:
        if self._sharded is not None:
            raise UnsupportedOperation(_SHARD_MUTATIONS)
        self._on_every_replica(lambda b: b.delete(object_id))

    def _on_every_replica(self, call):
        down = self._down()
        if down:
            # a mutation applied to a subset would silently fork the
            # replicas; require full membership instead
            raise BackendUnavailable(down, "mutations need every replica")
        results = []
        for backend in self.backends:
            try:
                results.append(call(backend))
            except BackendUnavailable as exc:
                applied = [b.backend_id for b in self.backends[: len(results)]]
                raise ServiceClientError(
                    500,
                    f"backend {backend.backend_id} failed mid-mutation ({exc}); "
                    f"applied on {applied} -- replicas may have diverged, "
                    "rolling-reload a fresh snapshot",
                ) from None
        return results[0]

    # -- hosting ---------------------------------------------------------------

    def reload(self, snapshot) -> SnapshotInfo:
        """Zero-downtime rolling reload: one backend at a time, verified.

        ``snapshot`` is one path for every backend, or a list of one path
        per backend in shard order.  Each backend hot-swaps while the
        others keep answering; a failure stops the roll and reports how
        far it got (``reloaded``: the backend ids already swapped).
        """
        n = len(self.backends)
        paths = snapshot if isinstance(snapshot, list) else [snapshot] * n
        if len(paths) != n:
            raise ClusterError(
                f"'snapshots' must list one path per backend ({n} needed)"
            )
        reloaded: list[int] = []
        for backend, path in zip(self.backends, paths):
            try:
                info = backend.reload(str(path))
            except ServiceClientError as exc:
                error = ServiceClientError(
                    exc.status,
                    f"backend {backend.backend_id} refused reload: "
                    f"{exc.payload.get('error', exc.status)}",
                )
                error.payload["reloaded"] = reloaded
                raise error from None
            reloaded.append(backend.backend_id)
        return replace(
            info, index_class=type(self).__name__, n_objects=len(self.space)
        )

    def probe_now(self) -> None:
        """One synchronous probe round (tests and CLI readiness)."""
        for backend in self.backends:
            backend.probe()

    def _probe_loop(self, interval_s: float) -> None:
        # probes run even while requests flow: a request failure marks a
        # backend down at once, and only a successful probe brings it back
        while not self._probe_stop.wait(interval_s):
            for backend in self.backends:
                if self._probe_stop.is_set():
                    return
                backend.probe()

    def health(self) -> dict:
        live = [b.backend_id for b in self.backends if b.up]
        if self._sharded is not None:
            status = "ok" if len(live) == len(self.backends) else "degraded"
        else:
            status = "ok" if live else "unavailable"
        return {
            "status": status,
            "role": "router",
            "mode": self.mode,
            "live_backends": live,
            "backends": [b.row() for b in self.backends],
        }

    def close(self) -> None:
        self._probe_stop.set()
        if self._prober is not None:
            self._prober.join(timeout=5.0)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        for backend in self.backends:
            backend.close()


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
    every backend answers ``/healthz``, the router -- an
    :class:`HttpQueryServer` hosting a :class:`ClusterIndex` of them --
    starts in-process.  :meth:`close` drains the router first (clients see 503,
    in-flight requests finish), then SIGINTs the backends and waits for
    their own graceful drains.

    Args:
        snapshots: one snapshot path per backend, in shard order.
        mode: ``"shard"`` or ``"replica"`` (see :class:`ClusterIndex`).
        host: bind address for router and backends.
        router_port: the router's port (0 = ephemeral).
        cache_size / cache_ttl_s: backend result-cache knobs.
        auth_token: bearer token handed to every backend *and* checked at
            the router's edge.
        max_inflight: router admission bound; backends get the same.
        metrics: optional registry for the router's request and
            per-backend instruments.
        probe_interval_s: the router's backend health-probe period.
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
        self.probe_interval_s = probe_interval_s
        self.startup_timeout_s = startup_timeout_s
        self.router: HttpQueryServer | None = None
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
            topology = ClusterIndex(
                [(self.host, child.port) for child in self._children],
                mode=self.mode,
                probe_interval_s=self.probe_interval_s,
                auth_token=self.auth_token,
                metrics=self.metrics,
            )
            topology.probe_now()  # learn the object counts
            service = QueryService(topology, cache_size=0, use_dispatcher=False)
            try:
                self.router = HttpQueryServer(
                    service,
                    host=self.host,
                    port=self.router_port,
                    max_inflight=self.max_inflight,
                    metrics=self.metrics,
                    auth_token=self.auth_token,
                )
            except BaseException:
                service.close()
                raise
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
