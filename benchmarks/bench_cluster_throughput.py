"""Cluster scale-out: 4 shard backends vs one single-process server.

Not a paper experiment -- this guards the repo's multi-process serving
cluster (:mod:`repro.service.cluster`).  One ``HttpQueryServer`` process
is GIL-bound, so scattering a Color MRQ batch over 4 shard backend
*processes* should approach the core count.  The gate:

* **exactness (always)** -- the routed batch answers (binary codec end to
  end) must be bit-for-bit the single-process server's answers AND the
  in-process ``ShardedIndex`` answers, for MRQ and MkNNQ;
* **throughput (>= 2x, gated only on >= 4 cores)** -- the 4-shard
  cluster's batch MRQ wall time, min of 3 runs each side, must be at
  least ``REPRO_BENCH_CLUSTER_MIN_SPEEDUP`` (default 2.0) times faster
  than the identical batch against one process hosting the whole index.
  On fewer than 4 cores the backends time-slice a single CPU and the
  ratio measures the scheduler, not the cluster -- the speedup assertion
  is skipped there (CI runners have >= 4).

Both sides serve with the result cache off and talk the binary codec, so
the comparison measures evaluation + scatter-gather, not a dict lookup.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import CostCounters, MetricSpace, save_index, select_pivots
from repro.bench.runner import _best_seconds
from repro.core.sharded import ShardedIndex
from repro.service.cluster import ClusterSupervisor, save_split
from repro.service.http import ServiceClient
from repro.tables import LAESA

from _bench_common import emit, workloads  # noqa: F401  (fixture)

N_SHARDS = 4
N_PIVOTS = 4
REPEATS = 3
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_CLUSTER_MIN_SPEEDUP", "2.0"))


def _build_shard(space):
    return LAESA.build(space, select_pivots(space, N_PIVOTS, strategy="hfi", seed=0))


def _spawn_single_server(snapshot: Path, port_file: Path) -> subprocess.Popen:
    """One `repro serve` child hosting the whole index (the baseline)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = env.get("PYTHONPATH", "")
    if src not in paths.split(os.pathsep):
        env["PYTHONPATH"] = src + (os.pathsep + paths if paths else "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--snapshot",
            str(snapshot),
            "--http",
            "0",
            "--port-file",
            str(port_file),
            "--cache-size",
            "0",
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=env,
    )


def _await_port(port_file: Path, process: subprocess.Popen, timeout_s: float) -> int:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if process.poll() is not None:
            stderr = (process.stderr.read() or b"").decode("utf-8", "replace")
            raise RuntimeError(f"baseline server died during startup:\n{stderr[-2000:]}")
        try:
            text = port_file.read_text().strip()
            if text:
                return int(text)
        except (OSError, ValueError):
            pass
        time.sleep(0.05)
    raise RuntimeError("baseline server never published its port")


def test_cluster_throughput(workloads, tmp_path):
    workload = workloads["Color"]
    radius = workload.radius_for(0.16)
    queries = list(workload.queries)
    k = 10

    space = MetricSpace(workload.dataset, CostCounters())
    sharded = ShardedIndex.build(space, _build_shard, n_shards=N_SHARDS, seed=0)
    want_range = sharded.range_query_many(queries, radius)
    want_knn = sharded.knn_query_many(queries, k)

    full_snap = tmp_path / "color.snap"
    save_index(sharded, full_snap)
    manifest = save_split(sharded, tmp_path / "color-split" / "color.snap")
    shard_snaps = [
        str(manifest.parent / f"color.shard{i:02d}.snap") for i in range(N_SHARDS)
    ]

    # -- baseline: one process hosting the whole ShardedIndex ----------------
    port_file = tmp_path / "single.port"
    single = _spawn_single_server(full_snap, port_file)
    try:
        port = _await_port(port_file, single, timeout_s=120.0)
        with ServiceClient(port=port, binary=True, timeout=120.0) as client:
            got_range = client.range_query_many(queries, radius)
            assert got_range == want_range, "single-process MRQ diverged"
            assert client.knn_query_many(queries, k) == want_knn
            single_ms = 1000.0 * _best_seconds(
                lambda: client.range_query_many(queries, radius), REPEATS
            )
    finally:
        single.terminate()
        single.wait(timeout=30)
        single.stderr.close()

    # -- cluster: router + one backend process per shard ---------------------
    supervisor = ClusterSupervisor(
        snapshots=shard_snaps,
        mode="shard",
        cache_size=0,
        probe_interval_s=0,
        startup_timeout_s=240.0,
    )
    with supervisor:
        router = supervisor.router
        with ServiceClient(router.host, router.port, binary=True, timeout=120.0) as client:
            got_range = client.range_query_many(queries, radius)
            assert got_range == want_range, "routed MRQ diverged from ShardedIndex"
            assert client.knn_query_many(queries, k) == want_knn, (
                "routed MkNNQ diverged from ShardedIndex"
            )
            cluster_ms = 1000.0 * _best_seconds(
                lambda: client.range_query_many(queries, radius), REPEATS
            )

    speedup = single_ms / cluster_ms if cluster_ms > 0 else float("inf")
    cores = os.cpu_count() or 1
    emit(
        "cluster_throughput",
        "\n".join(
            [
                f"Color MRQ batch ({len(queries)} queries, {N_SHARDS} shards, "
                f"{cores} cores, min of {REPEATS})",
                f"  single process : {single_ms:8.2f} ms",
                f"  4-shard cluster: {cluster_ms:8.2f} ms",
                f"  speedup        : {speedup:8.2f}x  (gate: >= {MIN_SPEEDUP}x "
                f"on >= {N_SHARDS} cores)",
            ]
        ),
    )
    if cores >= N_SHARDS:
        assert speedup >= MIN_SPEEDUP, (
            f"cluster speedup {speedup:.2f}x < {MIN_SPEEDUP}x "
            f"(single {single_ms:.1f} ms vs cluster {cluster_ms:.1f} ms)"
        )
