"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``     -- build an index on a synthetic workload, run a query, show
                  the counted costs (the quickest way to see the library).
* ``stats``    -- Table 2-style statistics for one of the four workloads.
* ``compare``  -- build several indexes on one workload and print the
                  paper-style cost comparison for MRQ and MkNNQ (means
                  over one query per call, the paper's protocol).
* ``snapshot`` -- build an index and save it to disk (or inspect an
                  existing snapshot file) for instant restores.
* ``migrate``  -- convert an older snapshot to the current format and layout.
* ``serve``    -- run the query service (snapshot restore, LRU result
                  cache, micro-batching dispatcher) against a stream of
                  concurrent single-query requests and report throughput.
                  Repeat ``--snapshot`` (or point it at a ``.catalog.json``
                  manifest) to host an index catalog with measured-cost
                  planner routing.
* ``plan``     -- build several indexes on one workload, calibrate the
                  query planner's table, and print its explain tables
                  (mean cost per member, and the member a query routes to).
* ``cluster``  -- spawn a router + N backend serve processes (shard
                  scatter-gather or replica load-balancing) from a split
                  manifest or a single snapshot.
* ``indexes``  -- list every available index with its category.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import ALL_INDEXES
from .bench import (
    format_table,
    make_workload,
    measure_build,
    run_knn_queries,
    run_range_queries,
    shared_pivots,
)
from .core.counters import CostCounters
from .core.dataset import DATASET_FACTORIES, dataset_statistics
from .service import (
    IndexCatalog,
    QueryPlanner,
    QueryService,
    load_index,
    save_index,
    snapshot_info,
)
from .service.catalog import _member_snapshots
from .service.migrate import migrate

__all__ = ["main"]

_CATEGORIES = {
    "AESA": "table",
    "LAESA": "table",
    "EPT": "table",
    "EPT*": "table",
    "CPT": "table (disk objects)",
    "BKT": "tree (discrete)",
    "FQT": "tree (discrete)",
    "FQA": "tree (discrete)",
    "VPT": "tree",
    "MVPT": "tree",
    "PM-tree": "external",
    "Omni-seq": "external",
    "OmniB+": "external",
    "OmniR-tree": "external",
    "M-index": "external",
    "M-index*": "external",
    "SPB-tree": "external",
    "DEPT": "external (extension)",
    "M-tree": "external (compact baseline)",
}


def _cmd_indexes(args) -> int:
    rows = [
        {"Index": name, "Category": _CATEGORIES.get(name, "?")}
        for name in ALL_INDEXES
    ]
    print(format_table(rows, title="Available indexes", first_column="Index"))
    return 0


def _cmd_stats(args) -> int:
    if args.dataset.startswith(("http://", "https://")):
        return _remote_stats(args.dataset, args.metrics)
    if args.dataset not in DATASET_FACTORIES:
        print(
            f"unknown target {args.dataset!r}: expected a dataset name "
            f"({', '.join(sorted(DATASET_FACTORIES))}) or a server URL "
            "(http://host:port)"
        )
        return 2
    workload = make_workload(args.dataset, n=args.n, n_queries=1)
    stats = dataset_statistics(workload.dataset)
    print(format_table([stats.row()], title="Dataset statistics"))
    return 0


def _remote_stats(url: str, show_metrics: bool) -> int:
    """Fetch and print a running server's /stats (or /metrics) payload."""
    from urllib.parse import urlsplit

    from .service.http import ServiceClient, ServiceClientError

    parts = urlsplit(url)
    if parts.hostname is None:
        print(f"cannot parse host from {url!r}")
        return 2
    with ServiceClient(
        host=parts.hostname, port=parts.port or 80, timeout=10.0
    ) as client:
        try:
            if show_metrics:
                sys.stdout.write(client.metrics_text())
            else:
                print(json.dumps(client.stats(), indent=2, sort_keys=True))
        except BrokenPipeError:
            # stdout's reader went away (`repro stats URL | head`) -- the
            # unix convention is a quiet exit, not a traceback; devnull
            # absorbs the interpreter's shutdown flush of the dead pipe
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        except (ServiceClientError, OSError) as exc:
            print(f"cannot fetch {'/metrics' if show_metrics else '/stats'} from {url}: {exc}")
            return 1
    return 0


def _cmd_demo(args) -> int:
    workload = make_workload(args.dataset, n=args.n, n_queries=1)
    pivots = shared_pivots(workload, args.pivots)
    result = measure_build(args.index, workload, pivots)
    print(
        f"built {args.index} on {args.dataset} (n={args.n}): "
        f"{result.compdists} compdists, {result.page_accesses} PA, "
        f"{result.seconds:.2f}s"
    )
    q = workload.queries[0]
    radius = workload.radius_for(0.16)
    cost = run_range_queries(result.index, [q], radius)
    hits = result.index.range_query(q, radius)
    print(
        f"MRQ(q, r=16%sel): {len(hits)} answers, "
        f"{cost.mean_compdists:.0f} compdists, {cost.mean_page_accesses:.0f} PA"
    )
    cost = run_knn_queries(result.index, [q], args.k)
    nearest = result.index.knn_query(q, args.k)
    print(
        f"MkNNQ(q, k={args.k}): nearest distance {nearest[0].distance:.3f}, "
        f"{cost.mean_compdists:.0f} compdists, {cost.mean_page_accesses:.0f} PA"
    )
    return 0


def _built_indexes_for(args, workload):
    """Validate the requested index names and build each one.

    Returns ``[(name, BuildResult)]``, printing a skip line for
    discrete-only indexes on continuous data, or ``None`` after reporting
    an unknown index name.
    """
    pivots = shared_pivots(workload, args.pivots)
    built = []
    for name in args.indexes:
        if name not in ALL_INDEXES:
            print(f"unknown index {name!r}; see `python -m repro indexes`")
            return None
        if name in ("BKT", "FQT", "FQA") and not workload.dataset.distance.is_discrete:
            print(f"skipping {name}: requires a discrete distance")
            continue
        try:
            built.append((name, measure_build(name, workload, pivots)))
        except ValueError as exc:
            print(f"cannot build {name}: {exc}")
            return None
    return built


def _cmd_compare(args) -> int:
    workload = make_workload(args.dataset, n=args.n, n_queries=args.queries)
    radius = workload.radius_for(0.16)
    built = _built_indexes_for(args, workload)
    if built is None:
        return 2
    rows = []
    for name, build in built:
        range_cost = run_range_queries(build.index, workload.queries, radius)
        knn_cost = run_knn_queries(build.index, workload.queries, args.k)
        rows.append(
            {
                "Index": name,
                "Width": build.table_width,
                "Build comp": build.compdists,
                "MRQ comp": round(range_cost.mean_compdists, 1),
                "MRQ PA": round(range_cost.mean_page_accesses, 1),
                "kNN comp": round(knn_cost.mean_compdists, 1),
                "kNN PA": round(knn_cost.mean_page_accesses, 1),
            }
        )
    print(
        format_table(
            rows,
            title=f"{args.dataset} (n={args.n}), r=16% selectivity, k={args.k}",
            first_column="Index",
        )
    )
    return 0


def _cmd_snapshot(args) -> int:
    if args.info:
        info = snapshot_info(args.info)
        print(format_table([info.row()], title=f"Snapshot {args.info}"))
        return 0
    if args.split:
        return _snapshot_split(args)
    workload = make_workload(args.dataset, n=args.n, n_queries=8)
    pivots = shared_pivots(workload, args.pivots)
    result = measure_build(args.index, workload, pivots)
    t0 = time.perf_counter()
    info = save_index(result.index, args.out)
    save_s = time.perf_counter() - t0
    print(
        f"built {args.index} on {args.dataset} (n={args.n}): "
        f"{result.compdists} compdists, {result.seconds:.2f}s; "
        f"saved to {args.out} (format {info.format_version}, "
        f"{info.payload_bytes} pickle bytes + {info.region_bytes} region "
        f"bytes, {save_s:.2f}s)"
    )
    if args.verify:
        counters = CostCounters()
        t0 = time.perf_counter()
        restored = load_index(args.out, counters=counters)
        load_s = time.perf_counter() - t0
        radius = workload.radius_for(0.16)
        original = result.index.range_query_many(workload.queries, radius)
        roundtrip = restored.range_query_many(workload.queries, radius)
        if original != roundtrip:
            print("VERIFY FAILED: restored answers diverge from original")
            return 1
        print(
            f"verified: restored in {load_s:.2f}s with 0 build compdists, "
            f"{len(workload.queries)} MRQ answers identical"
        )
    return 0


def _cmd_migrate(args) -> int:
    migrate(args.old, args.new)
    rows = [snapshot_info(path).row() for _, path in _member_snapshots(args.new)]
    print(format_table(rows, title=f"Migrated {args.old}"))
    return 0


def _snapshot_split(args) -> int:
    """Build a sharded index and save one snapshot per shard + a manifest."""
    from . import select_pivots
    from .bench.runner import build_index
    from .core.sharded import ShardedIndex
    from .service.cluster import load_cluster_manifest, save_split

    if args.split < 1:
        print(f"--split must be >= 1, got {args.split}")
        return 2
    workload = make_workload(args.dataset, n=args.n, n_queries=8)

    def build_shard(shard_space):
        pivots = select_pivots(shard_space, args.pivots, strategy="hfi")
        return build_index(
            args.index, shard_space, pivots, workload_name=args.dataset
        )

    space = workload.fresh_space()
    t0 = time.perf_counter()
    sharded = ShardedIndex.build(space, build_shard, n_shards=args.split, seed=0)
    build_s = time.perf_counter() - t0
    manifest_path = save_split(sharded, args.out)
    manifest = load_cluster_manifest(manifest_path)
    print(
        f"built {args.split}x {args.index} shards on {args.dataset} "
        f"(n={args.n}) in {build_s:.2f}s; wrote {manifest_path} + "
        f"{len(manifest['shards'])} shard snapshots"
    )
    if args.verify:
        parts = [load_index(entry["snapshot"]) for entry in manifest["shards"]]
        radius = workload.radius_for(0.16)
        want = sharded.range_query_many(workload.queries, radius)
        # the restored parts answer global ids: fan out over them unmapped
        merged = ShardedIndex(space, parts, None)
        got = merged.range_query_many(workload.queries, radius)
        if want != got:
            print("VERIFY FAILED: merged part answers diverge from the "
                  "unsplit sharded index")
            return 1
        print(
            f"verified: {len(parts)} restored parts merge to identical "
            f"MRQ answers for {len(workload.queries)} queries"
        )
    return 0


def _serve_http(service: QueryService, args) -> int:
    """Run the HTTP front-end until interrupted, then drain and exit."""
    from .service.http import HttpQueryServer

    access_log = None
    access_log_path = getattr(args, "access_log", None)
    if access_log_path == "-":
        access_log = sys.stderr
    elif access_log_path:
        access_log = open(access_log_path, "a", encoding="utf-8")
    slow_query_log = None
    slow_query_log_path = getattr(args, "slow_query_log", None)
    if slow_query_log_path and slow_query_log_path != "-":
        slow_query_log = open(slow_query_log_path, "a", encoding="utf-8")
    server = HttpQueryServer(
        service,
        host=args.host,
        port=args.http,
        max_inflight=args.max_inflight,
        access_log=access_log,
        metrics=service.metrics,
        slow_query_ms=getattr(args, "slow_query_ms", None),
        slow_query_log=slow_query_log,
        auth_token=getattr(args, "auth_token", None),
    )
    server.start()
    port_file = getattr(args, "port_file", None)
    if port_file:
        # published only once the socket is listening: a supervisor (the
        # cluster CLI, CI scripts) polls this file to learn the ephemeral
        # port without parsing stdout
        Path(port_file).write_text(f"{server.port}\n")
    get_endpoints = "/healthz /stats" + (
        " /metrics" if service.metrics is not None else ""
    )
    print(
        f"serving {service.index_id} at http://{args.host}:{server.port} "
        f"(max in-flight {args.max_inflight})\n"
        "endpoints: POST /range /knn /range_many /knn_many /insert /delete "
        f"/admin/reload; GET {get_endpoints} -- Ctrl-C to stop",
        flush=True,
    )
    died = False
    try:
        # exit the foreground wait if the accept loop ever dies (e.g. on
        # fd exhaustion) instead of spinning on a dead thread forever
        while server.is_serving:
            server.join(timeout=0.5)
        died = True
        print("accept loop exited unexpectedly", flush=True)
    except KeyboardInterrupt:
        print(
            "shutting down: draining in-flight requests and the dispatcher",
            flush=True,
        )
    finally:
        server.close()
        if access_log is not None and access_log is not sys.stderr:
            access_log.close()
        if slow_query_log is not None:
            slow_query_log.close()
    print(
        f"served {server.requests_served} requests "
        f"({server.rejected} rejected); shut down cleanly",
        flush=True,
    )
    return 1 if died else 0


def _cmd_serve(args) -> int:
    # everything that can fail before the service exists (workload
    # synthesis, index construction) runs first; from construction on,
    # the `with service:` below joins the dispatcher thread on every path
    http_mode = getattr(args, "http", None) is not None
    metrics = None
    if getattr(args, "metrics", False):
        from .obs import MetricsRegistry

        metrics = MetricsRegistry()
    options = dict(
        cache_size=args.cache_size,
        cache_bytes=args.cache_bytes,
        cache_ttl_s=args.cache_ttl,
        max_batch_size=args.batch_size,
        metrics=metrics,
    )
    snapshots = args.snapshot or []
    banner = workload = None
    if snapshots:
        # plain snapshots and .catalog.json manifests alike: every index
        # they hold becomes a member behind the query planner
        service = QueryService.from_snapshots(snapshots, **options)
        dataset = service.index.space.dataset
        banner = (
            f"restored {' + '.join(service.catalog.ids())} ({len(dataset)} "
            f"objects, {dataset.distance.name}) from {' '.join(snapshots)} "
            "-- no rebuild"
        )
    else:
        workload = make_workload(args.dataset, n=args.n, n_queries=args.queries)
        pivots = shared_pivots(workload, args.pivots)
        result = measure_build(args.index, workload, pivots)
        # a fresh bill: the build's compdists are not serving work
        service = QueryService(result.index, counters=CostCounters(), **options)
    with service:
        if banner:
            print(banner, flush=True)
        if http_mode:
            return _serve_http(service, args)
        if workload is None:
            dataset = service.index.space.dataset
            workload = make_workload(
                dataset.name, n=len(dataset), n_queries=args.queries
            )
        radius = workload.radius_for(0.16)
        # the request stream: single queries, mixed MRQ/MkNNQ, repeating the
        # query sample (online traffic repeats popular queries)
        requests = []
        for _ in range(max(1, args.requests // (2 * len(workload.queries)) + 1)):
            for q in workload.queries:
                requests.append(("range", q, radius))
                requests.append(("knn", q, args.k))
        requests = requests[: args.requests]

        def one(request):
            kind, q, p = request
            if kind == "range":
                return service.range_query(q, p)
            return service.knn_query(q, p)

        with ThreadPoolExecutor(max_workers=args.clients) as pool:
            t0 = time.perf_counter()
            list(pool.map(one, requests))
            seconds = time.perf_counter() - t0
        stats = service.stats()
    cache = stats["cache"]
    dispatcher = stats.get("dispatcher", {})
    print(
        f"served {len(requests)} requests from {args.clients} clients "
        f"in {seconds:.2f}s ({len(requests) / max(seconds, 1e-9):.0f} req/s)"
    )
    print(
        f"cache: {cache['hits']} hits / {cache['misses']} misses "
        f"(hit rate {cache['hit_rate']:.0%}, {cache['evictions']} evictions); "
        f"dispatcher: {dispatcher.get('batches', 0)} batches, "
        f"mean size {dispatcher.get('mean_batch_size', 0)}, "
        f"largest {dispatcher.get('largest_batch', 0)}"
    )
    print(
        f"index work: {stats['distance_computations']} compdists, "
        f"{stats['page_accesses']} page accesses"
    )
    return 0


def _plan_cell(costs: dict | None, key: str) -> str:
    if costs is None:
        return "-"
    value = costs[key]
    return f"{value:.3f}" if key == "wall_ms" else f"{value:.1f}"


def _cmd_plan(args) -> int:
    """Build several indexes, calibrate the planner, print explain tables."""
    lookup = {name.lower(): name for name in ALL_INDEXES}
    names = []
    for raw in args.index or ["LAESA", "MVPT"]:
        resolved = lookup.get(raw.lower())
        if resolved is None:
            print(f"unknown index {raw!r} (see `repro indexes`)")
            return 2
        if resolved in names:
            print(f"index {resolved!r} given twice")
            return 2
        names.append(resolved)
    if len(names) < 2:
        print("repro plan needs at least two --index members to compare")
        return 2
    workload = make_workload(args.dataset, n=args.n, n_queries=args.queries)
    pivots = shared_pivots(workload, args.pivots)
    catalog = IndexCatalog()
    for name in names:
        # measure_build gives each member its own MetricSpace, which the
        # catalog requires for per-member cost attribution
        catalog.register(measure_build(name, workload, pivots).index)
    planner = QueryPlanner(catalog)
    radii = [float(r) for r in args.radius] if args.radius else None
    ks = tuple(args.k) if args.k else (10,)
    if radii is None:
        radii = planner.default_radii()
    recorded = planner.calibrate(radii=radii, ks=ks, n_queries=args.queries)
    print(
        f"calibrated {len(catalog)} members ({', '.join(catalog.ids())}) on "
        f"{args.dataset} (n={args.n}): {recorded} observations"
    )
    tasks = [("range", r, f"MRQ radius={r:g}") for r in radii]
    tasks += [("knn", float(k), f"MkNNQ k={k}") for k in ks]
    for kind, param, title in tasks:
        rows = []
        for row in planner.explain(kind, param):
            costs, stages = row["predicted"], row["prune_stages"]
            rows.append(
                {
                    "Index": row["index"],
                    "compdists": _plan_cell(costs, "compdists"),
                    "PA": _plan_cell(costs, "page_reads"),
                    "ms": _plan_cell(costs, "wall_ms"),
                    "Obs": row["observations"],
                    # objects decided per cascade stage over the calibration
                    # traffic: prefix/refine Lemma-1 prunes, Lemma-4
                    # validations, Ptolemaic prunes
                    "Pruned pfx/ref/val/pt": "{prefix}/{refine}/{validated}/{ptolemaic}".format(
                        **stages
                    ),
                    "Route": "<- chosen" if row["chosen"] else "",
                }
            )
        print()
        print(format_table(rows, title=title, first_column="Index"))
    return 0


def _cmd_cluster(args) -> int:
    """Spawn router + N backends, serve in the foreground until Ctrl-C."""
    import tempfile

    from .service.cluster import (
        ClusterError,
        ClusterSupervisor,
        load_cluster_manifest,
        split_snapshot,
    )

    metrics = None
    if args.metrics:
        from .obs import MetricsRegistry

        metrics = MetricsRegistry()
    workdir = None
    try:
        manifest = args.snapshot if args.snapshot.endswith(".cluster.json") else None
        mode = args.mode or ("shard" if manifest else "replica")
        if manifest and mode != "shard":
            print("a .cluster.json manifest implies --mode shard")
            return 2
        if mode == "replica":
            snapshots = [args.snapshot] * (args.backends or 2)
        else:
            if manifest is None:
                # shard mode from a monolithic snapshot: split it into
                # per-shard parts under a scratch dir that lives as long
                # as the cluster serves
                workdir = tempfile.TemporaryDirectory(prefix="repro-cluster-split-")
                stem = Path(workdir.name) / Path(args.snapshot).stem
                manifest = split_snapshot(args.snapshot, stem)
            shards = load_cluster_manifest(manifest)["shards"]
            snapshots = [entry["snapshot"] for entry in shards]
            if args.backends is not None and args.backends != len(snapshots):
                print(
                    f"--backends {args.backends} does not match the "
                    f"{len(snapshots)} shards of {args.snapshot}"
                )
                return 2
        supervisor = ClusterSupervisor(
            snapshots=snapshots,
            mode=mode,
            host=args.host,
            router_port=args.port,
            max_inflight=args.max_inflight,
            cache_size=args.cache_size,
            cache_ttl_s=args.cache_ttl,
            auth_token=args.auth_token,
            metrics=metrics,
            probe_interval_s=args.probe_interval,
        )
        supervisor.start()
    except ClusterError as exc:
        print(f"cluster failed to start: {exc}")
        if workdir is not None:
            workdir.cleanup()
        return 1
    router = supervisor.router
    if args.port_file:
        Path(args.port_file).write_text(f"{router.port}\n")
    print(
        f"cluster serving at http://{args.host}:{router.port} "
        f"({mode} mode, {len(snapshots)} backends on ports "
        f"{supervisor.backend_ports})\n"
        "endpoints: POST /range /knn /range_many /knn_many /insert /delete "
        "/admin/reload; GET /healthz /stats"
        + (" /metrics" if metrics is not None else "")
        + " -- Ctrl-C to stop",
        flush=True,
    )
    warned: set[int] = set()
    died = False
    try:
        while router.is_serving:
            router.join(timeout=0.5)
            for backend_id in supervisor.poll():
                if backend_id not in warned:
                    warned.add(backend_id)
                    print(
                        f"backend {backend_id} exited; router will answer "
                        + (
                            "503 for every query until it is restarted"
                            if mode == "shard"
                            else "from the remaining replicas"
                        ),
                        flush=True,
                    )
        died = True
        print("router accept loop exited unexpectedly", flush=True)
    except KeyboardInterrupt:
        print(
            "shutting down cluster: draining router, stopping backends",
            flush=True,
        )
    finally:
        served = router.requests_served
        rejected = router.rejected
        supervisor.close()
        if workdir is not None:
            workdir.cleanup()
    print(
        f"routed {served} requests ({rejected} rejected); shut down cleanly",
        flush=True,
    )
    return 1 if died else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Pivot-based metric indexing (VLDB 2017 reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("indexes", help="list available indexes")
    p.set_defaults(func=_cmd_indexes)

    p = sub.add_parser(
        "stats",
        help="dataset statistics (Table 2), or a running server's /stats "
        "when given a URL",
    )
    p.add_argument(
        "dataset",
        metavar="dataset-or-url",
        help=f"a dataset name ({', '.join(sorted(DATASET_FACTORIES))}) or "
        "a running server's base URL (http://host:port)",
    )
    p.add_argument("--n", type=int, default=2000)
    p.add_argument(
        "--metrics",
        action="store_true",
        help="with a URL: print the Prometheus /metrics exposition instead "
        "of the /stats JSON",
    )
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("demo", help="build one index and run queries")
    p.add_argument("--dataset", choices=sorted(DATASET_FACTORIES), default="Words")
    p.add_argument("--index", default="MVPT")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--pivots", type=int, default=5)
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("compare", help="compare indexes on one workload")
    p.add_argument("--dataset", choices=sorted(DATASET_FACTORIES), default="Words")
    p.add_argument(
        "--indexes",
        nargs="+",
        default=["LAESA", "MVPT", "SPB-tree", "M-index*"],
    )
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--pivots", type=int, default=5)
    p.add_argument("--queries", type=int, default=5)
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "snapshot", help="build an index and save it to disk (or --info a file)"
    )
    p.add_argument("--dataset", choices=sorted(DATASET_FACTORIES), default="Words")
    p.add_argument("--index", default="LAESA")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--pivots", type=int, default=5)
    p.add_argument("--out", default="index.snap")
    p.add_argument(
        "--verify",
        action="store_true",
        help="restore the snapshot and assert identical MRQ answers",
    )
    p.add_argument(
        "--info", metavar="PATH", help="inspect an existing snapshot header and exit"
    )
    p.add_argument(
        "--split",
        type=int,
        default=None,
        metavar="N",
        help="build a ShardedIndex of N shards of --index and save one "
        "snapshot per shard plus a .cluster.json manifest (the input to "
        "`repro cluster`)",
    )
    p.set_defaults(func=_cmd_snapshot)

    p = sub.add_parser("migrate", help="convert an older snapshot to the current layout")
    p.add_argument("old")
    p.add_argument("new", help="where to write it (may be OLD)")
    p.set_defaults(func=_cmd_migrate)

    p = sub.add_parser(
        "serve",
        help="serve concurrent single-query traffic (cache + micro-batching)",
    )
    p.add_argument(
        "--snapshot",
        action="append",
        help="serve an index restored from this snapshot; repeat the flag "
        "(or pass one .catalog.json manifest) to host several indexes as "
        "a catalog with cost-based planner routing",
    )
    p.add_argument("--dataset", choices=sorted(DATASET_FACTORIES), default="Words")
    p.add_argument("--index", default="LAESA")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--pivots", type=int, default=5)
    p.add_argument("--queries", type=int, default=20, help="distinct query objects")
    p.add_argument("--requests", type=int, default=200, help="total requests served")
    p.add_argument("--clients", type=int, default=8, help="concurrent callers")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--cache-size", type=int, default=1024)
    p.add_argument(
        "--cache-bytes",
        type=int,
        default=None,
        help="byte budget for the result cache (evict by accounted result "
        "size, not just entry count)",
    )
    p.add_argument(
        "--batch-size",
        type=int,
        default=32,
        help="the most queued queries of one group the dispatcher answers "
        "in one batch call",
    )
    p.add_argument(
        "--http",
        type=int,
        metavar="PORT",
        help="serve the JSON HTTP front-end on this port (0 picks a free "
        "port) instead of running the synthetic traffic demo",
    )
    p.add_argument("--host", default="127.0.0.1", help="HTTP bind address")
    p.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="HTTP backpressure: concurrent requests beyond this get 503",
    )
    p.add_argument(
        "--access-log",
        metavar="PATH",
        default=None,
        help="write one JSON line per HTTP request (method, path, status, "
        "bytes, wall ms, codec) to PATH; '-' for stderr",
    )
    p.add_argument(
        "--metrics",
        action="store_true",
        help="enable the telemetry registry: GET /metrics (Prometheus text "
        "exposition), per-endpoint latency histograms, cache/dispatcher "
        "instruments, and a 'telemetry' section under /stats",
    )
    p.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help="trace every query request and log a JSON line -- span tree "
        "with per-request attributed batch costs included -- for any "
        "request slower than MS milliseconds (0 logs every query)",
    )
    p.add_argument(
        "--slow-query-log",
        metavar="PATH",
        default=None,
        help="sink for slow-query lines (default stderr; '-' for stderr)",
    )
    p.add_argument(
        "--cache-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="result-cache time-to-live: entries older than this count as "
        "misses (and as 'expired' in /stats); default keeps entries "
        "until evicted or invalidated",
    )
    p.add_argument(
        "--auth-token",
        default=None,
        metavar="TOKEN",
        help="require 'Authorization: Bearer TOKEN' on /insert, /delete, "
        "and /admin/reload (401 otherwise); queries stay open",
    )
    p.add_argument(
        "--port-file",
        metavar="PATH",
        default=None,
        help="write the bound HTTP port to PATH once listening (how the "
        "cluster supervisor finds ephemeral backend ports)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "plan",
        help="calibrate the query planner over several indexes and print "
        "its explain tables (mean cost per member, the routed member)",
    )
    p.add_argument("dataset", choices=sorted(DATASET_FACTORIES))
    p.add_argument(
        "--index",
        action="append",
        metavar="NAME",
        help="index to host as a catalog member (repeat the flag; "
        "case-insensitive; default: LAESA and MVPT)",
    )
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--pivots", type=int, default=5)
    p.add_argument(
        "--queries", type=int, default=8, help="calibration queries per batch"
    )
    p.add_argument(
        "--radius",
        action="append",
        type=float,
        metavar="R",
        help="MRQ radius to calibrate and explain (repeat the flag; "
        "default: distance-distribution quantiles)",
    )
    p.add_argument(
        "--k",
        action="append",
        type=int,
        metavar="K",
        help="MkNNQ k to calibrate and explain (repeat the flag; default 10)",
    )
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser(
        "cluster",
        help="spawn a router + N backend serve processes (shard "
        "scatter-gather or replica load-balancing)",
    )
    p.add_argument(
        "--snapshot",
        required=True,
        help="a .cluster.json manifest (shard mode), a ShardedIndex .snap "
        "to split (--mode shard), or any .snap to replicate (--mode "
        "replica, the default for .snap)",
    )
    p.add_argument(
        "--backends",
        type=int,
        default=None,
        metavar="N",
        help="number of backends (replica mode; defaults to 2 -- shard "
        "mode takes the count from the manifest/snapshot)",
    )
    p.add_argument("--mode", choices=("shard", "replica"), default=None)
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=0, help="router port (0 = free)")
    p.add_argument("--max-inflight", type=int, default=128)
    p.add_argument("--cache-size", type=int, default=1024)
    p.add_argument("--cache-ttl", type=float, default=None, metavar="SECONDS")
    p.add_argument(
        "--auth-token",
        default=None,
        metavar="TOKEN",
        help="bearer token enforced at the router edge and on every backend",
    )
    p.add_argument(
        "--metrics",
        action="store_true",
        help="router telemetry: GET /metrics with fan-out latency and "
        "per-backend up/in-flight/mark-down instruments",
    )
    p.add_argument(
        "--probe-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="health-probe period for backend mark-down/mark-up",
    )
    p.add_argument(
        "--port-file",
        metavar="PATH",
        default=None,
        help="write the router's bound port to PATH once listening",
    )
    p.set_defaults(func=_cmd_cluster)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
