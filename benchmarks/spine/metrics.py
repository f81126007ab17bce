"""What the spine reports: names, units and how each number is computed.

End-to-end metrics come from untraced passes only.  Every timing is computed
per pass, as measured, and the run reports the **median over the passes**: a
median over seven passes ignores a short slow episode that a median over all
calls would absorb.  Counts are sums over all passes divided by the queries
answered, so they repeat exactly for one seed.

Per-layer metrics come from the traced passes of a ``--trace 1`` run; a
layer that is not on a workload's path reads 0 there.
"""

from __future__ import annotations

from harness import QUERY_KINDS, KINDS, median, spread, tail
from workloads import N_PIVOTS

E2E_UNITS = {
    "setup_s": "s",
    "compdists_per_query": "1",
    "index_bytes_per_object": "B",
    "setup_rss_mb": "MB",
}

# Wall-clock timings of the untraced passes.  Measured and printed by every
# run, compared by compare.py, but not end-to-end metrics with a bound: on
# the sandbox this benchmark was built on they spread by up to 39 % between
# runs of identical code, more than any bound the driver accepts (README,
# "Machine noise").  A traced run reports them as ``client.<name>``.
TIMING_UNITS = {
    "qps": "1/s",
    "mrq_p50_ms": "ms",
    "knn_p50_ms": "ms",
    "update_p50_ms": "ms",
    "cpu_ms_per_query": "ms",
}

LAYER_UNITS = {
    "core.distances.self_ms_per_query": "ms",
    "core.distances.ns_per_dist": "ns",
    "core.distances.calls_per_query": "1",
    "core.pivot_selection.select_s": "s",
    "core.pivot_selection.compdists": "1",
    "core.mapping.map_ms_per_query": "ms",
    "core.staged.masks_ms_per_query": "ms",
    "core.staged.ns_per_cell": "ns",
    "core.staged.prefix_decided_share": "1",
    "core.staged.refine_decided_share": "1",
    "core.staged.validated_share": "1",
    "core.staged.ptolemaic_decided_share": "1",
    "core.staged.survivor_share": "1",
    "core.queries.best_first_ms_per_query": "ms",
    "tables.build_s": "s",
    "tables.self_ms_per_query": "ms",
    "trees.build_s": "s",
    "trees.frontier_self_ms_per_query": "ms",
    "external.build_s": "s",
    "external.self_ms_per_query": "ms",
    "external.knn_many_over_seq": "1",
    "btree.self_ms_per_query": "ms",
    "btree.node_reads_per_query": "1",
    "btree.update_ms": "ms",
    "sfc.self_ms_per_query": "ms",
    "sfc.decode_calls_per_query": "1",
    "storage.raf.self_ms_per_query": "ms",
    "storage.raf.records_per_query": "1",
    "storage.pager.self_ms_per_query": "ms",
    "storage.pager.page_reads_per_query": "1",
    "storage.pager.buffer_hit_rate": "1",
    "storage.pager.grouped_hit_rate": "1",
    "storage.pager.page_writes_per_update": "1",
    "storage.pager.disk_bytes_per_object": "B",
    "service.snapshot.save_s": "s",
    "service.snapshot.load_s": "s",
    "service.snapshot.bytes_per_object": "B",
    "service.planner.calibrate_s": "s",
    "service.cache.hit_rate": "1",
    "service.cache.evictions_per_query": "1",
    "service.cache.get_us": "us",
    "service.cache.hit_p50_ms": "ms",
    "service.cache.invalidated_per_update": "1",
    "service.dispatcher.wait_ms_p50": "ms",
    "service.dispatcher.mean_batch_size": "1",
    "service.planner.route_us": "us",
    "service.planner.mispredict_ratio": "1",
    "service.planner.route_share_laesa": "1",
    "service.planner.route_share_mvpt": "1",
    "service.wire.dumps_us": "us",
    "service.wire.loads_us": "us",
    "service.wire.request_bytes": "B",
    "service.wire.response_bytes": "B",
    "service.http.self_ms_per_query": "ms",
    "service.http.overhead_ms_p50": "ms",
    "service.http.many_json_p50_ms": "ms",
    "service.http.retries": "1",
    "service.http.connections_opened": "1",
    "service.service.self_ms_per_query": "ms",
    "service.service.overhead_ms_p50": "ms",
    "client.qps": "1/s",
    "client.mrq_p50_ms": "ms",
    "client.knn_p50_ms": "ms",
    "client.update_p50_ms": "ms",
    "client.cpu_ms_per_query": "ms",
    "client.mrq_tail_ms": "ms",
    "client.knn_tail_ms": "ms",
    "client.tail_percentile": "1",
    "client.samples": "1",
    "bench.ref_py_ms": "ms",
    "bench.ref_np_ms": "ms",
    "bench.ref_drift": "1",
    "bench.pass_spread": "1",
    "bench.trace_overhead_ratio": "1",
    "bench.harness_self_ms_per_query": "ms",
    "bench.dataset_gen_s": "s",
    "bench.failed_ops_share": "1",
}

# end-to-end timing metric -> the op kind whose calls it is the median of
P50_KIND = {"mrq_p50_ms": "mrq", "knn_p50_ms": "knn", "update_p50_ms": "update"}


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def cost(passes, field: str, fields, kinds=QUERY_KINDS) -> int:
    """One cost counter summed over the given op kinds of the given passes."""
    i = fields.index(field)
    return sum(r.cost[k][i] for r in passes for k in kinds if k in r.cost)


def latencies(passes, kind: str) -> list[float]:
    return [s for r in passes for s in r.latency_s[kind]]


def _per_pass(r) -> dict:
    out = {m: median(r.latency_s[k]) * 1e3 for m, k in P50_KIND.items()}
    out["qps"] = r.queries / r.wall_s
    out["cpu_ms_per_query"] = r.cpu_s / r.queries * 1e3
    return out


def end_to_end(passes, fields, setups, index_bytes: int, n: int, setup_rss_mb: float):
    """``(metrics, timings, diagnostics)`` of the untraced passes of one run.

    ``setups`` holds the wall seconds of every set-up of the run.
    """
    per_pass = [_per_pass(r) for r in passes]
    queries = sum(r.queries for r in passes)
    metrics = {
        "setup_s": median(setups),
        "compdists_per_query": cost(passes, "distance_computations", fields) / queries,
        "index_bytes_per_object": index_bytes / n,
        "setup_rss_mb": setup_rss_mb,
    }
    timings = {m: median([p[m] for p in per_pass]) for m in TIMING_UNITS}
    diagnostics = {}
    for m in per_pass[0]:
        # how far the machine moved inside this run: with a spread wider
        # than a difference, a comparison is unresolved, not unchanged
        diagnostics[m] = {"pass_spread": spread([p[m] for p in per_pass])}
    for m, kind in P50_KIND.items():
        samples = latencies(passes, kind)
        value, percentile = tail(samples)
        diagnostics[m].update(
            samples=len(samples), tail_ms=value * 1e3, tail_percentile=percentile
        )
    diagnostics["page_reads_per_query"] = cost(passes, "page_reads", fields) / queries
    diagnostics["timed_phase_s"] = sum(r.wall_s for r in passes)
    diagnostics["pass_wall_s"] = [r.wall_s for r in passes]
    return metrics, timings, diagnostics


class LayerReport:
    """Per-layer metrics of one traced run.

    ``tracer`` holds the totals of the traced passes, ``traced`` their
    :class:`~harness.PassResult` (counts), ``untraced`` the passes before
    the shims went in (client-side latencies and the overhead base),
    ``stats`` the service's own statistics before and after the traced
    passes (empty dicts on the library workloads).
    """

    def __init__(self, workload, tracer, fields, untraced, traced, stats):
        self.workload = workload
        self.tracer = tracer
        self.fields = fields
        self.untraced = untraced
        self.traced = traced
        self.before, self.after = stats
        self.queries = sum(r.queries for r in traced)
        self.updates = sum(len(r.latency_s["update"]) for r in traced)

    # -- helpers: totals are ns, fields 0 calls / 1 total / 2 self / 3 work --

    def self_ms(self, layer: str, kinds=QUERY_KINDS) -> float:
        """Self time of a layer inside query ops, per query answered."""
        return ratio(self.tracer.sum(2, kinds=kinds, layer=layer) / 1e6, self.queries)

    def total_ms(self, layer: str) -> float:
        """Time inside a layer's calls (children included), per query."""
        return ratio(self.tracer.sum(1, kinds=QUERY_KINDS, layer=layer) / 1e6, self.queries)

    def call_us(self, name: str) -> float:
        return ratio(self.tracer.sum(1, name=name) / 1e3, self.tracer.sum(0, name=name))

    def calls(self, name: str) -> int:
        return self.tracer.sum(0, kinds=QUERY_KINDS, name=name)

    def cost(self, field: str, kinds=QUERY_KINDS) -> int:
        return cost(self.traced, field, self.fields, kinds)

    def delta(self, section: str, key: str) -> float:
        if not self.after:
            return 0
        return self.after[section][key] - self.before[section][key]

    # -- the metrics ---------------------------------------------------------------

    def metrics(
        self, stages: dict, extras: dict, timings: dict, sentinels, failed_share: float
    ) -> dict:
        w, t, q, updates = self.workload, self.tracer, self.queries, self.updates
        is_http = w.family == "service"
        mask_rows = sum(
            t.sum(3, name=f"StagedPruner.{m}") for m in ("masks_many", "masks_many_queries")
        )
        decided = {
            stage: ratio(self.cost(f"prune_{stage}", KINDS), mask_rows)
            for stage in ("prefix", "refine", "validated", "ptolemaic")
        }
        reads = self.cost("page_reads", KINDS)
        lookups = reads + self.cost("buffer_hits", KINDS) + self.cost("grouped_hits", KINDS)
        # what is left of an op once every shimmed call is taken out: the
        # HTTP machinery on both sides of the socket, or just the harness
        op_self = ratio(
            sum(t.sum(2, kinds=(k,), layer="bench", name=k) for k in QUERY_KINDS) / 1e6, q
        )
        routed = {
            m: self.after["routes"].get(m, 0) - self.before["routes"].get(m, 0)
            for m in self.after.get("routes", {})
        }
        clients = w.client_stats()
        mrq, knn = latencies(self.untraced, "mrq"), latencies(self.untraced, "knn")
        mrq_tail, percentile = tail(mrq)
        hits, misses = self.delta("cache", "hits"), self.delta("cache", "misses")
        out = {
            "core.distances.self_ms_per_query": self.self_ms("core.distances"),
            "core.distances.ns_per_dist": ratio(
                t.sum(2, kinds=QUERY_KINDS, layer="core.distances"),
                self.cost("distance_computations"),
            ),
            "core.distances.calls_per_query": ratio(
                t.sum(0, kinds=QUERY_KINDS, layer="core.distances"), q
            ),
            "core.pivot_selection.select_s": stages["select_s"],
            "core.pivot_selection.compdists": w.select_compdists,
            "core.mapping.map_ms_per_query": self.total_ms("core.mapping"),
            "core.staged.masks_ms_per_query": self.total_ms("core.staged"),
            "core.staged.ns_per_cell": ratio(
                t.sum(1, layer="core.staged"), t.sum(3, layer="core.staged") * N_PIVOTS
            ),
            "core.staged.prefix_decided_share": decided["prefix"],
            "core.staged.refine_decided_share": decided["refine"],
            "core.staged.validated_share": decided["validated"],
            "core.staged.ptolemaic_decided_share": decided["ptolemaic"],
            "core.staged.survivor_share": 1.0 - sum(decided.values()) if mask_rows else 0.0,
            "core.queries.best_first_ms_per_query": self.total_ms("core.queries"),
            "tables.build_s": stages.get("tables_build_s", 0.0),
            "tables.self_ms_per_query": self.self_ms("tables"),
            "trees.build_s": stages.get("trees_build_s", 0.0),
            "trees.frontier_self_ms_per_query": self.self_ms("trees"),
            "external.build_s": stages.get("external_build_s", 0.0),
            "external.self_ms_per_query": self.self_ms("external"),
            "external.knn_many_over_seq": extras.get("external.knn_many_over_seq", 0.0),
            "btree.self_ms_per_query": self.self_ms("btree"),
            "btree.node_reads_per_query": ratio(self.calls("BPlusTree.read_node"), q),
            "btree.update_ms": ratio(
                t.sum(2, kinds=("update",), layer="btree") / 1e6, updates
            ),
            "sfc.self_ms_per_query": self.self_ms("sfc"),
            "sfc.decode_calls_per_query": ratio(self.calls("HilbertCurve.decode"), q),
            "storage.raf.self_ms_per_query": self.self_ms("storage.raf"),
            "storage.raf.records_per_query": ratio(
                self.calls("RandomAccessFile.read")
                + t.sum(3, kinds=QUERY_KINDS, name="RandomAccessFile.read_many"),
                q,
            ),
            "storage.pager.self_ms_per_query": self.self_ms("storage.pager"),
            "storage.pager.page_reads_per_query": ratio(self.cost("page_reads"), q),
            "storage.pager.buffer_hit_rate": ratio(self.cost("buffer_hits", KINDS), lookups),
            "storage.pager.grouped_hit_rate": ratio(self.cost("grouped_hits", KINDS), lookups),
            "storage.pager.page_writes_per_update": ratio(
                self.cost("page_writes", ("update",)), updates
            ),
            "storage.pager.disk_bytes_per_object": w.storage_bytes()["disk"] / w.n,
            "service.snapshot.save_s": stages.get("save_s", 0.0),
            "service.snapshot.load_s": stages.get("load_s", 0.0),
            "service.snapshot.bytes_per_object": w.snapshot_bytes / w.n,
            "service.planner.calibrate_s": stages.get("calibrate_s", 0.0),
            "service.cache.hit_rate": ratio(hits, hits + misses),
            "service.cache.evictions_per_query": ratio(self.delta("cache", "evictions"), q),
            "service.cache.get_us": self.call_us("QueryResultCache.get"),
            "service.cache.hit_p50_ms": median(
                [s for r in self.untraced for s in r.hot_latency_s]
            )
            * 1e3,
            "service.cache.invalidated_per_update": ratio(
                t.sum(3, name="QueryResultCache.invalidate_affected"), updates
            ),
            "service.dispatcher.wait_ms_p50": median(t.handoff_ns) / 1e6,
            "service.dispatcher.mean_batch_size": ratio(
                self.delta("dispatcher", "queries"), self.delta("dispatcher", "batches")
            ),
            "service.planner.route_us": self.call_us("QueryPlanner.route"),
            "service.planner.mispredict_ratio": self.after.get("mispredict_ratio", 0.0),
            "service.planner.route_share_laesa": ratio(
                routed.get("LAESA", 0), sum(routed.values())
            ),
            "service.planner.route_share_mvpt": ratio(
                routed.get("MVPT", 0), sum(routed.values())
            ),
            "service.wire.dumps_us": self.call_us("wire.dumps"),
            "service.wire.loads_us": self.call_us("wire.loads"),
            # what the client encodes is a request, what it decodes a response
            "service.wire.request_bytes": ratio(
                t.sum(3, name="wire.dumps", client=True),
                t.sum(0, name="wire.dumps", client=True),
            ),
            "service.wire.response_bytes": ratio(
                t.sum(3, name="wire.loads", client=True),
                t.sum(0, name="wire.loads", client=True),
            ),
            "service.http.self_ms_per_query": op_self if is_http else 0.0,
            "service.http.overhead_ms_p50": extras.get("service.http.overhead_ms_p50", 0.0),
            "service.http.many_json_p50_ms": median(latencies(self.untraced, "many")) * 1e3,
            "service.http.retries": sum(c["retries"] for c in clients),
            "service.http.connections_opened": sum(c["connections_opened"] for c in clients),
            "service.service.self_ms_per_query": self.self_ms("service.service"),
            "service.service.overhead_ms_p50": extras.get(
                "service.service.overhead_ms_p50", 0.0
            ),
            **{f"client.{m}": value for m, value in timings.items()},
            "client.mrq_tail_ms": mrq_tail * 1e3,
            "client.knn_tail_ms": tail(knn)[0] * 1e3,
            "client.tail_percentile": percentile,
            "client.samples": len(mrq),
            "bench.ref_py_ms": median(sentinels.ms["py"]),
            "bench.ref_np_ms": median(sentinels.ms["np"]),
            "bench.ref_drift": sentinels.drift(),
            "bench.pass_spread": spread([r.wall_s for r in self.untraced]),
            "bench.trace_overhead_ratio": ratio(
                median([r.wall_s for r in self.traced]),
                median([r.wall_s for r in self.untraced]),
            ),
            "bench.harness_self_ms_per_query": 0.0 if is_http else op_self,
            "bench.dataset_gen_s": w.generate_s,
            "bench.failed_ops_share": failed_share,
        }
        return {m: out[m] for m in LAYER_UNITS}
