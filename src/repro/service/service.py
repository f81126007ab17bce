"""QueryService: the long-running serving facade over hosted indexes.

Composes the service-layer pieces into one front door:

* **snapshots** (:mod:`repro.service.snapshot`) -- host an index restored
  from disk (``QueryService.from_snapshot``) or save the hosted one
  (:meth:`QueryService.save`), so process restarts cost file IO, not
  distance computations;
* **result cache** (:mod:`repro.service.cache`) -- every query checks the
  LRU first; only misses reach an index, as one vectorised batch;
* **dispatcher** (:mod:`repro.service.dispatcher`) -- single-query
  callers that queue up while a batch runs are answered together by the
  next batch call, so concurrent traffic inherits the batch layer's
  throughput and a lone query is never held back;
* **catalog + planner** (:mod:`repro.service.catalog`,
  :mod:`repro.service.planner`) -- the hosted indexes are always an
  :class:`~repro.service.catalog.IndexCatalog`: one or several index
  families over the same dataset, each cache-missed query or batch
  partition routed to the member that cost least on queries like it.

There is one service shape.  The paper's finding that no single index
dominates makes the catalog the general case; ``QueryService(index)`` is
``QueryService(catalog=<a catalog of that one index>)``, spelled shorter.
The constructor is the only place that knows which spelling was used:
every method below it works on ``self.catalog`` and ``self.planner``, and
``service.index`` is the primary member.  A planner with one member has
nothing to choose and records nothing, so the one-member service costs
what a bare cache -> dispatcher -> index stack would.

The layering is strict: cache -> planner -> dispatcher -> index batch
call.  The LRU is consulted synchronously in the calling thread -- a hit
never pays the dispatcher's thread handoff or its queue, which is
what makes warm repeat traffic an order of magnitude cheaper than
re-evaluation.  Only misses are routed and enter the dispatcher, which
groups them (deduplicated, per routed member) into one
``range_query_many`` / ``knn_query_many`` call and fills the cache on the
way out.  Answers are bit-for-bit identical to direct index calls -- the
cache stores exact results, the batch layer is contractually exact, and
catalog members are answer-equivalent by construction -- so one cache
namespace serves every member and routing is invisible in the results.

Mutations (insert/delete) fan out to every catalog member and invalidate
the cache namespace, keeping served answers consistent.  Invalidation is
*partial*: only entries whose radius ball (or kNN kth-distance ball) could
contain the mutated object are dropped; the rest keep serving (see
:meth:`QueryResultCache.invalidate_affected`).
"""

from __future__ import annotations

import threading
import time

from ..core.counters import CostCounters
from ..core.index import MetricIndex
from ..core.queries import Neighbor
from ..obs import tracing
from ..obs.metrics import MetricsRegistry
from .cache import QueryResultCache
from .catalog import IndexCatalog
from .dispatcher import MicroBatchDispatcher
from .planner import QueryPlanner

__all__ = ["QueryService", "iter_pruners"]


def iter_pruners(index: MetricIndex):
    """Yield ``(owner, pruner)`` for every staged pruner in an index graph.

    Walks composite indexes (``ShardedIndex`` exposes ``shards``) so a
    service hosting a sharded pivot table reaches every shard's pruner.
    Indexes without a staged cascade (trees, externals) simply yield
    nothing.
    """
    pruner = getattr(index, "pruner", None)
    if pruner is not None:
        yield index, pruner
    for shard in getattr(index, "shards", ()) or ():
        yield from iter_pruners(shard)


class QueryService:
    """Serve MRQ/MkNNQ traffic from hosted indexes with caching + batching.

    Args:
        index: any built :class:`MetricIndex`; hosted as a catalog of one
            whose member is named ``index_id``.  Mutually exclusive with
            ``catalog``.
        catalog: an :class:`~repro.service.catalog.IndexCatalog` of >= 1
            answer-equivalent members; every cache-missed query or batch
            partition is routed to the member with the lowest mean wall
            in the planner's table row for it.  Call
            ``service.planner.calibrate()`` (or construct via
            :meth:`from_snapshots`) to fill the table at seed time.
        index_id: cache namespace for this service (and, under ``index=``,
            the member's id); defaults to the one member's id -- the
            index's paper name under ``index=`` -- or to ``"catalog"`` for
            several members: they answer identically, so one namespace
            serves them all and a hit never cares who computed it.
        planner_seed: seed of the planner's calibration sample (which
            dataset objects, and which pairs behind the default radii).
        cache: a shared :class:`QueryResultCache`, or None to create a
            private one sized ``cache_size``.
        cache_size: capacity of the private cache (entries); 0 disables
            result caching entirely.
        cache_bytes: optional byte budget for the private cache -- evicts
            by accounted result size instead of entry count alone (see
            :class:`QueryResultCache`).
        cache_ttl_s: optional time-to-live for private-cache entries in
            seconds; expired lookups count as misses (see
            :class:`QueryResultCache`).  None keeps entries until evicted.
        max_batch_size: the most queued queries of one group the
            dispatcher answers in one batch call (see
            :class:`MicroBatchDispatcher`); ``use_dispatcher=False`` runs
            without a background thread (single calls become one-query
            batches).
        counters: the service's accumulator (cache hit/miss/eviction
            stats are folded into it).  Under ``index=`` it is also what
            the index is billed to, defaulting to the index's own.  Under
            ``catalog=`` members keep their private counters; the default
            is the one member's, or a fresh accumulator for several -- a
            hit then belongs to the service, not to whichever member
            happened to fill the entry.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            when given, the service records batch-execution latency per
            query kind and passes the registry down to its private cache
            (cache outcome counters) and dispatcher (queue-wait and
            batch-size histograms).  None (the default) records nothing.
    """

    def __init__(
        self,
        index: MetricIndex | None = None,
        index_id: str | None = None,
        cache: QueryResultCache | None = None,
        cache_size: int = 1024,
        cache_bytes: int | None = None,
        cache_ttl_s: float | None = None,
        max_batch_size: int = 32,
        use_dispatcher: bool = True,
        counters: CostCounters | None = None,
        metrics: MetricsRegistry | None = None,
        catalog: IndexCatalog | None = None,
        planner_seed: int = 0,
    ):
        if (index is None) == (catalog is None):
            raise ValueError("pass exactly one of index= or catalog=")
        if index is not None:
            catalog = IndexCatalog()
            catalog.register(
                index,
                index_id=index_id if index_id is not None else index.name,
                counters=counters if counters is not None else index.space.counters,
            )
        elif len(catalog) == 0:
            raise ValueError("catalog has no members")
        self.catalog = catalog
        # a catalog of one lends the service its member's name and bill;
        # several members share a namespace and an accumulator of their own
        lone = catalog.primary if len(catalog) == 1 else None
        if index_id is None:
            index_id = lone.index_id if lone is not None else "catalog"
        if counters is None:
            counters = lone.counters if lone is not None else CostCounters()
        self.index_id = index_id
        self.counters = counters
        self.planner = QueryPlanner(catalog, seed=planner_seed, metrics=metrics)
        self.metrics = metrics
        if metrics is not None:
            batch_ms = metrics.histogram(
                "repro_service_batch_execute_ms",
                "wall milliseconds per batch index execution",
                labelnames=("kind",),
            )
            # children pre-resolved: observe() on the hot path skips the
            # label-lookup lock (same idiom as the cache's outcome counters)
            self._batch_ms = {
                "range": batch_ms.labels("range"),
                "knn": batch_ms.labels("knn"),
            }
        else:
            self._batch_ms = None
        self.cache = (
            cache
            if cache is not None
            else QueryResultCache(
                capacity=cache_size,
                counters=self.counters,
                capacity_bytes=cache_bytes,
                ttl_s=cache_ttl_s,
                metrics=metrics,
            )
        )
        self.dispatcher = (
            MicroBatchDispatcher(
                self._execute_misses, max_batch_size=max_batch_size, metrics=metrics
            )
            if use_dispatcher
            else None
        )
        # where the hosted index came from, and how many hot reloads it
        # has seen -- surfaced by /healthz so cluster health checks can
        # tell a stale replica from a current one
        self.snapshot_path: str | None = None
        self.reload_generation = 0
        self._reload_lock = threading.Lock()

    @property
    def index(self) -> MetricIndex:
        """The primary member: it stands in wherever one index is expected
        (payload decoding, health, dataset identity, invalidation balls)."""
        return self.catalog.primary.index

    # -- construction from disk ----------------------------------------------

    @classmethod
    def from_snapshots(cls, paths, calibrate: bool = True, **kwargs) -> "QueryService":
        """Restore snapshots from disk and serve them as one catalog.

        The restore performs zero distance computations -- the whole point
        of snapshotting a built index.  Each path is a plain snapshot (a
        member named after its index, deduplicated with ``#2``, ``#3``,
        ... when two hold the same family) or a ``*.catalog.json``
        manifest (every member it names); see :meth:`IndexCatalog.load`.
        ``calibrate=True`` (default) runs the planner's deterministic
        seed-time pass so the very first query routes on measured costs
        -- with one member there is nothing to measure and it costs
        nothing.  Keyword arguments are forwarded to the constructor.
        """
        paths = [str(path) for path in paths]
        service = cls(catalog=IndexCatalog.load(*paths), **kwargs)
        service.snapshot_path = paths[0] if len(paths) == 1 else None
        if calibrate:
            service.planner.calibrate()
        return service

    @classmethod
    def from_snapshot(cls, path, **kwargs) -> "QueryService":
        """:meth:`from_snapshots` of one path."""
        return cls.from_snapshots([path], **kwargs)

    def save(self, path):
        """Snapshot the hosted catalog; returns the path to restore from
        (see :meth:`IndexCatalog.save`: one member writes the plain
        snapshot at ``path``, several a manifest plus member snapshots).
        Holds the reload lock like :meth:`insert`: a save folds a tree's
        written leaves back into its columns, which no write may race."""
        with self._reload_lock:
            return self.catalog.save(path)

    def reload_from_snapshot(self, path):
        """Hot-swap the hosted indexes for ones restored from ``path``.

        The restore (file IO + unpickling) happens before the swap, so
        queries keep being answered from the old index until the new one
        is fully ready; the swap itself is one assignment followed by a
        cache invalidation of the service's namespace.  Correctness under
        concurrency: each batch call binds its member's index exactly
        once *after* capturing the cache generation, and the invalidation
        bumps that generation -- so an in-flight answer computed against
        the old index can never be cached as the new index's answer (the
        conditional ``put`` drops it), and every stale cached entry is
        gone by the time :meth:`reload_from_snapshot` returns.

        The cache namespace (``index_id``) is kept.  A plain snapshot
        restores into the one member of a one-member service, keeping its
        id and counters (so requests already queued under that id resolve,
        and serving stats accumulate across the swap); a manifest replaces
        the membership, and the planner's table cells carry over for the
        ids that persist.  See :meth:`IndexCatalog.reload`, which raises
        :class:`~repro.service.catalog.CatalogError` for a plain snapshot
        offered to several members.  Returns a
        :class:`~repro.service.snapshot.SnapshotInfo`.
        """
        with self._reload_lock:
            info = self.catalog.reload(path)
            self.snapshot_path = str(path)
            self.reload_generation += 1
            self.cache.invalidate(self.index_id)
        return info

    # -- pruners ---------------------------------------------------------------

    def _hosted_pruners(self):
        """``(owner, pruner)`` pairs across the hosted catalog."""
        for member in self.catalog.members():
            yield from iter_pruners(member.index)

    # -- query surface --------------------------------------------------------

    def _resolve_pin(self, pin: str | None) -> str | None:
        """Validate an explicit member pin (the ``index=`` query kwarg)."""
        if pin is not None:
            self.catalog.member(pin)  # raises CatalogError on unknown ids
        return pin

    def _route(self, kind: str, param: float, batch_size: int, pin: str | None) -> str:
        """The dispatcher group / executor target for one miss partition:
        the pinned member, or whichever member the planner's table picks
        (the only one, when there is only one)."""
        if pin is not None:
            return pin
        return self.planner.route(kind, param, batch_size)

    def _execute_misses(
        self, index_id: str, kind: str, param: float, queries: list
    ) -> list:
        """Answer cache-missed queries with one vectorised index call.

        This is the dispatcher's batch executor; ``index_id`` names the
        routed catalog member.  Duplicate queries within the batch
        (concurrent callers asking the same thing) are deduplicated so
        each distinct query costs one evaluation; every answer is cached
        on the way out.  While the planner has a choice to learn, the
        member's counters are bracketed around the call and the measured
        delta feeds the planner's table.
        """
        results: list = [None] * len(queries)
        positions_by_key: dict = {}  # cache key -> positions awaiting it
        for i, query_obj in enumerate(queries):
            key = self.cache.make_key(self.index_id, kind, query_obj, param)
            positions_by_key.setdefault(key, []).append(i)
        distinct = [queries[positions[0]] for positions in positions_by_key.values()]
        # capture the invalidation epoch before evaluating: if a concurrent
        # insert/delete lands mid-evaluation, these answers predate it and
        # the conditional put drops them instead of caching stale results
        caching = self.cache.capacity > 0
        generation = self.cache.generation(self.index_id) if caching else 0
        # ... and bind the member's index only now: a reload that swapped it
        # earlier has already bumped the generation captured above
        member = self.catalog.member(index_id)
        index, exec_counters = member.index, member.counters
        observing = self.planner.choosing
        before = exec_counters.counts() if observing else None
        t0 = (
            time.perf_counter()
            if (self._batch_ms is not None or observing)
            else 0.0
        )
        # the batch_execution scope measures this call's CostCounters
        # delta and attributes it to whoever is waiting: exactly to the
        # calling request when it runs its own batch, proportionally
        # (sum-exact) to the coalesced requests when the dispatcher
        # registered them; with no trace anywhere it is a no-op
        with tracing.batch_execution(
            kind, exec_counters, len(queries), len(distinct)
        ):
            if kind == "range":
                answers = index.range_query_many(distinct, param)
            else:
                answers = index.knn_query_many(distinct, int(param))
        if self._batch_ms is not None or observing:
            wall_ms = (time.perf_counter() - t0) * 1000.0
            if self._batch_ms is not None:
                self._batch_ms[kind].observe(wall_ms)
            if observing:
                delta = exec_counters.delta_since(before)
                self.planner.observe(
                    index_id,
                    kind,
                    param,
                    len(distinct),
                    delta.distance_computations,
                    delta.page_reads,
                    wall_ms,
                )
        for (key, positions), answer in zip(positions_by_key.items(), answers):
            if caching:
                self.cache.put(
                    key, answer, generation=generation, query_obj=queries[positions[0]]
                )
            for i in positions:
                results[i] = list(answer)
        return results

    def _execute_batch(
        self, kind: str, param: float, queries: list, pin: str | None = None
    ) -> list:
        """Cache-aware batch: hits from the LRU, the whole miss partition
        routed to one member and answered in one index call."""
        if self.cache.capacity == 0:
            # disabled cache: every lookup would be a guaranteed miss --
            # skip the key hashing and the misleading miss accounting
            target = self._route(kind, param, len(queries), pin)
            return self._execute_misses(target, kind, param, queries)
        results: list = [None] * len(queries)
        misses: list[int] = []
        with tracing.span("cache_lookup", kind=kind) as lookup:
            for i, query_obj in enumerate(queries):
                key = self.cache.make_key(self.index_id, kind, query_obj, param)
                cached = self.cache.get(key)
                if cached is not None:
                    results[i] = cached
                else:
                    misses.append(i)
        if lookup is not None:
            lookup.meta["hits"] = len(queries) - len(misses)
            lookup.meta["misses"] = len(misses)
        if misses:
            target = self._route(kind, param, len(misses), pin)
            answers = self._execute_misses(
                target, kind, param, [queries[i] for i in misses]
            )
            for i, answer in zip(misses, answers):
                results[i] = answer
        return results

    def _query_one(self, kind: str, query_obj, param: float, pin: str | None = None):
        """Single query: synchronous cache check, dispatcher on a miss.

        The cache lookup runs in the calling thread, so warm repeat
        traffic never pays the dispatcher's handoff or queue;
        only misses are routed and enqueued for batching (the routed
        member is part of the dispatcher's group key, so only
        same-member queries coalesce).  A disabled cache (capacity 0) is
        bypassed entirely -- no key is hashed and no ``cache_miss`` is
        counted for a lookup that cannot ever hit.
        """
        if self.cache.capacity > 0:
            key = self.cache.make_key(self.index_id, kind, query_obj, param)
            with tracing.span("cache_lookup", kind=kind) as lookup:
                cached = self.cache.get(key)
            if lookup is not None:
                lookup.meta["outcome"] = "hit" if cached is not None else "miss"
            if cached is not None:
                return cached
        target = self._route(kind, param, 1, pin)
        if self.dispatcher is not None:
            # the submit-time span (this one) is what the dispatcher
            # carries to the batch execution for cost attribution
            with tracing.span("dispatcher_wait", kind=kind):
                return self.dispatcher.submit(target, kind, query_obj, param).result()
        return self._execute_misses(target, kind, param, [query_obj])[0]

    def range_query(self, query_obj, radius: float, index: str | None = None) -> list[int]:
        """One MRQ; misses coalesce with concurrent callers' traffic.
        ``index=`` pins a catalog member, bypassing the planner."""
        return self._query_one("range", query_obj, float(radius), self._resolve_pin(index))

    def knn_query(self, query_obj, k: int, index: str | None = None) -> list[Neighbor]:
        """One MkNNQ; misses coalesce with concurrent callers' traffic.
        ``index=`` pins a catalog member, bypassing the planner."""
        return self._query_one("knn", query_obj, float(k), self._resolve_pin(index))

    def submit_range(self, query_obj, radius: float):
        """Non-blocking MRQ: a Future resolving to the answer list."""
        return self._submit("range", query_obj, float(radius))

    def submit_knn(self, query_obj, k: int):
        """Non-blocking MkNNQ: a Future resolving to the neighbor list."""
        return self._submit("knn", query_obj, float(k))

    def _submit(self, kind: str, query_obj, param: float):
        if self.dispatcher is None:
            raise RuntimeError("service was built with use_dispatcher=False")
        if self.cache.capacity > 0:
            key = self.cache.make_key(self.index_id, kind, query_obj, param)
            cached = self.cache.get(key)
            if cached is not None:
                from concurrent.futures import Future

                future: Future = Future()
                future.set_result(cached)
                return future
        target = self._route(kind, param, 1, None)
        return self.dispatcher.submit(target, kind, query_obj, param)

    def range_query_many(
        self, queries, radius: float, index: str | None = None
    ) -> list[list[int]]:
        """Batched MRQ through the cache (already-batched callers skip the
        dispatcher -- there is nothing left to coalesce).  ``index=`` pins
        a catalog member, bypassing the planner."""
        return self._execute_batch(
            "range", float(radius), list(queries), self._resolve_pin(index)
        )

    def knn_query_many(
        self, queries, k: int, index: str | None = None
    ) -> list[list[Neighbor]]:
        """Batched MkNNQ through the cache."""
        return self._execute_batch(
            "knn", float(k), list(queries), self._resolve_pin(index)
        )

    # -- maintenance -----------------------------------------------------------

    def insert(self, obj, object_id: int | None = None) -> int:
        """Insert into the hosted members, dropping only the cached results
        whose radius ball (or kNN kth-distance ball) could contain the new
        object -- everything provably out of reach survives.  The ball
        checks use the raw (uncounted) metric so cache maintenance never
        inflates compdists.

        Mutations hold the reload lock: an acknowledged insert must land
        in the index that keeps serving, never in one a concurrent
        :meth:`reload_from_snapshot` is about to discard.  The insert fans
        out to every member (same object, same id, loud on divergence) so
        all members stay answer-equivalent; a fan-out a member refuses is
        undone before it raises, so the cached answers still hold."""
        with self._reload_lock:
            new_id = self.catalog.insert(obj, object_id=object_id)
            distance = self.index.space.distance
        self.cache.invalidate_affected(self.index_id, obj=obj, distance=distance)
        return new_id

    def delete(self, object_id: int) -> None:
        """Delete from every hosted member, dropping only the cached
        results that contained the victim (a non-member's removal cannot
        change an answer).  Holds the reload lock like :meth:`insert`."""
        with self._reload_lock:
            self.catalog.delete(object_id)
        self.cache.invalidate_affected(self.index_id, object_id=object_id)

    # -- observability ---------------------------------------------------------

    def stats(self) -> dict:
        """Serving stats: cache behaviour, dispatcher coalescing, counters.

        ``distance_computations`` / ``page_accesses`` / ``prune_stages``
        are summed over the members, whose own shares are under
        ``"members"``; ``"planner"`` has the route counts and the
        mispredict ratio.
        """
        members = self.catalog.stats()
        out = {
            "index": self.index_id,
            "cache": self.cache.stats(),
            "distance_computations": sum(
                m["distance_computations"] for m in members.values()
            ),
            "page_accesses": sum(m["page_accesses"] for m in members.values()),
            "prune_stages": {
                stage: sum(m["prune_stages"][stage] for m in members.values())
                for stage in ("prefix", "refine", "validated", "ptolemaic")
            },
            "planner": self.planner.stats(),
            "members": members,
        }
        pruners = [
            dict(pruner.stats(), index=owner.name)
            for owner, pruner in self._hosted_pruners()
            if hasattr(pruner, "stats")
        ]
        if pruners:
            out["pruning"] = pruners
        if self.dispatcher is not None:
            out["dispatcher"] = self.dispatcher.stats.as_dict()
        if self.metrics is not None:
            # percentile digests of every registered histogram (request
            # latency, queue wait, batch size, ...) plus counter values
            out["telemetry"] = self.metrics.summary()
        return out

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Drain and stop the dispatcher thread, then let the hosted
        indexes release what they hold open (idempotent)."""
        if self.dispatcher is not None:
            self.dispatcher.close()
        for member in self.catalog.members():
            member.index.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
