"""Micro-batching dispatcher: coalesce single queries into vectorised batches.

Callers submit single queries and get a Future; one worker thread answers
each group of compatible queries with one ``range_query_many`` /
``knn_query_many`` call.  The rule is the queue itself, with no timer: the
worker sleeps until something is queued, then takes each group's queued
queries, at most ``max_batch_size``, as one batch; queries that arrive
while those batches run form the next ones.  A lone query goes at once,
and batches grow exactly as far as traffic outpaces the index.  Groups are
keyed ``(index_id, kind, param)``: a batch runs on one catalog member at
one radius or k, so answers equal direct per-query calls
(``query_many(qs)[i] == query(qs[i])``).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Callable

from ..obs import tracing
from ..obs.metrics import BATCH_SIZE_BUCKETS, MetricsRegistry

__all__ = ["MicroBatchDispatcher", "DispatcherStats"]


class DispatcherStats:
    """Counts of what the dispatcher coalesced.  The worker writes them and
    ``QueryService.stats()`` reads them under one lock, so a reader never
    sees ``queries`` already incremented and ``batches`` not yet."""

    def __init__(self):
        self._lock = threading.Lock()
        self.queries = 0
        self.batches = 0
        self.largest_batch = 0

    def record(self, batch_size: int) -> None:
        with self._lock:
            self.queries += batch_size
            self.batches += 1
            self.largest_batch = max(self.largest_batch, batch_size)

    @property
    def mean_batch_size(self) -> float:
        with self._lock:
            return self.queries / max(self.batches, 1)

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "queries": self.queries,
                "batches": self.batches,
                "mean_batch_size": round(self.queries / max(self.batches, 1), 2),
                "largest_batch": self.largest_batch,
            }


class MicroBatchDispatcher:
    """Group concurrent single-query submissions into batch calls.

    Args:
        execute_batch: ``execute_batch(index_id, kind, param, queries) ->
            results``, one result per query in order, for one group's
            member, ``"range"`` / ``"knn"`` and radius / k (the service
            passes its cache-aware batch executor).
        max_batch_size: the most queries of one group a batch takes.
        metrics: optional registry for the queue-wait / batch-size histograms.

    Thread-safe; :meth:`close` (or leaving a ``with`` block) joins the worker.
    """

    def __init__(
        self,
        execute_batch: Callable[[str, str, float, list], list],
        max_batch_size: int = 32,
        metrics: MetricsRegistry | None = None,
    ):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        self._execute_batch = execute_batch
        self.max_batch_size = max_batch_size
        self._wake = threading.Condition(threading.Lock())
        # (index_id, kind, param) -> [(query, future, span, enqueue time)]
        self._pending: dict[tuple, list[tuple]] = {}
        self._closed = False
        self._queue_wait_ms = self._batch_size_hist = None
        if metrics is not None:
            self._queue_wait_ms = metrics.histogram(
                "repro_dispatcher_queue_wait_ms",
                "Time each query spent queued in the dispatcher before its "
                "batch executed, milliseconds.",
            )
            self._batch_size_hist = metrics.histogram(
                "repro_dispatcher_batch_size",
                "Number of queries coalesced into each dispatched batch.",
                buckets=BATCH_SIZE_BUCKETS,
            )
        self.stats = DispatcherStats()
        self._worker = threading.Thread(
            target=self._run, name="repro-dispatcher", daemon=True
        )
        self._worker.start()

    def submit(self, index_id: str, kind: str, query_obj, param) -> Future:
        """Enqueue one query against one hosted index; the Future resolves
        to its answer list.  Only queries sharing a group key coalesce."""
        if kind not in ("range", "knn"):
            raise ValueError(f"kind must be 'range' or 'knn', got {kind!r}")
        future: Future = Future()
        key = (index_id, kind, float(param))
        with self._wake:
            if self._closed:
                raise RuntimeError("dispatcher is closed")
            # the caller's span, if traced, takes its share of the batch's cost
            self._pending.setdefault(key, []).append(
                (query_obj, future, tracing.current_span(), time.monotonic())
            )
            self._wake.notify()
        return future

    def _run(self) -> None:
        size = self.max_batch_size
        while True:
            with self._wake:
                while not self._pending and not self._closed:
                    self._wake.wait()
                if not self._pending:  # closed and drained
                    return
                ready = list(self._pending.items())
                self._pending = {
                    key: group[size:] for key, group in ready if len(group) > size
                }
            for (index_id, kind, param), group in ready:
                self._dispatch(index_id, kind, param, group[:size])

    def _dispatch(self, index_id: str, kind: str, param: float, group: list) -> None:
        # a Future cancelled while queued is dropped; the rest can no longer
        # be cancelled, so resolving them cannot raise
        group = [item for item in group if item[1].set_running_or_notify_cancel()]
        if not group:
            return
        queries, futures, spans, enqueued = map(list, zip(*group))
        now = time.monotonic()
        for span_, t_enq in zip(spans, enqueued):
            wait_ms = (now - t_enq) * 1000.0
            if self._queue_wait_ms is not None:
                self._queue_wait_ms.observe(wait_ms)
            if span_ is not None:
                span_.meta["queue_wait_ms"] = round(wait_ms, 3)
        if self._batch_size_hist is not None:
            self._batch_size_hist.observe(len(group))
        try:
            if any(span_ is not None for span_ in spans):
                with tracing.attribution_scope(spans):  # batch_execution bills these
                    results = self._execute_batch(index_id, kind, param, queries)
            else:
                results = self._execute_batch(index_id, kind, param, queries)
        except BaseException as exc:  # propagate to every waiting caller
            for future in futures:
                future.set_exception(exc)
            return
        self.stats.record(len(group))
        for future, result in zip(futures, results):
            future.set_result(result)

    def close(self) -> None:
        """Stop accepting queries, drain pending groups, join the worker."""
        with self._wake:
            self._closed = True
            self._wake.notify_all()
        self._worker.join()

    def __enter__(self) -> "MicroBatchDispatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
