"""Per-layer tracing from outside the library.

The runner installs timing shims on a fixed list of public entry points
(:data:`SHIMS`) for the traced passes only and removes them afterwards, so
the library's public attributes are the original objects again (checked by
identity in the self-tests).  Nothing under ``src/`` is edited.

Every shimmed call and every benchmark operation is a span: name, start,
end, parent.  All four workloads keep one request in flight and hand it
from thread to thread synchronously (client -> HTTP handler -> dispatcher
worker), so one process-wide stack gives every span its causal parent even
across threads; a span's self time is its duration minus the part covered
by its children.  Spans of shimmed calls are folded into per
``(operation kind, name, on the client thread)`` totals as they close --
``la_disk_mixed_rw`` closes ~10^6 of them in a run -- while the benchmark's
own operation spans are kept whole and written out when the run ends.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter_ns

from repro import (
    LAESA,
    MVPT,
    MetricSpace,
    MicroBatchDispatcher,
    PivotMapping,
    QueryPlanner,
    QueryResultCache,
    QueryService,
    SPBTree,
)
from repro.btree.bptree import BPlusTree
from repro.core import queries as core_queries
from repro.core.staged import PerObjectStagedPruner, StagedPruner
from repro.trees.common import FrontierTreeMixin
from repro.service import wire
from repro.sfc.hilbert import HilbertCurve
from repro.storage.pager import Pager
from repro.storage.raf import RandomAccessFile


def _rows(args, _result) -> int:
    """(query, object) pairs a staged-pruner call covers."""
    if len(args) < 3:  # called by keyword: time it, count nothing
        return 0
    qmat, omat = args[1], args[2]
    return (qmat.shape[0] if qmat.ndim > 1 else 1) * omat.shape[0]


def _result_len(_args, result) -> int:
    return len(result)


def _arg_len(args, _result) -> int:
    return len(args[0])


def _returned(_args, result) -> int:
    return int(result or 0)


_QUERY_METHODS = ("range_query", "knn_query", "range_query_many", "knn_query_many")
_INDEX_METHODS = _QUERY_METHODS + ("insert", "delete")

# (owner, attribute names, layer, work function or None).  ``work`` counts
# what a call processed so a layer's time can be divided by it.
SHIMS = (
    (
        MetricSpace,
        ("d", "d_many", "d_ids", "pairwise_objects", "pairwise_ids"),
        "core.distances",
        None,
    ),
    (PivotMapping, ("map_query", "map_query_many"), "core.mapping", None),
    (
        StagedPruner,
        (
            "masks_many",
            "masks_many_queries",
            "lower_bounds_many",
            "lower_bounds_many_queries",
        ),
        "core.staged",
        _rows,
    ),
    (
        PerObjectStagedPruner,
        ("masks_many", "masks_many_queries", "lower_bounds_many_queries"),
        "core.staged",
        None,
    ),
    (core_queries, ("best_first_knn",), "core.queries", None),
    (LAESA, _INDEX_METHODS, "tables", None),
    # MVPT inherits its query methods; a shim sits where the function lives
    (FrontierTreeMixin, _QUERY_METHODS, "trees", None),
    (MVPT, ("insert", "delete"), "trees", None),
    (SPBTree, _INDEX_METHODS, "external", None),
    (BPlusTree, ("search", "insert", "delete", "read_node"), "btree", None),
    (HilbertCurve, ("encode", "decode"), "sfc", None),
    (RandomAccessFile, ("read", "append", "update"), "storage.raf", None),
    (RandomAccessFile, ("read_many",), "storage.raf", _result_len),
    (Pager, ("read", "read_many", "write"), "storage.pager", None),
    (QueryResultCache, ("get", "put"), "service.cache", None),
    (QueryResultCache, ("invalidate_affected",), "service.cache", _returned),
    (MicroBatchDispatcher, ("submit",), "service.dispatcher", None),
    (QueryPlanner, ("route", "observe"), "service.planner", None),
    (wire, ("dumps",), "service.wire", _result_len),
    (wire, ("loads",), "service.wire", _arg_len),
    (QueryService, _INDEX_METHODS, "service.service", None),
)


def _owner_name(owner) -> str:
    name = getattr(owner, "__qualname__", None) or owner.__name__
    return name.rsplit(".", 1)[-1]


class Tracer:
    """Span stack, per-layer totals and the shims that feed them."""

    def __init__(self):
        self._lock = threading.Lock()
        self._stack: list[list] = []  # open spans: [name, layer, start, child_ns]
        self._client = threading.get_ident()
        self._installed: list[tuple] = []  # (namespace, attribute, original)
        self.kind = "idle"
        # (kind, layer, name, on client thread) -> [calls, total_ns, self_ns, work]
        self.totals: dict[tuple, list] = {}
        # the benchmark's own spans: (name, start_ns, end_ns, parent, op id)
        self.spans: list[tuple] = []
        # gap between MicroBatchDispatcher.submit returning and the worker
        # thread's first span: the wait the dispatcher adds to a lone request
        self.handoff_ns: list[int] = []
        self._submitted_at = None
        self._pass = None
        self._op = None

    # -- spans ------------------------------------------------------------------

    def _open(self, name: str, layer: str) -> list:
        frame = [name, layer, 0, 0]
        with self._lock:
            now = perf_counter_ns()
            if self._submitted_at is not None and threading.get_ident() != self._client:
                submitted, submitter = self._submitted_at
                if threading.get_ident() != submitter:
                    self.handoff_ns.append(now - submitted)
                    self._submitted_at = None
            frame[2] = now
            self._stack.append(frame)
        return frame

    def _close(self, frame: list, work: int) -> int:
        with self._lock:
            now = perf_counter_ns()
            duration = now - frame[2]
            stack = self._stack
            if stack and stack[-1] is frame:
                stack.pop()
            else:
                # the worker thread may finish its bookkeeping after the
                # thread it answered has already moved on
                stack.remove(frame)
            if stack:
                stack[-1][3] += duration
            name, layer = frame[0], frame[1]
            key = (self.kind, layer, name, threading.get_ident() == self._client)
            total = self.totals.get(key)
            if total is None:
                total = self.totals[key] = [0, 0, 0, 0]
            total[0] += 1
            total[1] += duration
            total[2] += duration - frame[3]
            total[3] += work
            if name == "MicroBatchDispatcher.submit":
                self._submitted_at = (now, threading.get_ident())
        return now

    def begin_pass(self, pass_no: int) -> None:
        self.kind = "idle"
        self._pass = self._open(f"pass{pass_no}", "bench")

    def end_pass(self) -> None:
        frame = self._pass
        self.kind = "idle"
        self.spans.append((frame[0], frame[2], self._close(frame, 0), None, None))

    def begin_op(self, kind: str, op_id: int) -> None:
        self.kind = kind
        self._op = (self._open(kind, "bench"), op_id)

    def end_op(self) -> None:
        frame, op_id = self._op
        end = self._close(frame, 0)
        self.spans.append((frame[0], frame[2], end, self._pass[0], op_id))
        self.kind = "idle"

    # -- shims ----------------------------------------------------------------------

    def _shim(self, name: str, layer: str, fn, work):
        tracer = self

        def shim(*args, **kwargs):
            frame = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, 0)
                raise
            tracer._close(frame, work(args, result) if work is not None else 0)
            return result

        shim.__wrapped__ = fn
        return shim

    def install(self) -> None:
        for owner, attributes, layer, work in SHIMS:
            for attribute in attributes:
                original = owner.__dict__[attribute]
                name = f"{_owner_name(owner)}.{attribute}"
                shim = self._shim(name, layer, original, work)
                if isinstance(owner, type):
                    self._patch(owner, attribute, original, shim)
                    continue
                # a module function: patch every ``repro`` namespace that
                # imported it by name, or callers there would bypass the shim
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").split(".")[0] != "repro":
                        continue
                    if module.__dict__.get(attribute) is original:
                        self._patch(module, attribute, original, shim)

    def _patch(self, namespace, attribute: str, original, shim) -> None:
        setattr(namespace, attribute, shim)
        self._installed.append((namespace, attribute, original))

    def remove(self) -> None:
        while self._installed:
            namespace, attribute, original = self._installed.pop()
            setattr(namespace, attribute, original)

    # -- totals ---------------------------------------------------------------------

    def sum(self, field: int, kinds=None, layer=None, name=None, client=None) -> int:
        """Sum one field (0 calls, 1 total ns, 2 self ns, 3 work) over the
        totals matching the given kinds / layer / span name / thread side."""
        out = 0
        for (kind, lay, nam, on_client), total in self.totals.items():
            if kinds is not None and kind not in kinds:
                continue
            if layer is not None and lay != layer:
                continue
            if name is not None and nam != name:
                continue
            if client is not None and on_client != client:
                continue
            out += total[field]
        return out

    def layers(self) -> dict:
        """``{layer: {kind: self ms}}`` for the results file."""
        out: dict = {}
        for (kind, layer, _name, _client), total in self.totals.items():
            per_kind = out.setdefault(layer, {})
            per_kind[kind] = per_kind.get(kind, 0.0) + total[2] / 1e6
        return out
