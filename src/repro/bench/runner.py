"""Benchmark runner: builds indexes and measures the paper's three metrics.

One measurement path, the protocol of Section 6.1: every reported number is
the mean over the workload's query sample of one ``range_query`` /
``knn_query`` (or delete + insert) call, each bracketed by
:meth:`~repro.core.counters.CostCounters.measure` -- compdists, PA and CPU
time come from that one bracket -- and averaged by
:class:`~repro.core.counters.QueryStats`.  MRQ runs on a 16 KB scan buffer,
MkNNQ behind the paper's 128 KB LRU cache, construction and updates on a
cold pool; the pool is dropped after every sample.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.counters import QueryStats
from ..core.index import MetricIndex
from ..core.metric_space import MetricSpace
from ..core.pivot_selection import select_pivots
from ..external import (
    DEPT,
    MIndex,
    MIndexStar,
    MTreeIndex,
    OmniBPlusTree,
    OmniRTree,
    OmniSequentialFile,
    PMTree,
    SPBTree,
)
from ..storage.pager import Pager
from ..tables import AESA, CPT, EPT, EPTStar, LAESA
from ..trees import BKT, FQA, FQT, MVPT, VPT
from .workloads import Workload

__all__ = [
    "BuildResult",
    "build_index",
    "measure_build",
    "run_range_queries",
    "run_knn_queries",
    "run_http_comparison",
    "run_updates",
    "DEFAULT_INDEX_NAMES",
    "KNN_CACHE_BYTES",
    "RANGE_CACHE_BYTES",
]

KNN_CACHE_BYTES = 128 * 1024
# MRQ runs without the paper's query cache, but a few pages of buffer model
# the sequential RAF scans the paper assumes (adjacent records on one page
# cost one access, not one per record)
RANGE_CACHE_BYTES = 16 * 1024

def _best_seconds(run, repeats: int) -> float:
    """Best-of-``repeats`` wall clock of one callable (floored at 1 ns).

    The one timing policy of every wall-clock comparison the benches keep;
    best-of suppresses scheduler noise better than the mean on short runs.
    """
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return max(best, 1e-9)


# the nine indexes of the paper's Section 6.5 comparison
DEFAULT_INDEX_NAMES = (
    "LAESA",
    "EPT*",
    "CPT",
    "BKT",
    "FQT",
    "MVPT",
    "PM-tree",
    "OmniR-tree",
    "M-index*",
    "SPB-tree",
)


@dataclass
class BuildResult:
    index: MetricIndex
    page_accesses: int
    compdists: int
    seconds: float
    memory_bytes: int
    disk_bytes: int

    @property
    def table_width(self) -> int | str:
        """Columns of the index's pivot table as built -- LAESA and CPT
        continue the pivots they are handed on large objects, so a row of
        compdists says which width it measured; ``"-"`` without a mapping."""
        mapping = getattr(self.index, "mapping", None)
        return "-" if mapping is None else mapping.n_pivots


def _page_size_for(index_name: str, workload_name: str) -> int:
    """The paper's page-size rule: 40 KB for CPT/PM-tree on high-dim data."""
    if index_name in ("CPT", "PM-tree") and workload_name in ("Color", "Synthetic"):
        return 40960
    return 4096


def build_index(
    name: str,
    space: MetricSpace,
    pivot_ids: list[int],
    workload_name: str = "",
    seed: int = 0,
    **overrides,
) -> MetricIndex:
    """Construct any index of the study by its paper name.

    All indexes receive the same HFI pivots except EPT/EPT* (per-object
    pivots) and BKT (random subtree pivots) -- the paper's protocol.
    """
    n_pivots = len(pivot_ids)
    page_size = overrides.pop("page_size", _page_size_for(name, workload_name))
    if name == "AESA":
        return AESA.build(space, **overrides)
    if name == "LAESA":
        return LAESA.build(space, pivot_ids, **overrides)
    if name == "EPT":
        return EPT.build(space, n_groups=n_pivots, seed=seed, **overrides)
    if name == "EPT*":
        return EPTStar.build(space, n_pivots_per_object=n_pivots, seed=seed, **overrides)
    if name == "CPT":
        return CPT.build(space, pivot_ids, page_size=page_size, seed=seed, **overrides)
    if name == "BKT":
        return BKT.build(space, seed=seed, **overrides)
    if name == "FQT":
        return FQT.build(space, pivot_ids, **overrides)
    if name == "FQA":
        return FQA.build(space, pivot_ids, **overrides)
    if name == "VPT":
        return VPT.build(space, pivot_ids, **overrides)
    if name == "MVPT":
        return MVPT.build(space, pivot_ids, **overrides)
    if name == "PM-tree":
        return PMTree.build(space, pivot_ids, page_size=page_size, seed=seed, **overrides)
    if name == "Omni-seq":
        return OmniSequentialFile.build(space, pivot_ids, page_size=page_size, **overrides)
    if name == "OmniB+":
        return OmniBPlusTree.build(space, pivot_ids, page_size=page_size, **overrides)
    if name == "OmniR-tree":
        return OmniRTree.build(space, pivot_ids, page_size=page_size, **overrides)
    if name == "M-index":
        return MIndex.build(space, pivot_ids, page_size=page_size, **overrides)
    if name == "M-index*":
        return MIndexStar.build(space, pivot_ids, page_size=page_size, **overrides)
    if name == "SPB-tree":
        return SPBTree.build(space, pivot_ids, page_size=page_size, **overrides)
    if name == "DEPT":
        return DEPT.build(
            space, n_pivots_per_object=n_pivots, page_size=page_size, seed=seed, **overrides
        )
    if name == "M-tree":
        return MTreeIndex.build(space, page_size=page_size, seed=seed, **overrides)
    raise ValueError(f"unknown index {name!r}")


def _index_pager(index: MetricIndex) -> Pager | None:
    pager = getattr(index, "pager", None)
    if pager is not None:
        return pager
    mtree = getattr(index, "mtree", None)
    if mtree is not None:
        return mtree.pager
    return None


def set_cache(index: MetricIndex, capacity_bytes: int) -> None:
    """Resize the index's buffer pool (no-op for in-memory indexes)."""
    pager = _index_pager(index)
    if pager is not None:
        pager.set_cache_bytes(capacity_bytes)


def measure_build(
    name: str,
    workload: Workload,
    pivot_ids: list[int],
    seed: int = 0,
    **overrides,
) -> BuildResult:
    """Build an index cold and report Table 4's columns."""
    space = workload.fresh_space()
    with space.counters.measure() as m:
        index = build_index(
            name, space, pivot_ids, workload_name=workload.name, seed=seed, **overrides
        )
    storage = index.storage_bytes()
    return BuildResult(
        index=index,
        page_accesses=m.page_accesses,
        compdists=m.compdists,
        seconds=m.cpu_seconds,
        memory_bytes=storage["memory"],
        disk_bytes=storage["disk"],
    )


def _measure_each(index: MetricIndex, cache_bytes: int, operation, items) -> QueryStats:
    """``operation(item)`` once per item, each call in its own bracket.

    The pool is dropped and resized to ``cache_bytes`` before the first
    call, carries over from one call to the next, and is left at capacity 0.
    """
    set_cache(index, cache_bytes)
    counters = index.space.counters
    stats = QueryStats()
    for item in items:
        with counters.measure() as m:
            operation(item)
        stats.record(m)
    set_cache(index, 0)
    return stats


def run_range_queries(index: MetricIndex, queries, radius: float) -> QueryStats:
    """Mean MRQ cost over the query sample (scan buffer only, no query cache)."""
    return _measure_each(
        index, RANGE_CACHE_BYTES, lambda q: index.range_query(q, radius), queries
    )


def run_knn_queries(
    index: MetricIndex,
    queries,
    k: int,
    cache_bytes: int = KNN_CACHE_BYTES,
) -> QueryStats:
    """Mean MkNNQ cost over the query sample (paper's 128 KB LRU cache)."""
    return _measure_each(index, cache_bytes, lambda q: index.knn_query(q, k), queries)


def run_http_comparison(
    index: MetricIndex,
    queries,
    radius: float,
    k: int,
    repeats: int = 3,
    batch_copies: int = 4,
    codec: str = "json",
) -> dict:
    """Batch queries in process vs the same batches over HTTP loopback.

    Guards the HTTP front-end's overhead budget: one ``POST /range_many``
    (or ``/knn_many``) carrying a whole batch must stay within a small
    constant factor of calling ``range_query_many`` / ``knn_query_many``
    directly -- the codec plus one localhost round trip, amortised over
    the batch, is all the wire may cost.  ``codec`` selects the wire
    format: ``"json"`` (the default protocol) or ``"binary"``
    (:mod:`repro.service.wire` raw-buffer frames, the fast path that
    removes the per-element codec tax on vector workloads).

    The hosting service runs with the result cache *disabled* so both
    sides pay the full evaluation each pass; with a warm cache the
    comparison would degenerate into a dict lookup vs the wire codec and
    say nothing about serving real traffic.  The query sample is repeated
    ``batch_copies`` times so the batch is big enough to amortise the round
    trip the way production batches do.  Wire answers are asserted
    bit-for-bit equal to the in-process ones before anything is timed.
    """
    from ..service import QueryService
    from ..service.http import HttpQueryServer, ServiceClient

    if codec not in ("json", "binary"):
        raise ValueError(f"codec must be 'json' or 'binary', got {codec!r}")
    queries = list(queries) * batch_copies
    n = len(queries)

    with QueryService(index, cache_size=0, use_dispatcher=False) as service:
        expected_range = service.range_query_many(queries, radius)
        expected_knn = service.knn_query_many(queries, k)
        server = HttpQueryServer(service)
        server.start()
        try:
            with ServiceClient(port=server.port, binary=codec == "binary") as client:
                wire_range = client.range_query_many(queries, radius)
                wire_knn = client.knn_query_many(queries, k)
                if wire_range != expected_range:
                    raise AssertionError(f"{index.name}: HTTP MRQ answers diverge")
                if wire_knn != expected_knn:
                    raise AssertionError(f"{index.name}: HTTP MkNNQ answers diverge")
                inproc_range = _best_seconds(
                    lambda: service.range_query_many(queries, radius), repeats
                )
                http_range = _best_seconds(
                    lambda: client.range_query_many(queries, radius), repeats
                )
                inproc_knn = _best_seconds(
                    lambda: service.knn_query_many(queries, k), repeats
                )
                http_knn = _best_seconds(
                    lambda: client.knn_query_many(queries, k), repeats
                )
        finally:
            server.close()

    return {
        "Index": index.name,
        "codec": codec,
        "batch": n,
        "MRQ inproc ms": round(inproc_range * 1000.0, 2),
        "MRQ http ms": round(http_range * 1000.0, 2),
        "MRQ ratio": round(http_range / inproc_range, 2),
        "kNN inproc ms": round(inproc_knn * 1000.0, 2),
        "kNN http ms": round(http_knn * 1000.0, 2),
        "kNN ratio": round(http_knn / inproc_knn, 2),
    }


def run_updates(index: MetricIndex, object_ids) -> QueryStats:
    """Mean cost of one update = delete an object, insert it back (Table 6)."""
    dataset = index.space.dataset

    def update(object_id):
        obj = dataset[object_id]
        index.delete(object_id)
        index.insert(obj, object_id=object_id)

    return _measure_each(index, 0, update, object_ids)


def shared_pivots(workload: Workload, n_pivots: int, seed: int = 0) -> list[int]:
    """The study's common pivots: HFI on an uncounted scratch space."""
    scratch = MetricSpace(workload.dataset)
    return select_pivots(scratch, n_pivots, strategy="hfi", seed=seed)
