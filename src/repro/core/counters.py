"""Cost accounting shared by every index in the study.

The paper (Section 6.1) reports three metrics for each experiment:

* ``compdists`` -- the number of distance computations,
* ``PA`` -- the number of page accesses, and
* CPU time.

All of them flow through :class:`CostCounters`.  A single counter object is
shared by a :class:`~repro.core.metric_space.MetricSpace` (which increments
``compdists``) and by the storage layer (which increments page reads and
writes), so one ``measure()`` block captures the full cost of an operation no
matter how many components participate.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields


@dataclass
class CostSnapshot:
    """Immutable view of the counters at one point in time.

    ``page_reads`` counts *cold* reads only -- reads that actually reached
    the page store.  Reads served by a :class:`~repro.storage.pager.
    BufferPool` are ``buffer_hits``; candidates served from a page already
    read earlier in the same batched fetch (``Pager.read_many``) are
    ``grouped_hits``.  Neither counts toward ``page_accesses``, so PA
    measures real I/O.
    """

    distance_computations: int = 0
    page_reads: int = 0
    page_writes: int = 0
    elapsed_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    buffer_hits: int = 0
    grouped_hits: int = 0
    prune_prefix: int = 0
    prune_refine: int = 0
    prune_validated: int = 0
    prune_ptolemaic: int = 0

    @property
    def page_accesses(self) -> int:
        """Total page accesses (reads + writes), the paper's ``PA``."""
        return self.page_reads + self.page_writes

    def __sub__(self, other: "CostSnapshot") -> "CostSnapshot":
        return CostSnapshot(
            *[
                getattr(self, name) - getattr(other, name)
                for name in _SNAPSHOT_FIELD_NAMES
            ]
        )

    def as_dict(self) -> dict:
        """Every field by name, plus the derived ``page_accesses``.

        Field-complete by construction (``dataclasses.fields``), so a
        counter added to the dataclass can never silently vanish from
        serialised stats or telemetry attribution -- the class of stale
        field bug ``tests/test_obs.py`` guards structurally.
        """
        out = {name: getattr(self, name) for name in _SNAPSHOT_FIELD_NAMES}
        out["page_accesses"] = self.page_accesses
        return out

    def split(self, n: int) -> "list[CostSnapshot]":
        """``n`` shares whose field-wise sum reconstructs this snapshot
        exactly (integer fields; float fields divide evenly and may lose
        ulps).  The remainder of each integer division goes to the first
        ``value % n`` shares, so attribution over a coalesced batch of
        ``n`` requests conserves every count -- the telemetry layer's
        per-request cost attribution contract.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        shares = [dict() for _ in range(n)]
        for name in _SNAPSHOT_FIELD_NAMES:
            value = getattr(self, name)
            if isinstance(value, float):
                for share in shares:
                    share[name] = value / n
                continue
            base, remainder = divmod(value, n)
            for i, share in enumerate(shares):
                share[name] = base + (1 if i < remainder else 0)
        return [CostSnapshot(**share) for share in shares]


# field-name tuples, derived from ``dataclasses.fields`` exactly once --
# snapshot/diff/merge run on query hot paths (the telemetry layer takes two
# count snapshots around every traced batch call), and re-reflecting per
# call costs more than the arithmetic it feeds
_SNAPSHOT_FIELD_NAMES = tuple(f.name for f in fields(CostSnapshot))


@dataclass
class CostCounters:
    """Mutable cost accumulator threaded through a metric space and pager.

    Increments take a lock: a bare ``+=`` is a non-atomic read-modify-write
    that can drop counts when a thread-pool executor fans shard queries out
    concurrently (see :class:`~repro.core.sharded.ShardedIndex`).  The
    counted call sites are batch-level (one increment covers a whole
    vectorised distance call), so the lock is far off the hot path.
    """

    distance_computations: int = 0
    page_reads: int = 0
    page_writes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    buffer_hits: int = 0
    grouped_hits: int = 0
    prune_prefix: int = 0
    prune_refine: int = 0
    prune_validated: int = 0
    prune_ptolemaic: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        # threading locks cannot cross pickle boundaries; the counts can.
        # Dropping the lock here is what lets whole index graphs be pickled
        # (service snapshots) and shipped to ProcessPoolExecutor workers.
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def add_distances(self, n: int = 1) -> None:
        with self._lock:
            self.distance_computations += n

    def add_page_read(self, n: int = 1) -> None:
        with self._lock:
            self.page_reads += n

    def add_page_write(self, n: int = 1) -> None:
        with self._lock:
            self.page_writes += n

    def add_cache_hit(self, n: int = 1) -> None:
        with self._lock:
            self.cache_hits += n

    def add_cache_miss(self, n: int = 1) -> None:
        with self._lock:
            self.cache_misses += n

    def add_cache_eviction(self, n: int = 1) -> None:
        with self._lock:
            self.cache_evictions += n

    def add_buffer_hit(self, n: int = 1) -> None:
        """A page read served by the buffer pool (no store access)."""
        with self._lock:
            self.buffer_hits += n

    def add_grouped_hit(self, n: int = 1) -> None:
        """A page request served by an earlier read of the same batch."""
        with self._lock:
            self.grouped_hits += n

    def add_prune_stages(
        self,
        prefix: int = 0,
        refine: int = 0,
        validated: int = 0,
        ptolemaic: int = 0,
    ) -> None:
        """Per-stage decided counts from one staged-cascade pruning pass.

        ``prefix``/``refine``/``ptolemaic`` count (query, object) cells the
        respective stage excluded; ``validated`` counts cells Lemma 4
        accepted without an exact distance.  One lock acquisition covers
        the whole pass.
        """
        with self._lock:
            self.prune_prefix += prefix
            self.prune_refine += refine
            self.prune_validated += validated
            self.prune_ptolemaic += ptolemaic

    def reset(self) -> None:
        with self._lock:
            for name in self.count_fields():
                setattr(self, name, 0)

    def merge(self, other: "CostCounters | CostSnapshot") -> None:
        """Fold another accumulator's counts into this one.

        Accepts either live :class:`CostCounters` (e.g. a shard's private
        counters) or a :class:`CostSnapshot` delta returned from a worker
        process.  Only counts are merged -- a snapshot's
        ``elapsed_seconds`` is a timestamp, not a cost, and is ignored.
        Field-complete by construction: every count field participates,
        so a newly added counter cannot be silently dropped here.
        """
        with self._lock:
            for name in self.count_fields():
                setattr(self, name, getattr(self, name) + getattr(other, name))

    def count_fields(self) -> tuple[str, ...]:
        """The accumulator's count field names (everything but the lock).

        Derived from ``dataclasses.fields`` so ``merge``/``reset``/
        ``snapshot``/``as_dict`` can be asserted field-complete
        structurally -- adding a counter and forgetting one of them was a
        real bug class (PR 4) this closes.
        """
        return _COUNT_FIELD_NAMES

    def as_dict(self) -> dict:
        """One consistent read of every count (single lock acquisition)."""
        with self._lock:
            return {name: getattr(self, name) for name in _COUNT_FIELD_NAMES}

    def snapshot(self) -> CostSnapshot:
        with self._lock:
            state = {name: getattr(self, name) for name in _COUNT_FIELD_NAMES}
        return CostSnapshot(elapsed_seconds=time.perf_counter(), **state)

    def counts(self) -> tuple[int, ...]:
        """Raw count values in :meth:`count_fields` order.

        The cheap sibling of :meth:`snapshot` for before/after deltas on
        hot paths (one lock acquisition, no dataclass construction, no
        timestamp): the telemetry layer brackets every traced batch call
        with a ``counts()`` pair and builds one :class:`CostSnapshot` for
        the difference via :meth:`delta_since`.
        """
        with self._lock:
            return tuple(getattr(self, name) for name in _COUNT_FIELD_NAMES)

    def delta_since(self, before: tuple[int, ...]) -> CostSnapshot:
        """The counts accumulated since a :meth:`counts` capture.

        Field-complete by construction (the zip runs over the reflected
        field names); ``elapsed_seconds`` stays 0 -- a delta of counts
        has no timestamp.
        """
        return CostSnapshot(
            **{
                name: now - then
                for name, now, then in zip(_COUNT_FIELD_NAMES, self.counts(), before)
            }
        )

    @contextmanager
    def measure(self):
        """Measure the cost of a block.

        Yields a :class:`Measurement` whose fields are filled in when the
        block exits::

            with counters.measure() as m:
                index.range_query(q, r)
            print(m.cost.distance_computations, m.cost.page_accesses)
        """
        measurement = Measurement()
        before = self.snapshot()
        try:
            yield measurement
        finally:
            measurement.cost = self.snapshot() - before


_COUNT_FIELD_NAMES = tuple(
    f.name for f in fields(CostCounters) if not f.name.startswith("_")
)


@dataclass
class Measurement:
    """Result of a :meth:`CostCounters.measure` block."""

    cost: CostSnapshot = field(default_factory=CostSnapshot)

    @property
    def compdists(self) -> int:
        return self.cost.distance_computations

    @property
    def page_accesses(self) -> int:
        return self.cost.page_accesses

    @property
    def cpu_seconds(self) -> float:
        return self.cost.elapsed_seconds

    @property
    def cache_hits(self) -> int:
        return self.cost.cache_hits

    @property
    def cache_misses(self) -> int:
        return self.cost.cache_misses

    @property
    def buffer_hits(self) -> int:
        return self.cost.buffer_hits

    @property
    def grouped_hits(self) -> int:
        return self.cost.grouped_hits


@dataclass
class QueryStats:
    """Per-query means over a sample of queries measured one at a time.

    The paper reports averages over a sample of random queries; this
    accumulates the same averages over whatever sample the workload holds.
    """

    queries: int = 0
    total_distance_computations: int = 0
    total_page_accesses: int = 0
    total_cpu_seconds: float = 0.0

    def record(self, measurement: Measurement) -> None:
        self.queries += 1
        self.total_distance_computations += measurement.compdists
        self.total_page_accesses += measurement.page_accesses
        self.total_cpu_seconds += measurement.cpu_seconds

    @property
    def mean_compdists(self) -> float:
        return self.total_distance_computations / self.queries if self.queries else 0.0

    @property
    def mean_page_accesses(self) -> float:
        return self.total_page_accesses / self.queries if self.queries else 0.0

    @property
    def mean_cpu_seconds(self) -> float:
        return self.total_cpu_seconds / self.queries if self.queries else 0.0

    def as_dict(self) -> dict:
        return {
            "queries": self.queries,
            "compdists": self.mean_compdists,
            "page_accesses": self.mean_page_accesses,
            "cpu_seconds": self.mean_cpu_seconds,
        }
