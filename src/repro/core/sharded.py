"""Sharded index: partitioned construction and fan-out queries.

Section 6.2 of the paper discusses accelerating construction by
parallelisation: "(iii) as the data can be partitioned into disjoint parts,
multiple index structures ... instead of one can be constructed in
parallel."  This module implements that third route as a first-class
combinator: the dataset is split into ``n_shards`` disjoint parts, one inner
index is built per part (independently -- embarrassingly parallel), and
queries fan out:

* MRQ(q, r) is the union of per-shard MRQs (exact, no post-filtering);
* MkNNQ(q, k) asks every shard for its local k and merges -- the global
  answer is contained in the union of local answers, so the merge is exact.

Shard construction is expressed as independent closures; a caller with a
process pool can map them concurrently -- the combinator itself stays
deterministic and single-process by default.  An optional ``executor`` (any
object with a ``map(fn, iterable)`` method, e.g.
``concurrent.futures.ThreadPoolExecutor``) parallelises shard construction
and batch-query fan-out.

Cost accounting comes in two modes:

* **shared counters** (default): every shard's sub-space increments the
  parent's :class:`~repro.core.counters.CostCounters` directly.  The
  increments are lock-protected, so thread pools keep counts exact -- but a
  process pool's workers mutate pickled *copies* and the counts are lost.
* **per-shard counters** (``per_shard_counters=True``): each shard owns a
  private ``CostCounters``; every shard call measures its own before/after
  delta *inside the call* and the parent folds the deltas into its
  counters via :meth:`CostCounters.merge`.  Deltas travel with the result
  values, so they survive process boundaries and a
  ``concurrent.futures.ProcessPoolExecutor`` reports exactly the same
  counts as a thread pool or the serial loop.

The batch path is where sharding pays off for throughput: ``*_query_many``
fans the *whole* query batch out to each shard once and merges with one pass
per shard, instead of crossing every shard once per query.

Topology helpers: :meth:`ShardedIndex.split` turns a sharded index into
standalone single-shard parts whose answers already carry **global** ids
(each part is itself a one-shard ``ShardedIndex``), so a part can be
snapshotted and served by its own process; :meth:`ShardedIndex.merge`
reassembles parts into one index, and the static
:meth:`merge_range_answers` / :meth:`merge_knn_answers` helpers are the
single definition of the exact merge.  A sharded index built with
``shard_ids=None`` fans out over parts that already answer global ids:
that is how a cluster's shard mode (:mod:`repro.service.cluster`) serves
remote backends, each hosting one ``split()`` part, through this very
fan-out and merge -- so scatter-gather answers cannot drift from
single-process ones.
"""

from __future__ import annotations

from operator import methodcaller
from typing import Callable, Sequence

import numpy as np

from .counters import CostCounters, CostSnapshot
from .index import MetricIndex
from .metric_space import MetricSpace
from .queries import KnnHeap, Neighbor

__all__ = ["ShardedIndex"]


def _invoke_shard(task: tuple) -> tuple:
    """Run one shard method and return ``(result, counter delta)``.

    Module-level (not a closure) so a ``ProcessPoolExecutor`` can pickle
    it; the measured delta rides back with the result, which is the only
    channel that crosses a process boundary.
    """
    shard, method, args = task
    counters = shard.space.counters
    before = counters.snapshot()
    result = getattr(shard, method)(*args)
    delta = counters.snapshot() - before
    return result, delta


class ShardedIndex(MetricIndex):
    """Disjoint data shards, one inner index each, exact merged answers."""

    name = "Sharded"

    def __init__(
        self,
        space: MetricSpace,
        shards: list[MetricIndex],
        shard_ids: list[Sequence[int]] | None,
        executor=None,
        per_shard_counters: bool = False,
    ):
        super().__init__(space)
        self.shards = shards
        # shard s's local id i is global id shard_ids[s][i]; None when every
        # shard already answers in global ids (split() parts, remote backends)
        self._shard_ids = (
            None if shard_ids is None else [list(ids) for ids in shard_ids]
        )
        self.executor = executor
        self.per_shard_counters = per_shard_counters

    def _global_ids(self, position: int, local: list[int]) -> list[int]:
        """Shard ``position``'s MRQ answer in global ids."""
        if self._shard_ids is None:
            return local
        ids = self._shard_ids[position]
        return [ids[i] for i in local]

    def _global_neighbors(self, position: int, local: list) -> list[Neighbor]:
        """Shard ``position``'s MkNNQ answer in global ids."""
        if self._shard_ids is None:
            return local
        ids = self._shard_ids[position]
        return [Neighbor(n.distance, ids[n.object_id]) for n in local]

    def _merge_delta(self, shard: MetricIndex, delta: CostSnapshot) -> None:
        """Fold a shard's measured delta into the parent's counters.

        Guard against aliasing: if the shard's counters *are* the parent's
        (e.g. a blanket counter rebind collapsed them), the work was
        already counted directly and merging the delta would double it.
        """
        if shard.space.counters is self.space.counters:
            return
        self.space.counters.merge(delta)

    def _map_shards(self, method: str, *args) -> list:
        """Run ``method(*args)`` on every shard, via the executor if set.

        In per-shard-counters mode every call returns its counter delta
        alongside the result (measured inside the worker, so process pools
        are exact) and the deltas are merged here, in submission order.
        """
        if self.per_shard_counters:
            tasks = [(shard, method, args) for shard in self.shards]
            if self.executor is not None:
                pairs = list(self.executor.map(_invoke_shard, tasks))
            else:
                pairs = [_invoke_shard(task) for task in tasks]
            results = []
            for shard, (result, delta) in zip(self.shards, pairs):
                self._merge_delta(shard, delta)
                results.append(result)
            return results
        if self.executor is not None:
            # methodcaller (unlike a closure) survives pickling, so even the
            # shared-counters path runs under a process pool -- though only
            # per_shard_counters keeps the *counts* exact there
            return list(self.executor.map(methodcaller(method, *args), self.shards))
        return [getattr(shard, method)(*args) for shard in self.shards]

    @classmethod
    def build(
        cls,
        space: MetricSpace,
        build_shard: Callable[[MetricSpace], MetricIndex],
        n_shards: int = 4,
        seed: int = 0,
        executor=None,
        per_shard_counters: bool = False,
    ) -> "ShardedIndex":
        """Partition the dataset round-robin and build one index per part.

        Args:
            space: the full (counted) metric space.
            build_shard: factory receiving a shard's MetricSpace and
                returning a built index; e.g.
                ``lambda s: MVPT.build(s, select_pivots(s, 5))``.  With a
                process pool the factory must be picklable (a module-level
                function or ``functools.partial``, not a lambda).
            n_shards: number of disjoint parts.
            seed: shuffle seed for the partition.
            executor: optional ``map``-capable pool; shard construction (an
                embarrassingly parallel loop) and batch-query fan-out run
                through it.  The built index keeps it for query time.
            per_shard_counters: give each shard a private
                :class:`CostCounters` and merge per-call deltas into the
                parent's counters (see module docstring).  Required for a
                ``ProcessPoolExecutor``; with the default shared counters a
                process pool would silently lose all shard counts.
        """
        n = len(space)
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
        # membership is random, but each shard's id list is kept ascending:
        # local storage order then matches global id order, so the shards'
        # canonical (distance, id) kNN tie-breaking agrees with the global
        # one and merged answers equal the single-index/brute-force answers
        shard_ids = [
            sorted(int(i) for i in order[s::n_shards]) for s in range(n_shards)
        ]
        sub_spaces = [
            MetricSpace(
                space.dataset.subset(ids),
                CostCounters() if per_shard_counters else space.counters,
            )
            for ids in shard_ids
        ]
        if executor is not None:
            shards = list(executor.map(build_shard, sub_spaces))
        else:
            shards = [build_shard(sub) for sub in sub_spaces]
        if per_shard_counters:
            # fold construction costs (accumulated on the private counters,
            # possibly in worker processes) into the parent's accounting
            for shard in shards:
                space.counters.merge(shard.space.counters)
        return cls(
            space,
            shards,
            shard_ids,
            executor=executor,
            per_shard_counters=per_shard_counters,
        )

    # -- exact merges (the single definition of a scatter-gather answer) ------

    @staticmethod
    def merge_range_answers(per_part) -> list[int]:
        """Exact MRQ merge of disjoint parts' answers (global ids).

        The shards hold disjoint data, so the union needs no
        deduplication; sorting ascending is the canonical answer order
        every index in the study returns.
        """
        merged: list[int] = []
        for part in per_part:
            merged.extend(part)
        return sorted(merged)

    @staticmethod
    def merge_knn_answers(per_part, k: int) -> list[Neighbor]:
        """Exact MkNNQ merge of parts' local top-k answers (global ids).

        The global k nearest are contained in the union of per-part
        answers, and :class:`KnnHeap`'s canonical ``(distance, id)``
        tie-breaking makes the result independent of part order -- so a
        scatter-gather merge is bit-for-bit the single-index answer.
        """
        heap = KnnHeap(k)
        for part in per_part:
            for neighbor in part:
                heap.consider(neighbor.object_id, neighbor.distance)
        return heap.neighbors()

    # -- queries ---------------------------------------------------------------
    #
    # The q = 1 entry points are the base class's views of these bodies, so
    # a single query fans out through _map_shards too, in either counter mode

    def range_query_many(self, queries, radius: float) -> list[list[int]]:
        """Batch fan-out: each shard answers the whole batch once, and the
        union merge runs one pass per shard instead of one per query."""
        queries = list(queries)
        if not queries:
            return []
        per_shard = self._map_shards("range_query_many", queries, radius)
        mapped = [
            [self._global_ids(i, results) for results in batches]
            for i, batches in enumerate(per_shard)
        ]
        return [self.merge_range_answers(parts) for parts in zip(*mapped)]

    def knn_query_many(self, queries, k: int) -> list[list[Neighbor]]:
        """Batch fan-out with one exact k-merge pass per shard."""
        queries = list(queries)
        if not queries:
            return []
        per_shard = self._map_shards("knn_query_many", queries, k)
        mapped = [
            [self._global_neighbors(i, neighbors) for neighbors in batches]
            for i, batches in enumerate(per_shard)
        ]
        return [self.merge_knn_answers(parts, k) for parts in zip(*mapped)]

    # -- topology ---------------------------------------------------------------

    def split(self) -> list["ShardedIndex"]:
        """One standalone single-shard index per shard, answering global ids.

        Each part wraps one inner shard together with its global id list,
        so ``part.range_query(...)`` / ``part.knn_query(...)`` return ids
        in the *parent's* id space -- a part can be snapshotted
        (:func:`repro.service.snapshot.save_index`) and served by its own
        process, and a ``ShardedIndex(space, remote_parts, None)`` over
        those processes reproduces this index's answers bit-for-bit.  The
        parts share the shards (no copies); the executor is not carried
        over.
        """
        return [
            ShardedIndex(shard.space, [shard], [list(ids)])
            for shard, ids in zip(self.shards, self._shard_ids)
        ]

    @classmethod
    def merge(cls, space: MetricSpace, parts: Sequence["ShardedIndex"]) -> "ShardedIndex":
        """Reassemble split parts into one sharded index over ``space``.

        The inverse of :meth:`split`: flattens every part's shards and
        global id lists.  The id lists must be disjoint and cover
        ``space`` exactly.
        """
        shards: list[MetricIndex] = []
        shard_ids: list[list[int]] = []
        for part in parts:
            shards.extend(part.shards)
            shard_ids.extend(list(ids) for ids in part._shard_ids)
        flat = [i for ids in shard_ids for i in ids]
        if len(flat) != len(set(flat)) or (flat and sorted(flat) != list(range(len(space)))):
            raise ValueError(
                "parts' id lists must disjointly cover the space "
                f"(got {len(flat)} ids over {len(space)} objects)"
            )
        return cls(space, shards, shard_ids)

    # -- snapshots --------------------------------------------------------------

    def prepare_snapshot(self) -> None:
        """Recurse into the shards; the executor itself is never pickled."""
        for shard in self.shards:
            shard.prepare_snapshot()

    def __getstate__(self) -> dict:
        # live thread/process pools cannot be serialised; a restored sharded
        # index starts serial and the caller re-attaches an executor
        state = self.__dict__.copy()
        state["executor"] = None
        return state

    # -- accounting -------------------------------------------------------------

    def storage_bytes(self) -> dict[str, int]:
        memory = disk = 0
        for shard in self.shards:
            storage = shard.storage_bytes()
            memory += storage["memory"]
            disk += storage["disk"]
        return {"memory": memory, "disk": disk}
