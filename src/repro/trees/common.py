"""Shared pieces of the pivot-based tree indexes (paper Section 4).

All four trees prune subtrees with the same one-pivot form of Lemma 1: a
subtree whose objects have d(o, p) inside [lo, hi] can be skipped when
[lo, hi] misses [d(q,p) - r, d(q,p) + r].  Equivalently
``interval_gap(d(q,p), lo, hi)`` is a lower bound of d(q, o) for every o in
the subtree; best-first MkNNQ orders subtrees by the maximum such gap
accumulated along the path from the root.

Because the pruning rule is identical everywhere, the whole family shares
its traversals (:class:`FrontierTreeMixin`), one body per query type:

* **MRQ is a batch frontier.**  A frontier of (node, active-query-subset)
  pairs descends the tree once per *batch*: at each node the query-to-pivot
  distances of every still-active query come from one counted ``pairwise``
  call, ``interval_gap`` is one vectorized 2-D operation over (active
  queries x children), and the active set is re-partitioned per child.  The
  active set carried to a node is exactly the set of queries whose own
  traversal would visit it, so a batch costs the sum of its queries'
  compdists, and ``range_query`` is the batch of one.
* **MkNNQ is a per-query best-first walk** (``_knn_walk``): scalar
  ``interval_gap`` on a node, one :class:`~repro.core.queries.KnnHeap`, a
  pivot distance computed once per (query, pivot).  ``knn_query_many`` runs
  that walk query after query and shares nothing else -- a query's pivot
  distances and its radius are its own, and a frontier common to the batch
  (cut off at the largest radius among its heaps) tightened every radius
  late and cost more distances than the loop it replaced.  The heap's
  canonical (distance, id) tie-breaking makes the answer independent of
  verification order, so both views equal brute force bit for bit.

**Leaf verification is deferred, and filtered first.**  MRQ collects the
leaves each query reached and verifies them at the end; the MkNNQ walk
collects consecutive leaf pops and verifies them when the next internal
node arrives.  Either way the reached leaves first pass through the
tree's *leaf filter* (:meth:`FrontierTreeMixin._leaf_filter`) -- all of
them in one call, with the query's pivot distances and its current radius
-- and only the ids it returns reach one counted ``d_many`` call.  MVPT /
VPT keep per-object path-distance codes and drop there what Lemma 1
excludes; BKT / FQT hold no path distances and pass every id through.  The
filter never calls the metric.

Node protocol the traversals expect (what all the trees already store):

* leaves have ``is_leaf = True`` and an ``ids`` sequence;
* internal nodes have parallel ``lows`` / ``highs`` arrays and a
  ``children`` list, with tight per-child distance bounds to the node's
  pivot.

Trees plug in via small hooks: :meth:`FrontierTreeMixin._frontier_key`
maps a node to a hashable pivot identity (``None`` = no pruning possible,
e.g. BKT's tombstoned pivots) shared by every node using the same pivot
(the distance-cache key), and :meth:`FrontierTreeMixin._frontier_pivot`
resolves that key to the raw pivot object.  BKT additionally reports its
pivot as a result candidate via ``_frontier_candidate``.  The same hooks
drive the descent behind every tree's ``insert`` and ``delete``
(``_route_insert``, ``_find_for_delete``).
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from ..core.index import NotIndexed, claim_object_id
from ..core.queries import KnnHeap, Neighbor

__all__ = ["FrontierTreeMixin", "interval_gap", "require_discrete"]


def interval_gap(query_to_pivot: float, lo: float, hi: float) -> float:
    """Lower bound of |d(q,p) - d(o,p)| when d(o,p) is within [lo, hi]."""
    if query_to_pivot < lo:
        return lo - query_to_pivot
    if query_to_pivot > hi:
        return query_to_pivot - hi
    return 0.0


def require_discrete(space, index_name: str) -> None:
    """BKT/FQT/FQA are defined for discrete distance functions only.

    The paper leaves LA and Color blank in Tables 4 and 6 for exactly this
    reason; we raise instead of silently mis-indexing.
    """
    from ..core.index import UnsupportedOperation

    if not space.is_discrete:
        raise UnsupportedOperation(
            f"{index_name} requires a discrete distance function; "
            f"{space.distance.name} is continuous (wrap it in "
            "DiscreteMetricAdapter to ceil distances)"
        )


def _every_id(leaves, radius: float) -> np.ndarray:
    """The leaf filter of a tree that keeps no path distances."""
    return np.fromiter(
        itertools.chain.from_iterable(leaf.ids for leaf in leaves), dtype=np.intp
    )


def _interval_gaps(dists: np.ndarray, node) -> np.ndarray:
    """Vectorized :func:`interval_gap`: (active queries) x (children)."""
    lows = np.asarray(node.lows, dtype=np.float64)
    highs = np.asarray(node.highs, dtype=np.float64)
    d = dists[:, None]
    return np.maximum(np.maximum(lows[None, :] - d, d - highs[None, :]), 0.0)


class FrontierTreeMixin:
    """Traversals shared by VPT/MVPT/BKT/FQT.

    Provides the four query methods and the descent behind ``insert`` /
    ``delete`` on top of the node protocol and hooks described in the
    module docstring.  Mixing classes must define ``root`` and ``space``.
    """

    # -- hooks ---------------------------------------------------------------

    def _frontier_key(self, node):
        """Hashable identity of the node's pivot (``None``: cannot prune).

        Nodes sharing a key share one cached distance per query -- the
        per-level pivots of VPT/MVPT/FQT cost at most one computation per
        (query, level) no matter how many same-level nodes the query
        visits.
        """
        raise NotImplementedError

    def _frontier_pivot(self, key):
        """The raw pivot object for a key returned by `_frontier_key`."""
        raise NotImplementedError

    def _frontier_candidate(self, node) -> int | None:
        """Object id of a pivot that is itself a result candidate (BKT)."""
        return None

    def _leaf_filter(self, pivot_dist):
        """One query's ``keep(leaves, radius) -> ids`` still to be verified.

        ``pivot_dist(key)`` is the query's distance to a pivot its walk has
        already paid for.  A tree whose leaves hold path distances drops
        here what Lemma 1 excludes at ``radius`` (MVPT / VPT); the others
        hold none and pass every reached id through.
        """
        return _every_id

    # -- queries -------------------------------------------------------------

    def range_query(self, query_obj, radius: float) -> list[int]:
        return self.range_query_many([query_obj], radius)[0]

    def knn_query(self, query_obj, k: int) -> list[Neighbor]:
        return self._knn_walk(query_obj, k)

    def range_query_many(self, queries, radius: float) -> list[list[int]]:
        """Batched MRQ: one frontier descent for the whole batch.

        The active set carried to each node is exactly the set of queries
        whose sequential traversal would visit it, and leaf verification is
        deferred into one leaf-filter pass and one vectorized counted call
        per query at the end, so the counted distance computations match
        the sequential loop query for query.
        """
        queries = list(queries)
        if not queries:
            return []
        take = self._query_selector(queries)
        results: list[list[int]] = [[] for _ in queries]
        reached: list[list] = [[] for _ in queries]  # leaves to verify
        cache: dict = {}
        stack = [(self.root, np.arange(len(queries), dtype=np.intp))]
        while stack:
            node, active = stack.pop()
            if node.is_leaf:
                if node.ids:
                    for qi in active.tolist():
                        reached[qi].append(node)
                continue
            key = self._frontier_key(node)
            if key is None:  # no pruning possible: descend with everyone
                for child in node.children:
                    stack.append((child, active))
                continue
            d = self._pivot_dists(cache, take, len(queries), key, active)
            candidate = self._frontier_candidate(node)
            if candidate is not None:
                for qi, dq in zip(active, d):
                    if dq <= radius:
                        results[qi].append(candidate)
            alive = _interval_gaps(d, node) <= radius  # active x children
            for j in np.flatnonzero(alive.any(axis=0)).tolist():
                stack.append((node.children[j], active[alive[:, j]]))
        gather = self.space.dataset.gather
        for qi, leaves in enumerate(reached):
            if not leaves:
                continue
            ids = self._leaf_filter(lambda key: cache[key][qi])(leaves, radius)
            if len(ids):
                dists = self.space.d_many(queries[qi], gather(ids))
                results[qi].extend(ids[dists <= radius].tolist())
        return [sorted(ids) for ids in results]

    def knn_query_many(self, queries, k: int) -> list[list[Neighbor]]:
        """Batch MkNNQ: the walk once per query.

        Nothing is shared between the queries of a batch but the body: a
        query's pivot distances and pruning radius are its own, and a
        frontier common to the batch makes every query's radius tighten
        late (it cost LA k = 1 five times the sequential compdists).
        """
        return [self._knn_walk(query_obj, k) for query_obj in queries]

    def _knn_walk(self, query_obj, k: int) -> list[Neighbor]:
        """The one MkNNQ body: best-first over nodes by accumulated gap.

        Leaf verification is deferred across consecutive leaf pops: popped
        leaves wait in ``pending`` and go through the leaf filter and one
        counted ``d_many`` call when the next internal node arrives (so its
        pruning sees a fresh radius) or the frontier empties.  Deferral is
        answer-preserving -- a radius that would have shrunk between two
        leaf pops can only let extra candidates in, and those lose to the
        heap's canonical (distance, id) ordering exactly as if considered
        late.
        """
        space = self.space
        gather = space.dataset.gather
        heap = KnnHeap(k)
        known: dict = {}  # pivot key -> d(q, pivot)
        keep = self._leaf_filter(known.__getitem__)
        pending: list = []
        counter = itertools.count(1)

        def verify_pending() -> None:
            ids = keep(pending, heap.radius)
            pending.clear()
            if len(ids):
                dists = space.d_many(query_obj, gather(ids))
                for object_id, d in zip(ids.tolist(), dists.tolist()):
                    heap.consider(object_id, d)

        pq = [(0.0, 0, self.root)]
        while pq:
            bound, _, node = heapq.heappop(pq)
            if bound > heap.radius:
                break  # pops ascend by bound: the rest of the frontier is dead
            if node.is_leaf:
                if node.ids:
                    pending.append(node)
                continue
            if pending:
                verify_pending()
            key = self._frontier_key(node)
            if key is None:  # no pruning possible: every child inherits
                for child in node.children:
                    heapq.heappush(pq, (bound, next(counter), child))
                continue
            d = known.get(key)
            if d is None:
                d = known[key] = space.d(query_obj, self._frontier_pivot(key))
            candidate = self._frontier_candidate(node)
            if candidate is not None:
                heap.consider(candidate, d)
            radius = heap.radius
            for lo, hi, child in zip(
                node.lows.tolist(), node.highs.tolist(), node.children
            ):
                child_bound = max(bound, interval_gap(d, lo, hi))
                if child_bound <= radius:
                    heapq.heappush(pq, (child_bound, next(counter), child))
        if pending:
            verify_pending()
        return heap.neighbors()

    # -- MRQ machinery ---------------------------------------------------------

    def _query_selector(self, queries: list):
        """``take(idxs) -> query batch`` for a subset of the query list.

        Vector datasets get one up-front 2-D matrix so subsets are a fancy
        index instead of a per-node Python list build; everything else
        (strings, ragged objects) falls back to list selection.
        """
        if self.space.dataset.is_vector:
            try:
                qmat = np.asarray(queries)
                if qmat.ndim == 2:
                    return qmat.__getitem__
            except (ValueError, TypeError):
                pass
        return lambda idxs: [queries[i] for i in idxs]

    def _pivot_dists(
        self, cache: dict, take, n_queries: int, key, active: np.ndarray
    ) -> np.ndarray:
        """d(q, pivot) for the active queries, lazily computed and cached."""
        column = cache.get(key)
        if column is None:
            column = np.full(n_queries, np.nan)
            cache[key] = column
        need = active[np.isnan(column[active])]
        if need.size:
            column[need] = self.space.pairwise_objects(
                take(need), [self._frontier_pivot(key)]
            )[:, 0]
        return column[active]

    # -- maintenance ---------------------------------------------------------

    def _route_insert(self, obj, object_id: int | None):
        """Descend to the leaf ``obj`` belongs in: ``(id, leaf, known)``.

        One distance per pivot on the way down (``known``, by pivot key).
        The id is claimed by :func:`~repro.core.index.claim_object_id`: an
        explicit ``object_id`` re-registers a dataset slot (delete, then
        insert back), so it must name one holding ``obj`` and must not be
        live -- a second copy would answer twice forever after.  The live
        copy, if any, sits under children whose bounds hold the distances
        just computed, so the check costs none of its own; bounds stretch
        only once it passed.
        """
        known: dict = {}
        path = []
        node = self.root
        while not node.is_leaf:
            key = self._frontier_key(node)
            if key is None:
                # tombstoned pivot: queries descend all children of this node
                # unconditionally, so routing is free to pick any child
                node = node.children[0]
                continue
            d = known[key] = self.space.d(obj, self._frontier_pivot(key))
            best, best_gap = 0, float("inf")
            for i, (lo, hi) in enumerate(zip(node.lows.tolist(), node.highs.tolist())):
                gap = interval_gap(d, lo, hi)
                if gap < best_gap:
                    best, best_gap = i, gap
            path.append((node, best, d))
            node = node.children[best]

        def is_live(i):
            holder = self._holder(self.root, i, lambda at: known.get(self._frontier_key(at)))
            return holder is not None

        object_id = claim_object_id(self.space, obj, object_id, is_live)
        for at, best, d in path:
            at.lows[best] = min(at.lows[best], d)
            at.highs[best] = max(at.highs[best], d)
        return int(object_id), node, known

    def _find_for_delete(self, object_id: int):
        """The leaf (or BKT node anchored on it) holding a live object."""
        dataset = self.space.dataset
        if 0 <= object_id < len(dataset):
            obj = dataset[object_id]

            def pivot_dist(at):
                key = self._frontier_key(at)
                return None if key is None else self.space.d(obj, self._frontier_pivot(key))

            holder = self._holder(self.root, object_id, pivot_dist)
            if holder is not None:
                return holder
        raise NotIndexed(f"object {object_id} is not in the tree")

    def _holder(self, node, object_id: int, pivot_dist):
        """Depth-first through every child whose bounds hold the object's
        pivot distance (all children where ``pivot_dist`` has none)."""
        if node.is_leaf:
            return node if object_id in node.ids else None
        if self._frontier_candidate(node) == object_id:
            return node
        d = pivot_dist(node)
        for lo, hi, child in zip(node.lows.tolist(), node.highs.tolist(), node.children):
            if d is not None and interval_gap(d, lo, hi) > 0:
                continue
            found = self._holder(child, object_id, pivot_dist)
            if found is not None:
                return found
        return None
