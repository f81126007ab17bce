"""Shared pieces of the pivot-based tree indexes (paper Section 4).

All four trees prune subtrees with the same one-pivot form of Lemma 1: a
subtree whose objects have d(o, p) inside [lo, hi] can be skipped when
[lo, hi] misses [d(q,p) - r, d(q,p) + r].  Equivalently
``interval_gap(d(q,p), lo, hi)`` is a lower bound of d(q, o) for every o in
the subtree; best-first MkNNQ orders subtrees by the maximum such gap
accumulated along the path from the root.

**A tree is its columns.**  MVPT / VPT, FQT and BKT each hold five arrays,
their nodes in preorder, from build through snapshot to query:

* ``_rows`` (nodes x 2, int32): per node its fanout (0 for a leaf) and a
  key.  An internal node's key names its pivot -- the level of the shared
  per-level pivots of MVPT / VPT / FQT, BKT's own pivot object, or -1 for
  a tombstoned BKT pivot, which cannot prune.  A leaf's key is its depth:
  the path codes each of its objects carries (0 but in MVPT / VPT);
* ``_bounds`` (float64): each internal node's per-child lows, then highs
  -- tight bounds on the distance from the node's pivot to the child's
  objects;
* ``_sizes`` (int32): each leaf's object count;
* ``_ids`` (int32) and ``_codes`` (uint8): the leaves' ids and path codes
  (depth bytes an object, object-major, each a cell of its path's band at
  that level), back to back.

A snapshot lifts exactly these into memmap regions (the pickled state's
``root``).  Where a node's children and a leaf's objects sit is derived,
not saved: :meth:`FrontierTreeMixin._hold_columns` checks that the
columns agree and computes, in O(nodes) numpy, ``_at`` (an internal node's
first child slot -- its bounds start at twice that -- or a leaf's rank),
``_child`` (the node of every child slot) and ``_id_at`` / ``_code_at``
(where each leaf's ids and codes start).

**Writes touch one leaf.**  The first insert or delete in a leaf copies its
ids and codes into the overlay (``_flat.overlay``: leaf rank -> ``(ids,
codes)``), which every later read of that leaf prefers; bounds stretch in
place and BKT's tombstone is a key of -1 (a restored tree's columns are
copy-on-write memmaps, so the file is never written).  No write copies a
whole column.  A pickle -- a snapshot -- first folds the overlay back into
the live tree's columns, so a saved tree holds no per-leaf copies.

Because the pruning rule is identical everywhere, the whole family shares
its traversals (:class:`FrontierTreeMixin`), one body per query type.
Both walks carry, for every node they reach, its *path*: where in
``_bounds`` the child bounds they passed sit, one ``(low, high)`` pair a
level.  MVPT / VPT leaves code their objects' path distances within those
bands, so the path is what decodes them.

* **MRQ is one level-synchronous frontier** of (query, node, path) index
  arrays (:class:`_RangeWalk`): per level the query-to-pivot distances of
  the pairs come from one counted ``pairwise`` call per pivot (each
  (query, pivot) once), the gaps of every (pair, child) are one vectorized
  operation, and the pairs whose gap passes become the next level.  A
  level of few pairs -- one query's, mostly -- takes the same step pair by
  pair through flat views of the columns, which costs less than the array
  calls.  A pair reaches a node exactly when that query's own traversal
  would, so a batch costs the sum of its queries' compdists, and
  ``range_query`` is the batch of one.  The leaves each query reached are
  verified at the end: bounded object by object by the tree's *leaf
  filter* (:meth:`FrontierTreeMixin._leaf_bounds`), a level's leaves in
  one call, and the objects within the radius go to one counted
  ``d_many`` call per query.
* **MkNNQ is a per-query best-first walk** (``_knn_walk``) over nodes and
  then objects: nodes wait in a heap by the gap accumulated on their path,
  the objects of the leaves it reached in one run sorted by their own
  leaf-filter bounds, and whatever is lowest goes next.  Leaves set aside
  one after another are bounded in one call; objects are verified in
  ascending bound order, in chunks (k, then ``max(k, 32)``, as
  :func:`~repro.core.queries.best_first_knn` takes them, then growing) that,
  once the first has filled the heap, never pass the next node's bound, and
  the walk stops at the k-th distance.  ``knn_query_many`` runs that walk query after query and
  shares nothing else -- a query's pivot distances and its radius are its
  own, and a frontier common to the batch (cut off at the largest radius
  among its heaps) tightened every radius late and cost more distances
  than the loop it replaced.  The heap's canonical (distance, id)
  tie-breaking makes the answer independent of verification order, so
  both views equal brute force bit for bit.

MVPT / VPT's leaf filter is Lemma 1 on each object's path codes.  BKT /
FQT hold no path distances: an object is bounded by its leaf, so their
MkNNQ verifies a leaf's objects, in id order, as the leaf's turn comes.
The filter never calls the metric.

Trees plug in via :meth:`FrontierTreeMixin._frontier_pivot` (a key's pivot
object), :meth:`FrontierTreeMixin._key_limits` (the keys and depths their
columns may hold), :meth:`FrontierTreeMixin._leaf_bounds` and
:meth:`FrontierTreeMixin._stretching` (MVPT / VPT keep a band aside before
an insert stretches it) and ``_pivots_answer`` (BKT's pivot is itself a
result candidate).  The same columns drive the descent behind every tree's
``insert`` and ``delete`` (``_route_insert``, ``_find_for_delete``).
"""

from __future__ import annotations

import heapq
import itertools
from array import array
from typing import NamedTuple

import numpy as np

from ..core.index import MetricIndex, NotIndexed, claim_object_id
from ..core.queries import KnnHeap, Neighbor

__all__ = ["FrontierTreeMixin", "interval_gap", "require_discrete"]

# what a tree holds beside its pickled state: the columns (saved as
# ``root``), and what is derived from them or written over them
_COLUMNS = ("_rows", "_bounds", "_sizes", "_ids", "_codes")
_DERIVED_ARRAYS = ("_at", "_child", "_id_at", "_code_at")
_DERIVED = _DERIVED_ARRAYS + ("_flat",)
# an MRQ frontier level of fewer (query, node) pairs than this steps pair by
# pair, not as arrays.  Timed per level on MVPT (LA n = 50 000, Words
# n = 2 500): the pair loop costs ~4-7 us a pair, the array step ~25-70 us
# at any width up to 512 pairs, and they cross between 4 and 8 pairs; a
# 32-query LA batch walked pair by pair alone took 1.4x the wall
_FEW_PAIRS = 8
# MkNNQ verification chunks: k objects, then max(k, 32), then each four
# times the last.  An edit distance costs ~6 us an object in calls of 32 and
# ~2.4 in calls of 512 (Words); past the first, a chunk never passes the
# next node's bound, so only objects the walk would reach next anyway make
# it longer
_CHUNK_GROWTH = 4


class _Flat(NamedTuple):
    """A tree's columns and derived arrays as flat memoryviews, for the
    walks' one-at-a-time reads: an item is a Python number, several times
    cheaper than a numpy scalar.  ``rows`` is (fanout, key) pairs.

    ``overlay`` maps a written leaf's rank to its ``(ids, codes)`` copy.
    It travels with the views it overrides, so a reader that takes
    ``_flat`` once sees one consistent tree while a save folds it.
    """

    rows: memoryview
    at: memoryview
    child: memoryview
    bounds: memoryview
    id_at: memoryview
    code_at: memoryview
    ids: memoryview
    codes: memoryview
    overlay: dict


def _chunk_sizes(k: int):
    """MkNNQ verification chunk sizes: k, max(k, 32), then each four times
    the last."""
    yield k
    size = max(k, 32)
    while True:
        yield size
        size *= _CHUNK_GROWTH


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


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Where each of ``counts`` starts when laid end to end, then the end
    (int32 while the end fits)."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out.astype(np.intc) if out[-1] < 2**31 else out


def _placed(rows: np.ndarray):
    """``(at, child)``: per node its first child slot (internal) or rank
    (leaf); per child slot its node.

    A subtree ends at the first row after which one node fewer is owed than
    before its root, and a node's next sibling starts there: each root's
    ``(owed - 1, row)`` is merged into the rows' ``(owed, row)`` by one
    ``lexsort``, and the next row in that order is where its subtree ends.
    """
    fan = rows[:, 0].astype(np.intp)
    n = len(fan)
    leaf = fan == 0
    at = np.cumsum(fan) - fan
    at[leaf] = np.arange(int(leaf.sum()))
    owed = 1 + np.cumsum(fan - 1)  # nodes still owed after each row
    position = np.arange(n)
    order = np.lexsort(  # by (owed, row), a root before the row it waits at
        (np.repeat([1, 0], n), np.tile(position, 2), np.concatenate([owed, owed - fan]))
    )
    is_row = order < n
    row_at = np.full(2 * n, 2 * n)
    row_at[is_row] = np.flatnonzero(is_row)
    row_at = np.minimum.accumulate(row_at[::-1])[::-1]  # the next row in the order
    end = np.empty(n, dtype=np.intp)
    end[order[~is_row] - n] = order[row_at[~is_row]] + 1
    child = np.empty(int(fan.sum()), dtype=np.intc)
    nodes = np.flatnonzero(~leaf)
    kids, j = nodes + 1, 0
    while len(nodes):
        child[at[nodes] + j] = kids
        j += 1
        more = fan[nodes] > j
        nodes, kids = nodes[more], end[kids[more]]
    return at.astype(np.intc), child


class FrontierTreeMixin:
    """Traversals shared by VPT/MVPT/BKT/FQT.

    Provides the four query methods and the descent behind ``insert`` /
    ``delete`` on top of the columns and hooks described in the module
    docstring.  Mixing classes must define ``space``.
    """

    # BKT: a node's pivot is a dataset object, and so a result candidate
    _pivots_answer = False

    # -- hooks ---------------------------------------------------------------

    def _frontier_pivot(self, key):
        """The raw pivot object a node key names.

        Nodes sharing a key share one cached distance per query -- the
        per-level pivots of VPT/MVPT/FQT cost at most one computation per
        (query, level) no matter how many same-level nodes the query
        visits.
        """
        raise NotImplementedError

    def _key_limits(self) -> tuple[int, int, int]:
        """``(lowest key, key stop, deepest leaf)`` the columns may hold."""
        raise NotImplementedError

    def _leaf_bounds(self, pivot_dist, leaves, paths, floors):
        """``(ids, bounds)``: the objects of ``leaves`` (node numbers) and a
        lower bound of d(q, o) for each, never below its leaf's ``floors``
        entry.

        ``paths[i]`` holds, root first, the ``(low, high)`` positions in
        ``_bounds`` of the child bounds the walk passed on its way to
        ``leaves[i]`` -- every leaf of one call at the same depth --
        and ``pivot_dist(key)`` is the query's distance to a pivot the walk
        has paid for.  A tree whose leaves code their path distances bounds
        each object by Lemma 1 on them (MVPT / VPT); the others hold none,
        and an object is bounded by its leaf.
        """
        ids, _, counts = self._leaf_columns(np.asarray(leaves).tolist())
        return ids, np.repeat(floors, counts)

    def _stretching(self, low: int, lo: float, hi: float) -> None:
        """An insert is about to stretch the child bounds ``[lo, hi]`` at
        ``_bounds[low]`` (and the high one beside it)."""

    # -- columns -------------------------------------------------------------

    def _hold_columns(self, rows, bounds, sizes, ids, codes) -> None:
        """Hold a tree's five columns and what derives from them.

        Raises ``ValueError`` before holding anything unless the columns
        agree: the fanouts consume exactly the node rows, the sizes the ids,
        size x depth the codes, and 2 x fanout the bounds; no leaf is deeper
        than the tree's frames, and every internal key names a pivot.
        """
        what = f"packed {self.name}"
        # writes stretch bounds and tombstone keys in place (copy-on-write
        # memmaps take them; a read-only column is copied first)
        rows, bounds = (
            column if column.flags.writeable else column.copy()
            for column in (
                np.ascontiguousarray(rows, dtype=np.intc),
                np.ascontiguousarray(bounds, dtype=np.float64),
            )
        )
        sizes = np.ascontiguousarray(sizes, dtype=np.intc)
        ids = np.ascontiguousarray(ids, dtype=np.intc)
        codes = np.ascontiguousarray(codes, dtype=np.uint8)
        if rows.ndim != 2 or rows.shape[1] != 2 or not len(rows):
            raise ValueError(f"{what} node rows have shape {rows.shape}")
        fanout, key = rows.astype(np.int64).T
        leaf = fanout == 0
        depth = key[leaf]
        counts = sizes.astype(np.int64)
        waiting = 1 + np.cumsum(fanout - 1)  # nodes still owed after each row
        if (fanout < 0).any() or (waiting[:-1] <= 0).any() or waiting[-1] != 0:
            raise ValueError(f"{what} fanouts do not consume the node rows")
        if counts.shape != depth.shape or (counts < 0).any() or counts.sum() != len(ids):
            raise ValueError(f"{what} leaf sizes do not sum to its {len(ids)} ids")
        if (counts * depth).sum() != len(codes):
            raise ValueError(f"{what} leaf sizes and depths do not fill its {len(codes)} codes")
        if 2 * fanout.sum() != len(bounds):
            raise ValueError(f"{what} fanouts do not match its {len(bounds)} bounds")
        low, stop, deepest = self._key_limits()
        if (depth < 0).any() or (depth > deepest).any():
            raise ValueError(f"a {what} leaf is deeper than its {deepest} frames")
        inner = key[~leaf]
        if (inner < low).any() or (inner >= stop).any():
            raise ValueError(f"a {what} node names a pivot outside [{low}, {stop})")
        self._rows, self._bounds, self._sizes, self._ids, self._codes = (
            rows, bounds, sizes, ids, codes,
        )
        self._at, self._child = _placed(rows)
        self._id_at = _offsets(counts)
        self._code_at = _offsets(counts * depth)
        overlay: dict[int, tuple[array, bytearray]] = {}
        self._flat = _Flat(
            *(
                memoryview(column.reshape(-1))
                for column in (
                    rows, self._at, self._child, bounds, self._id_at, self._code_at, ids, codes
                )
            ),
            overlay,
        )

    def _fold(self) -> None:
        """Fold the overlay back into the columns, which the tree then holds
        in place of its per-leaf copies."""
        overlay = self._flat.overlay
        if not overlay:
            return
        sizes = np.array(self._sizes)
        id_parts, code_parts, done = [], [], 0
        for rank in sorted(overlay):
            ids, codes = overlay[rank]
            id_parts += (self._ids[self._id_at[done] : self._id_at[rank]], np.frombuffer(ids.tobytes(), np.intc))
            code_parts += (self._codes[self._code_at[done] : self._code_at[rank]], codes)
            sizes[rank] = len(ids)
            done = rank + 1
        id_parts.append(self._ids[self._id_at[done] :])
        code_parts.append(self._codes[self._code_at[done] :])
        self._hold_columns(
            self._rows, self._bounds, sizes, np.concatenate(id_parts), np.concatenate(code_parts)
        )

    def __getstate__(self):
        state = {k: v for k, v in self.__dict__.items() if k not in _COLUMNS + _DERIVED}
        state["root"] = None
        if "_rows" in self.__dict__:
            self._fold()
            state["root"] = tuple(getattr(self, name) for name in _COLUMNS)
        return state

    def __setstate__(self, state):
        state = dict(state)
        root = state.pop("root")
        self.__dict__.update(state)
        if root is not None:
            self._hold_columns(*root)

    def _leaf_columns(self, leaves: list[int]):
        """The ids and codes of ``leaves`` (node numbers), back to back, and
        each leaf's object count."""
        _, at, _, _, id_at, code_at, ids, codes, overlay = self._flat
        id_parts, code_parts = [], []
        for leaf in leaves:
            rank = at[leaf]
            if rank in overlay:
                leaf_ids, leaf_codes = overlay[rank]
            else:
                leaf_ids = ids[id_at[rank] : id_at[rank + 1]]
                leaf_codes = codes[code_at[rank] : code_at[rank + 1]]
            id_parts.append(leaf_ids)
            code_parts.append(leaf_codes)
        return (
            np.frombuffer(b"".join(id_parts), dtype=np.intc),
            np.frombuffer(b"".join(code_parts), dtype=np.uint8),
            np.array([len(part) for part in id_parts], dtype=np.intp),
        )

    def _written(self, leaf: int) -> tuple[array, bytearray]:
        """The overlay of a leaf, made by its first write: ids and codes
        copied out of the columns, for this leaf alone."""
        rank, overlay = self._flat.at[leaf], self._flat.overlay
        held = overlay.get(rank)
        if held is None:
            ids, codes, _ = self._leaf_columns([leaf])
            held = overlay[rank] = (array("i", ids.tobytes()), bytearray(codes))
        return held

    def _leaf_add(self, leaf: int, object_id: int, codes=()) -> None:
        ids, held = self._written(leaf)
        ids.append(object_id)
        held.extend(codes)

    def _leaf_remove(self, leaf: int, object_id: int) -> None:
        ids, codes = self._written(leaf)
        depth = self._flat.rows[2 * leaf + 1]
        slot = ids.index(object_id)
        del ids[slot]
        del codes[slot * depth : (slot + 1) * depth]

    def _structure_bytes(self) -> int:
        """The ``nbytes`` of the columns as a save writes them (a leaf in
        the overlay at its overlay's size) and of the arrays derived."""
        held = sum(
            getattr(self, name).nbytes for name in _COLUMNS + _DERIVED_ARRAYS
        )
        for rank, (ids, codes) in self._flat.overlay.items():
            held += ids.itemsize * (len(ids) - int(self._sizes[rank]))
            held += len(codes) - int(self._code_at[rank + 1] - self._code_at[rank])
        return held

    # -- queries -------------------------------------------------------------

    # the base class's q = 1 view, bound here by name too: the spine's
    # tracer (benchmarks/spine/tracer.py) times the entry points it finds
    # in this class's own namespace
    range_query = MetricIndex.range_query

    def knn_query(self, query_obj, k: int) -> list[Neighbor]:
        return self._knn_walk(query_obj, k)

    def range_query_many(self, queries, radius: float) -> list[list[int]]:
        """Batched MRQ: one level-synchronous frontier for the whole batch.

        The (query, node) pairs of each step are exactly those the queries'
        own traversals would visit, and leaf verification is deferred into
        one leaf-filter pass and one vectorized counted call per query at
        the end, so the counted distance computations match the sequential
        loop query for query.
        """
        queries = list(queries)
        if not queries:
            return []
        walk = _RangeWalk(self, queries, radius)
        qs, nodes = np.arange(len(queries)), np.zeros(len(queries), dtype=np.intp)
        paths = np.empty((len(queries), 0, 2), dtype=np.intp)
        while len(nodes):
            step = walk.step_pairs if len(nodes) < _FEW_PAIRS else walk.step_arrays
            qs, nodes, paths = step(qs, nodes, paths)
        return walk.verified()

    def knn_query_many(self, queries, k: int) -> list[list[Neighbor]]:
        """Batch MkNNQ: the walk once per query.

        Nothing is shared between the queries of a batch but the body: a
        query's pivot distances and pruning radius are its own, and a
        frontier common to the batch makes every query's radius tighten
        late (it cost LA k = 1 five times the sequential compdists).
        """
        return [self._knn_walk(query_obj, k) for query_obj in queries]

    def _knn_walk(self, query_obj, k: int) -> list[Neighbor]:
        """The one MkNNQ body: best-first over nodes, then over objects.

        Nodes wait in a heap by the gap accumulated on their path; leaf
        objects wait in one run sorted by their own lower bound.  Whatever
        is lowest goes next -- at a tie, a step that costs no distance
        first:

        * a leaf is set aside.  The leaves set aside are bounded together,
          by one :meth:`_leaf_bounds` call, once an internal node or a
          verification comes next, and their objects within the radius
          join the run;
        * an internal node is expanded: the query's distance to its pivot
          (once per key), and the children whose gap stays within the
          radius are pushed;
        * the run's head starts a verification chunk: one counted
          ``d_many`` call over the objects next in bound order -- k objects
          at first, filling the heap, then ``max(k, 32)``, as
          :func:`~repro.core.queries.best_first_knn` takes them, then each
          chunk four times the last.  Every chunk but the first stops at
          the next node's bound (cut there, the first chunk on LA
          n = 50 000 often held one object, and each cost a leaf-bounding
          pass and a metric call).

        The walk stops once both heads exceed the k-th distance, so an
        object is verified only if the heap admits it when its turn comes
        (:meth:`~repro.core.queries.KnnHeap.admits`: its bound below the
        radius, or on it with an id below the k-th answer's) and, past the
        first chunk, never before a node below it was opened.  The run
        ascends by (bound, id), so once its head is refused all of it is.
        The heap's canonical (distance, id) ordering makes the answer
        independent of that order.
        """
        space = self.space
        gather = space.dataset.gather
        rows, at, child, bounds = self._flat[:4]
        answers = self._pivots_answer
        heap = KnnHeap(k)
        known: dict = {}  # pivot key -> d(q, pivot)
        nodes = [(0.0, 0, 0, ())]  # (bound, tie, node, path)
        # the objects' run, ascending by (bound, id); ``run`` is its head's bound
        lower, ids = np.empty(0), np.empty(0, dtype=np.intc)
        pending: list[tuple] = []  # leaves set aside: (bound, node, path)
        counter = itertools.count(1)
        chunks = _chunk_sizes(k)

        def bound_pending():
            by_depth: dict[int, list[tuple]] = {}
            for entry in pending:
                by_depth.setdefault(len(entry[2]), []).append(entry)
            pending.clear()
            runs_lower, runs_ids = [lower], [ids]
            for depth, group in by_depth.items():
                floors, leaves, paths = zip(*group)
                new_ids, new_lower = self._leaf_bounds(
                    known.__getitem__,
                    np.array(leaves),
                    np.array(paths, dtype=np.intp).reshape(len(group), depth, 2),
                    np.array(floors),
                )
                near = heap.admitted(new_lower, new_ids)
                runs_lower.append(new_lower[near])
                runs_ids.append(new_ids[near])
            merged_lower, merged_ids = np.concatenate(runs_lower), np.concatenate(runs_ids)
            order = np.lexsort((merged_ids, merged_lower))
            return merged_lower[order], merged_ids[order]

        while True:
            radius = heap.radius
            if len(lower) and not heap.admits(lower[0], ids[0]):
                # the run ascends by (bound, id) and the k-th pair only
                # falls: once its head is refused, all of it is for good
                lower, ids = lower[:0], ids[:0]
            run = float(lower[0]) if len(lower) else np.inf
            step = nodes[0] if nodes and nodes[0][0] <= radius else None
            if step is not None:
                bound, _, node, path = step
                fan, key = rows[2 * node], rows[2 * node + 1]
                # what may lie below the node: objects in the run and, for an
                # internal node, in the leaves set aside
                below = min(run, pending[0][0]) if fan and pending else run
                if bound < below or (bound == below and (not fan or key < 0 or key in known)):
                    heapq.heappop(nodes)
                    if not fan:
                        pending.append((bound, node, path))
                        continue
                    first = at[node]
                    kids = child[first : first + fan].tolist()
                    slots = [path + ((2 * first + j, 2 * first + fan + j),) for j in range(fan)]
                    if key < 0:  # no pruning possible: every child inherits
                        for kid, kid_path in zip(kids, slots):
                            heapq.heappush(nodes, (bound, next(counter), kid, kid_path))
                        continue
                    d = known.get(key)
                    if d is None:
                        d = known[key] = space.d(query_obj, self._frontier_pivot(key))
                    if answers:
                        heap.consider(key, d)
                    radius = heap.radius
                    lows_highs = bounds[2 * first : 2 * (first + fan)].tolist()
                    for lo, hi, kid, kid_path in zip(lows_highs, lows_highs[fan:], kids, slots):
                        child_bound = max(bound, interval_gap(d, lo, hi))
                        if child_bound <= radius:
                            heapq.heappush(nodes, (child_bound, next(counter), kid, kid_path))
                    continue
            if pending:
                lower, ids = bound_pending()
                continue
            if not len(lower):
                return heap.neighbors()
            # a chunk from the run's head, up to the next node's bound once
            # the heap is full (the first fills it, as best_first_knn's
            # does); cut at the radius, it ends after the last tie the heap
            # admits (the tie band ascends by id, so those come first)
            if step is None or radius == np.inf or step[0] >= radius:
                ties = int(np.searchsorted(lower, radius, "left"))
                band = slice(ties, int(np.searchsorted(lower, radius, "right")))
                within = ties + int(np.count_nonzero(heap.admitted(lower[band], ids[band])))
            else:
                within = int(np.searchsorted(lower, step[0], "right"))
            take = max(1, min(next(chunks), within))
            verify, lower, ids = ids[:take], lower[take:], ids[take:]
            dists = space.d_many(query_obj, gather(verify))
            near = dists <= radius
            for object_id, d in zip(verify[near].tolist(), dists[near].tolist()):
                heap.consider(object_id, d)

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

    # -- maintenance ---------------------------------------------------------

    def _route_insert(self, obj, object_id: int | None):
        """Descend to the leaf ``obj`` belongs in: ``(id, leaf, path)``.

        One distance per pivot on the way down; ``path`` holds, root first,
        each ``(low, high, d)``: where in ``_bounds`` the child bounds the
        descent took sit, and the distance to that node's pivot (a
        tombstoned BKT pivot adds none).  The id is claimed by :func:`~repro.core.index.claim_object_id`: an
        explicit ``object_id`` re-registers a dataset slot (delete, then
        insert back), so it must name one holding ``obj`` and must not be
        live -- a second copy would answer twice forever after.  The live
        copy, if any, sits under children whose bounds hold the distances
        just computed, so the check costs none of its own; bounds stretch
        only once it passed, each stretched band announced first to
        :meth:`_stretching`.
        """
        rows, at, child, bounds = self._flat[:4]
        known: dict = {}
        path = []
        node = 0
        while fan := rows[2 * node]:
            key, first = rows[2 * node + 1], at[node]
            if key < 0:
                # tombstoned pivot: queries descend all children of this node
                # unconditionally, so routing is free to pick any child
                node = child[first]
                continue
            d = known[key] = self.space.d(obj, self._frontier_pivot(key))
            lows_highs = bounds[2 * first : 2 * (first + fan)].tolist()
            best, best_gap = 0, float("inf")
            for j in range(fan):
                gap = interval_gap(d, lows_highs[j], lows_highs[fan + j])
                if gap < best_gap:
                    best, best_gap = j, gap
            path.append((2 * first + best, 2 * first + fan + best, d))
            node = child[first + best]

        def is_live(i):
            return self._holder(i, known.get) is not None

        object_id = claim_object_id(self.space, obj, object_id, is_live)
        for low, high, d in path:
            if d < bounds[low] or d > bounds[high]:
                self._stretching(low, bounds[low], bounds[high])
                bounds[low] = min(bounds[low], d)
                bounds[high] = max(bounds[high], d)
        return int(object_id), node, path

    def _find_for_delete(self, object_id: int) -> int:
        """The leaf (or BKT node anchored on it) holding a live object."""
        dataset = self.space.dataset
        if 0 <= object_id < len(dataset):
            obj = dataset[object_id]
            holder = self._holder(
                object_id, lambda key: self.space.d(obj, self._frontier_pivot(key))
            )
            if holder is not None:
                return holder
        raise NotIndexed(f"object {object_id} is not in the tree")

    def _holder(self, object_id: int, pivot_dist) -> int | None:
        """Depth first, in preorder, through every child whose bounds hold
        the object's pivot distance (all children where ``pivot_dist(key)``
        gives none)."""
        rows, at, child, bounds, id_at, _, ids, _, overlay = self._flat
        answers = self._pivots_answer
        stack = [0]
        while stack:
            node = stack.pop()
            fan, first = rows[2 * node], at[node]
            if not fan:
                held = overlay.get(first)
                leaf_ids = ids[id_at[first] : id_at[first + 1]] if held is None else held[0]
                if object_id in leaf_ids.tolist():
                    return node
                continue
            key = rows[2 * node + 1]
            if answers and key == object_id:
                return node
            d = None if key < 0 else pivot_dist(key)
            lows_highs = bounds[2 * first : 2 * (first + fan)].tolist()
            kids = child[first : first + fan].tolist()
            for j in range(fan - 1, -1, -1):  # pushed last to first: popped in order
                if d is None or interval_gap(d, lows_highs[j], lows_highs[fan + j]) <= 0:
                    stack.append(kids[j])
        return None


class _RangeWalk:
    """One MRQ batch's frontier: the pivot distances its queries have paid,
    their results, and the (query, leaf, path) triples reached, which
    :meth:`verified` bounds and verifies at the end.

    A level of the frontier -- (query, node) pairs and each pair's path,
    ``(pairs, level, 2)`` positions in ``_bounds`` -- steps as index arrays
    (:meth:`step_arrays`) or, when it holds fewer than ``_FEW_PAIRS`` pairs,
    pair by pair through the tree's flat views (:meth:`step_pairs`): both
    pay the same distances, reach the same pairs and compute the same gaps.
    """

    def __init__(self, tree, queries: list, radius: float):
        self.tree, self.queries, self.radius = tree, queries, radius
        self.take = tree._query_selector(queries)
        self.paid: dict = {}  # pivot key -> d(q, pivot) per query, nan until paid
        self.results: list[list[int]] = [[] for _ in queries]
        self.reached: list[tuple] = []  # a level's (queries, leaves, paths) to verify

    def pay(self, key: int, qs: np.ndarray) -> np.ndarray:
        """The column of d(q, pivot), paid for ``qs`` (one counted
        ``pairwise`` call for those that have not paid it yet)."""
        column = self.paid.get(key)
        if column is None:
            column = self.paid[key] = np.full(len(self.queries), np.nan)
            need = qs
        else:
            need = qs[np.isnan(column[qs])]
        if len(need):
            if len(need) > 1:  # a query may reach many nodes of one pivot
                flags = np.zeros(len(self.queries), dtype=bool)
                flags[need] = True
                need = np.flatnonzero(flags)
            column[need] = self.tree.space.pairwise_objects(
                self.take(need), [self.tree._frontier_pivot(key)]
            )[:, 0]
        return column

    def step_arrays(self, qs: np.ndarray, nodes: np.ndarray, paths: np.ndarray):
        """One level as index arrays: the gaps of every (pair, child) at once."""
        tree, radius = self.tree, self.radius
        fan, keys = tree._rows[nodes].T
        inner = fan > 0
        if not inner.all():
            self.reached.append((qs[~inner], nodes[~inner], paths[~inner]))
            qs, nodes, paths = qs[inner], nodes[inner], paths[inner]
            fan, keys = fan[inner], keys[inner]
            if not len(nodes):
                return qs, nodes, paths
        blind = keys < 0  # a tombstoned pivot cannot prune
        if (keys == keys[0]).all() and not blind[0]:  # one pivot a level: MVPT / FQT
            d = self.pay(int(keys[0]), qs)[qs]
        else:  # BKT: the pairs of each pivot
            d = np.zeros(len(nodes))
            where = np.flatnonzero(~blind)
            order = np.argsort(keys[where], kind="stable")
            where, sorted_keys = where[order], keys[where[order]]
            cut = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
            starts = np.r_[0, cut] if len(where) else cut
            for key, on in zip(sorted_keys[starts].tolist(), np.split(where, cut)):
                d[on] = self.pay(key, qs[on])[qs[on]]
        if tree._pivots_answer:
            hit = (d <= radius) & ~blind
            for qi, key in zip(qs[hit].tolist(), keys[hit].tolist()):
                self.results[qi].append(key)
        first = tree._at[nodes]
        owner = np.repeat(np.arange(len(nodes)), fan)
        slot = np.arange(len(owner)) + np.repeat(first - np.cumsum(fan) + fan, fan)
        low = slot + first[owner]  # a node's lows start at twice its first slot
        high = low + fan[owner]
        dq = d[owner]
        gap = np.maximum(tree._bounds[low] - dq, dq - tree._bounds[high])
        alive = (np.maximum(gap, 0.0) <= radius) | blind[owner]
        kept = owner[alive]
        band = np.stack([low[alive], high[alive]], axis=1)[:, None, :]
        return qs[kept], tree._child[slot[alive]], np.concatenate([paths[kept], band], axis=1)

    def step_pairs(self, qs: np.ndarray, nodes: np.ndarray, paths: np.ndarray):
        """One level pair by pair: for a narrow level -- one query's, mostly
        -- cheaper than the array calls' fixed cost."""
        rows, at, child, bounds = self.tree._flat[:4]
        radius, answers = self.radius, self.tree._pivots_answer
        pairs = list(zip(qs.tolist(), nodes.tolist()))
        leaves = [i for i, (_, node) in enumerate(pairs) if not rows[2 * node]]
        if leaves:
            self.reached.append((qs[leaves], nodes[leaves], paths[leaves]))
        waiting: dict[int, list[int]] = {}  # pivot -> the queries that reached it
        for q, node in pairs:
            key = rows[2 * node + 1]
            if rows[2 * node] and key >= 0:
                waiting.setdefault(key, []).append(q)
        columns = {key: self.pay(key, np.array(on)) for key, on in waiting.items()}
        next_qs, next_nodes, parents, bands = [], [], [], []
        for i, (q, node) in enumerate(pairs):
            fan = rows[2 * node]
            if not fan:
                continue
            key, first = rows[2 * node + 1], at[node]
            kids = child[first : first + fan]
            if key < 0:  # a tombstoned pivot: every child is reached
                next_qs += [q] * fan
                next_nodes += kids
                parents += [i] * fan
                bands += [(2 * first + j, 2 * first + fan + j) for j in range(fan)]
                continue
            d = float(columns[key][q])
            if answers and d <= radius:
                self.results[q].append(key)
            lows_highs = bounds[2 * first : 2 * (first + fan)].tolist()
            for j, (lo, hi, kid) in enumerate(zip(lows_highs, lows_highs[fan:], kids)):
                if max(lo - d, d - hi, 0.0) <= radius:
                    next_qs.append(q)
                    next_nodes.append(kid)
                    parents.append(i)
                    bands.append((2 * first + j, 2 * first + fan + j))
        band = np.array(bands, dtype=np.intp).reshape(-1, 1, 2)
        return (
            np.array(next_qs, dtype=np.intp),
            np.array(next_nodes, dtype=np.intp),
            np.concatenate([paths[np.array(parents, dtype=np.intp)], band], axis=1),
        )

    def verified(self) -> list[list[int]]:
        """Each query's reached leaves bounded object by object, and the
        objects within the radius verified by one counted ``d_many`` call;
        the sorted answers."""
        n = len(self.queries)
        reached: list[list[tuple]] = [[] for _ in range(n)]  # per query: (leaves, paths)
        for qs, leaves, paths in self.reached:  # a level's leaves, of one depth
            if n == 1:
                reached[0].append((leaves, paths))
                continue
            order = np.argsort(qs, kind="stable")
            cuts = np.searchsorted(qs[order], np.arange(n + 1))
            for qi in np.flatnonzero(cuts[1:] > cuts[:-1]).tolist():
                mine = order[cuts[qi] : cuts[qi + 1]]
                reached[qi].append((leaves[mine], paths[mine]))
        space, radius = self.tree.space, self.radius
        for qi, groups in enumerate(reached):
            if not groups:
                continue
            kept = []
            for leaves, paths in groups:
                ids, lower = self.tree._leaf_bounds(
                    lambda key: self.paid[key][qi], leaves, paths, np.zeros(len(leaves))
                )
                kept.append(ids[lower <= radius])  # ties stay: d(q, o) may equal r
            ids = kept[0] if len(kept) == 1 else np.concatenate(kept)
            if len(ids):
                dists = space.d_many(self.queries[qi], space.dataset.gather(ids))
                self.results[qi].extend(ids[dists <= radius].tolist())
        return [sorted(ids) for ids in self.results]
