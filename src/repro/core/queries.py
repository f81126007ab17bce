"""The k-NN answer type, the bounded k-NN heap, and the two MkNNQ
verification orders: the pivot tables' bound column, and the paged
indexes' best-first walk.

Defines the two query types of Section 2.1:

* **MRQ(q, r)** -- metric range query: all objects within distance r of q.
* **MkNNQ(q, k)** -- metric k nearest neighbours.

:class:`KnnHeap` implements the standard "radius tightening" used by every
MkNNQ algorithm in the paper: the search radius starts at infinity and
shrinks to the current k-th nearest distance as candidates are verified.

Given one query's lower-bound column, the order in which candidates are
verified is the only decision left, and it lives here once:
:func:`best_first_knn` verifies in ascending bound order, and
:func:`best_first_knn_many` runs it for every query of a scanning table's
columns.  The column it is handed is the cheap bound every row has
(Lemma 1); sorting, and a dearer bound behind an optional ``tighten``
callback, are paid only for the rows a query can still reach
(:func:`best_first_knn` says why that changes nothing about what is
verified).  The paper's own LAESA order -- rows as stored, the accounting
its Fig. 17 reports -- is a finding, not a query path: it lives beside the
Fig. 17 regenerator, in :mod:`repro.bench.experiments`.

The paged indexes (OmniR-tree, M-index*, SPB-tree, M-tree / PM-tree) have
no column to sort: their MkNNQ is :func:`best_first_walk`, one queue of
nodes and entries that each index only expands and verifies.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Neighbor",
    "KnnHeap",
    "best_first_knn",
    "best_first_knn_many",
    "best_first_walk",
]


@dataclass(frozen=True, order=True)
class Neighbor:
    """One answer of a k-NN query (ordered by distance, then id)."""

    distance: float
    object_id: int


# first threshold prefix of the ascending order: enough for the first two
# verification chunks (k, then 32) of a typical query; each refill takes
# four times as many rows
_FIRST_PREFIX = 64
_PREFIX_GROWTH = 4
# rows a verification chunk holds after the first (which holds k)
_CHUNK = 32


def _ascending_slices(lower_bounds: np.ndarray, first: int, tighten):
    """The stable ascending order of the final bounds, a slice at a time.

    Yields ``(positions, bounds)`` pairs whose concatenation is what
    ``np.argsort(final, kind="stable")`` gives (ties by storage position),
    where ``final`` is ``lower_bounds`` itself or, with ``tighten``, the
    tightened column -- without sorting or tightening rows the consumer
    never asks for.  Each round takes the m-th smallest cheap bound t
    (``np.partition``), tightens only the rows with a cheap bound <= t,
    and emits those whose final bound lies in (previous t, t].  Complete
    because tightening only raises a bound: every row with final <= t has
    a cheap bound <= t, so it is among the round's candidates, and rows it
    lifts above t come back in a later round.  NaN rows sort last, and a
    threshold on one is infinity: none is reached.
    """
    n = lower_bounds.shape[0]
    m, done = first, -np.inf
    while n:
        t = np.partition(lower_bounds, m - 1)[m - 1] if m < n else np.inf
        t = np.inf if np.isnan(t) else t
        reached = np.flatnonzero(lower_bounds <= t)
        bounds = lower_bounds[reached] if tighten is None else tighten(reached)
        fresh = (bounds > done) & (bounds <= t)
        positions, bounds = reached[fresh], bounds[fresh]
        order = np.argsort(bounds, kind="stable")
        yield positions[order], bounds[order]
        if t == np.inf:
            return
        # ties at t can reach well past m rows; growing from what was
        # reached makes the next threshold strictly larger
        m, done = _PREFIX_GROWTH * reached.size, t


def best_first_knn(
    lower_bounds: np.ndarray,
    row_ids: Sequence[int],
    k: int,
    verify_many: Callable[[list[int]], np.ndarray],
    tighten: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[Neighbor]:
    """Exact MkNNQ over a pre-computed lower-bound column, best-first.

    Candidates are verified in ascending lower-bound order, a chunk at a
    time, stopping once the next lower bound exceeds the running k-th
    nearest distance -- no object that could still enter the answer is ever
    skipped (d >= lower bound for every candidate).  It typically needs far
    fewer distance computations than the paper's storage-order scan (the
    closest candidates tend to come first, so the radius tightens
    immediately), while returning the identical answer.
    The saving is not a guarantee: chunk granularity always verifies the
    first chunk of k candidates before any radius exists, so adversarial
    data can make either order cheaper.

    What is computed for which rows: ``lower_bounds`` (Lemma 1 in the
    pivot tables) exists for every row, because the order and the cutoff
    need a value per object.  Everything else is paid for the frontier
    only -- the ascending order is drawn a threshold prefix at a time
    (:func:`_ascending_slices`), and ``tighten``, when given, maps storage
    positions to their final bounds (a dearer bound that is never below
    the cheap one, e.g. the Ptolemaic tightening of
    :meth:`~repro.core.staged.StagedPruner.knn_bounds`) and is called only
    for the rows a prefix reaches.  The verification sequence is exactly
    the one a full stable sort of the final bounds would give: same
    chunks, same ids in the same order, hence the same distance counts.

    Exactness of ties: :class:`KnnHeap` ranks candidates canonically by
    (distance, object_id), so the answer is the k smallest such pairs over
    all objects -- independent of verification order.  Every object that
    could belong to the answer has a lower bound no larger than its distance
    and hence no larger than the running radius when its turn comes, so it
    is always verified before the cutoff triggers.

    Args:
        lower_bounds: per-storage-row lower bounds of d(q, o), length n.
        row_ids: object id of each storage row, length n.
        k: number of neighbors.
        verify_many: callback computing true distances for a list of object
            ids (one vectorised counted call per chunk).
        tighten: optional ``positions -> final bounds`` (each a true lower
            bound >= ``lower_bounds[positions]``).

    A NaN bound is no object (a table's tombstone): never ordered,
    tightened or verified, and the other rows verify as without it.
    """
    heap = KnnHeap(k)
    lower_bounds = np.asarray(lower_bounds, dtype=np.float64)
    slices = _ascending_slices(lower_bounds, max(4 * k, _FIRST_PREFIX), tighten)
    positions = np.empty(0, dtype=np.intp)
    bounds = np.empty(0, dtype=np.float64)
    # first chunk: exactly k (fills the heap, establishing a radius, with
    # the minimum mandatory verifications); later chunks: 32 rows whatever
    # k, enough to amortise the per-call overhead of verify_many, few
    # enough that a chunk does not run far past the tightening radius
    chunk = k
    while True:
        # draw more of the order only while the chunk is short and its
        # last drawn bound could still be verified
        while positions.size < chunk and (
            positions.size == 0 or bounds[-1] <= heap.radius
        ):
            more = next(slices, None)
            if more is None:
                break
            positions = np.concatenate([positions, more[0]])
            bounds = np.concatenate([bounds, more[1]])
        block = positions[:chunk]
        # ascending bounds: once one exceeds the radius, all later ones do
        keep = block[bounds[:chunk] <= heap.radius]
        if keep.size == 0:
            break
        ids = [int(row_ids[pos]) for pos in keep]
        dists = verify_many(ids)
        for object_id, d in zip(ids, dists):
            heap.consider(object_id, float(d))
        if keep.size < block.size:
            break
        positions, bounds = positions[chunk:], bounds[chunk:]
        chunk = _CHUNK
    return heap.neighbors()


def best_first_knn_many(columns, k: int) -> list[list[Neighbor]]:
    """:func:`best_first_knn` for every query of one scanning table's
    ``_knn_columns(queries)``: ``(row_ids, q x n lower bounds, one
    tighten or None per query, one verify_many per query)``."""
    row_ids, lower, tighteners, verifiers = columns
    return [
        best_first_knn(row, row_ids, k, verify, tighten)
        for row, tighten, verify in zip(lower, tighteners, verifiers)
    ]


def best_first_walk(
    k: int, root, expand: Callable, verify: Callable | None
) -> list[Neighbor]:
    """Exact MkNNQ by one best-first walk over a paged index.

    One queue of ``(bound, arrival, is_entry, item)``; ties pop in arrival
    order, so items are never compared.  ``expand(node, bound, heap)``
    reads a popped node and returns ``(items, bounds, are_entries)``: its
    children or its entries (object ids) under lower bounds of their
    distance to the query; only those within the radius are queued.  A
    popped entry is verified: ``verify(entry, radius)`` returns d(q, entry),
    or ``None`` when a bound read with its record exceeds the radius.  The
    first pop bounded above the radius ends the walk.  An expansion that
    verifies its entries itself, in node order (the M-tree's leaves),
    offers them to ``heap`` and returns none; its index passes ``None`` as
    ``verify``.
    """
    heap = KnnHeap(k)
    arrival = itertools.count()
    queue = [(0.0, next(arrival), False, root)]
    while queue:
        bound, _, is_entry, item = heapq.heappop(queue)
        if bound > heap.radius:
            break
        if is_entry:
            distance = verify(item, heap.radius)
            if distance is not None:
                heap.consider(item, distance)
            continue
        items, bounds, are_entries = expand(item, bound, heap)
        radius = heap.radius
        for below, below_bound in zip(items, bounds):
            if below_bound <= radius:
                heapq.heappush(queue, (below_bound, next(arrival), are_entries, below))
    return heap.neighbors()


class KnnHeap:
    """Bounded max-heap of the best k candidates seen so far.

    ``radius`` is the current pruning radius: infinity until k candidates are
    known, afterwards the k-th smallest distance.  Candidates are ranked by
    the lexicographic pair ``(distance, object_id)`` -- ties at the radius
    are broken toward the smaller object id -- so the final content is the k
    smallest such pairs *regardless of arrival order*.  That canonical
    tie-breaking is what lets the batch query layer verify candidates in any
    (e.g. best-first) order and still return bit-for-bit the sequential
    scan's answer, while matching the paper's definition of MkNNQ returning
    exactly k objects.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        # min-heap of (-distance, -object_id): the root is the largest
        # (distance, object_id) pair, i.e. the current worst candidate
        self._heap: list[tuple[float, int]] = []

    @property
    def radius(self) -> float:
        """Current search radius (inf until the heap holds k candidates)."""
        if len(self._heap) < self.k:
            return float("inf")
        return -self._heap[0][0]

    def consider(self, object_id: int, distance: float) -> bool:
        """Offer a candidate; returns True when it entered the heap."""
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (-distance, -object_id))
            return True
        # accept iff (distance, id) < (worst distance, worst id): negation
        # flips the lexicographic comparison
        if (-distance, -object_id) > self._heap[0]:
            heapq.heapreplace(self._heap, (-distance, -object_id))
            return True
        return False

    def __len__(self) -> int:
        return len(self._heap)

    def is_full(self) -> bool:
        return len(self._heap) >= self.k

    def neighbors(self) -> list[Neighbor]:
        """Final answers, ascending by distance (ties by id)."""
        return sorted(
            Neighbor(-neg_dist, -neg_id) for neg_dist, neg_id in self._heap
        )

    def ids(self) -> list[int]:
        return [n.object_id for n in self.neighbors()]

    def distances(self) -> list[float]:
        return [n.distance for n in self.neighbors()]
