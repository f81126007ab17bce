"""AESA: the full O(n^2) distance table (Vidal 1986).

Stores the distance between *every* pair of objects.  Queries then need very
few distance computations: pick an unverified object (initially arbitrary,
afterwards the one with the smallest lower bound), compute its true distance,
and use its table row to tighten the lower bound of everyone else.

The paper calls AESA "a theoretical metric index" because of the quadratic
storage -- it is included here as the compdists lower-bound reference and for
small-dataset use.
"""

from __future__ import annotations

import numpy as np

from ..core.index import MetricIndex, UnsupportedOperation
from ..core.metric_space import MetricSpace
from ..core.queries import KnnHeap, Neighbor

__all__ = ["AESA"]


class AESA(MetricIndex):
    """Approximating and Eliminating Search Algorithm."""

    name = "AESA"

    def __init__(self, space: MetricSpace, table: np.ndarray):
        super().__init__(space)
        self.table = table
        self._use_ptolemaic = space.distance.is_ptolemaic

    @classmethod
    def build(cls, space: MetricSpace) -> "AESA":
        """Compute the n x n distance table (n(n-1)/2 computations)."""
        n = len(space)
        table = np.zeros((n, n), dtype=np.float64)
        dataset = space.dataset
        for i in range(n):
            if i + 1 < n:
                row = space.d_many(dataset[i], dataset.gather(range(i + 1, n)))
                table[i, i + 1 :] = row
                table[i + 1 :, i] = row
        return cls(space, table)

    def _tighten(
        self, lower: np.ndarray, pick: int, d: float, prev: tuple[int, float]
    ) -> tuple[np.ndarray, np.ndarray]:
        """One eliminate/approximate update with pick's table row.

        Returns ``(triangle_bounds, combined_bounds)``.  When the metric is
        Ptolemaic, the pair (previous verified object, pick) additionally
        contributes the Ptolemaic bound
        ``|d_prev * d(pick, o) - d * d(prev, o)| / d(prev, pick)`` -- every
        verified object is a dynamic pivot, so AESA gets pair bounds for
        free from the full table, one new pair per round.
        """
        tri = np.maximum(lower, np.abs(self.table[pick] - d))
        if not self._use_ptolemaic:
            return tri, tri
        prev_pick, prev_d = prev
        denom = self.table[prev_pick, pick]
        if denom <= 0.0:
            return tri, tri
        pt = np.abs(prev_d * self.table[pick] - d * self.table[prev_pick]) / denom
        return tri, np.maximum(tri, pt)

    def _range_scan(
        self,
        query_obj,
        radius: float,
        lower: np.ndarray,
        alive: np.ndarray,
        results: list[int],
        prev: tuple[int, float],
    ) -> list[int]:
        """Continue the eliminate/approximate loop from the given state."""
        counters = self.space.counters
        while True:
            candidates = np.flatnonzero(alive)
            if candidates.size == 0:
                return sorted(results)
            pick = int(candidates[np.argmin(lower[candidates])])
            if lower[pick] > radius:
                return sorted(results)
            alive[pick] = False
            d = self.space.d_id(query_obj, pick)
            if d <= radius:
                results.append(pick)
            tri, lower = self._tighten(lower, pick, d, prev)
            n_tri = int(np.count_nonzero(alive & (tri > radius)))
            n_pt = int(np.count_nonzero(alive & (lower > radius))) - n_tri
            counters.add_prune_stages(refine=n_tri, ptolemaic=n_pt)
            alive &= lower <= radius
            prev = (pick, d)

    def _knn_scan(
        self,
        query_obj,
        heap: KnnHeap,
        lower: np.ndarray,
        alive: np.ndarray,
        prev: tuple[int, float],
    ) -> list[Neighbor]:
        """Continue the best-first verification loop from the given state."""
        while True:
            candidates = np.flatnonzero(alive)
            if candidates.size == 0:
                return heap.neighbors()
            pick = int(candidates[np.argmin(lower[candidates])])
            # the radius alone, not KnnHeap.admits: every verified object
            # tightens the other bounds, so skipping a tie the heap would
            # refuse can cost a later verification
            if lower[pick] > heap.radius:
                return heap.neighbors()
            alive[pick] = False
            d = self.space.d_id(query_obj, pick)
            heap.consider(pick, d)
            _, lower = self._tighten(lower, pick, d, prev)
            prev = (pick, d)

    # -- the query path --------------------------------------------------------
    #
    # AESA has no static pivot set: every verified object acts as a dynamic
    # pivot, and picks diverge per query after the first round.  What *is*
    # shared is round one -- all lower bounds start at zero, so every query's
    # first pick is object 0 -- which is computed with a single vectorised
    # distance call, seeding each query's elimination state with one q x n
    # matrix operation before handing over to the adaptive loop.

    def _first_round(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """d(q_i, o_0) for the whole batch + the resulting q x n bounds."""
        first = self.space.d_many(self.space.dataset[0], queries)
        lower = np.abs(self.table[0][None, :] - first[:, None])
        return first, lower

    def range_query_many(self, queries, radius: float) -> list[list[int]]:
        queries = list(queries)
        if not queries:
            return []
        n = len(self.space)
        if n == 0:
            return [[] for _ in queries]
        first, lower = self._first_round(queries)
        alive = lower <= radius
        alive[:, 0] = False
        out: list[list[int]] = []
        for qi, q in enumerate(queries):
            results = [0] if first[qi] <= radius else []
            dead = lower[qi] > radius
            dead[0] = False
            self.space.counters.add_prune_stages(refine=int(dead.sum()))
            # round one's pick is the first half of the first Ptolemaic pair
            out.append(
                self._range_scan(
                    q,
                    radius,
                    lower[qi],
                    alive[qi],
                    results,
                    prev=(0, float(first[qi])),
                )
            )
        return out

    def knn_query_many(self, queries, k: int) -> list[list[Neighbor]]:
        queries = list(queries)
        if not queries:
            return []
        n = len(self.space)
        if n == 0:
            return [KnnHeap(k).neighbors() for _ in queries]
        first, lower = self._first_round(queries)
        out: list[list[Neighbor]] = []
        for qi, q in enumerate(queries):
            heap = KnnHeap(k)
            heap.consider(0, float(first[qi]))
            alive = np.ones(n, dtype=bool)
            alive[0] = False
            out.append(
                self._knn_scan(q, heap, lower[qi], alive, prev=(0, float(first[qi])))
            )
        return out

    def insert(self, obj, object_id: int | None = None) -> int:
        """Uniform base-class signature; AESA remains static either way."""
        raise UnsupportedOperation("AESA tables are static (O(n) insert cost)")

    def storage_bytes(self) -> dict[str, int]:
        objects = sum(
            self.space.dataset.object_nbytes(i) for i in range(len(self.space))
        )
        return {"memory": int(self.table.nbytes) + objects, "disk": 0}
