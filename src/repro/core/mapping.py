"""Pivot mapping: embed a metric space into (R^l, L-infinity).

Given pivots P = {p_1, ..., p_l}, each object o maps to
I(o) = <d(o, p_1), ..., d(o, p_l)>.  The L-infinity distance between mapped
points lower-bounds the original distance (contractiveness), which is what
makes every filter in :mod:`repro.core.pivot_filter` safe.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .metric_space import MetricSpace

__all__ = ["PivotMapping"]


class PivotMapping:
    """Pre-computes and serves distances to a fixed pivot set.

    Args:
        space: counted metric space (mapping construction counts toward
            build-time compdists, as in the paper's Table 4).
        pivot_ids: ids of the chosen pivots within ``space.dataset``.

    Attributes:
        matrix: ``n x l`` float matrix; row i is I(o_i).
    """

    def __init__(self, space: MetricSpace, pivot_ids: Sequence[int]):
        self.space = space
        self.pivot_ids = [int(p) for p in pivot_ids]
        if not self.pivot_ids:
            raise ValueError("at least one pivot is required")
        self.pivot_objects = [space.dataset[p] for p in self.pivot_ids]
        # filled in place: a list of columns stacked afterwards holds the
        # table twice while it is built
        self.matrix = np.empty((len(space.dataset), len(self.pivot_ids)), dtype=np.float64)
        for column, pivot_obj in enumerate(self.pivot_objects):
            self.matrix[:, column] = space.d_many(pivot_obj, space.dataset.objects)

    @property
    def n_pivots(self) -> int:
        return len(self.pivot_ids)

    @property
    def n_objects(self) -> int:
        return self.matrix.shape[0]

    def vector(self, object_id: int) -> np.ndarray:
        """I(o) for a stored object (no distance computations)."""
        return self.matrix[object_id]

    def map_query(self, q) -> np.ndarray:
        """I(q) for an arbitrary query object (counts l computations)."""
        return self.space.d_many(q, self.pivot_objects)

    def map_object(self, obj) -> np.ndarray:
        """Alias of :meth:`map_query` for insertion paths."""
        return self.map_query(obj)

    def map_query_many(self, queries) -> np.ndarray:
        """I(q) for a whole query batch: a ``q x l`` matrix.

        One counted ``pairwise`` call computes every query-pivot distance at
        once (q*l computations, the same total as q ``map_query`` calls) --
        the entry point of the batch query layer for mapping-based indexes.
        """
        queries = list(queries)
        if not queries:
            return np.empty((0, self.n_pivots), dtype=np.float64)
        return self.space.pairwise_objects(queries, self.pivot_objects)

    def extend_max_min(self, extra: int, explained: float) -> None:
        """Continue the pivot set greedily, for up to ``extra`` more columns.

        The way LAESA's authors chose base prototypes: the next pivot is the
        object farthest from its nearest pivot so far.  That distance is
        read off the columns already computed, so choosing costs nothing and
        a column costs ``n`` computations like any other.  A column whose
        distances the table's Lemma 1 bound already explains -- mean
        ``lb(o) / d(o, p)`` over the objects at or above ``explained`` -- is
        discarded and the continuation stops: where the pivots in hand
        embed the data that well (low-dimensional data) more of them prune
        nothing.  It also stops when every object coincides with a pivot.
        """
        n, given = self.matrix.shape
        if extra <= 0 or n == 0:
            return
        dataset = self.space.dataset
        table = np.empty((n, given + extra), dtype=np.float64)
        table[:, :given] = self.matrix
        nearest = self.matrix.min(axis=1)
        self.matrix = table  # the narrow table is let go before the loop allocates
        bound, gap = np.empty(n), np.empty(n)
        width = given
        while width < table.shape[1] and nearest.max() > 0.0:
            pivot_id = int(nearest.argmax())
            column = self.space.d_many(dataset[pivot_id], dataset.objects)
            # Lemma 1 from the new pivot's own row, through two n-long buffers
            # allocated once.  This loop stays outside the bound kernel, whose
            # column form reads a contiguous copy of the table: 2 MB a step
            # at n = 20 000, which the heap keeps (+3.4 MB resident after
            # set-up)
            bound.fill(0.0)
            for have in range(width):
                np.subtract(table[:, have], table[pivot_id, have], out=gap)
                np.maximum(bound, np.abs(gap, out=gap), out=bound)
            apart = column > 0.0
            if (bound[apart] / column[apart]).mean() >= explained:
                break
            table[:, width] = column
            np.minimum(nearest, column, out=nearest)
            self.pivot_ids.append(pivot_id)
            self.pivot_objects.append(dataset[pivot_id])
            width += 1
        if width < table.shape[1]:
            self.matrix = table[:, :width].copy()

    def append(self, vector: np.ndarray) -> int:
        """Register a newly inserted object's mapped vector; returns its row."""
        vector = np.asarray(vector, dtype=np.float64).reshape(1, -1)
        if vector.shape[1] != self.n_pivots:
            raise ValueError(
                f"vector has {vector.shape[1]} entries, expected {self.n_pivots}"
            )
        self.matrix = np.concatenate([self.matrix, vector])
        return self.matrix.shape[0] - 1

    def max_distance_bound(self) -> float:
        """An upper bound of the dataset diameter derived from the mapping.

        For any o, o': d(o,o') <= d(o,p) + d(o',p) <= 2 * max column value.
        Used by indexes that need the paper's d+ (M-index keys, SPB-tree
        discretisation) without extra distance computations.
        """
        return float(2.0 * self.matrix.max()) if self.matrix.size else 0.0

    def nbytes(self) -> int:
        """Size of the pre-computed distance table."""
        return int(self.matrix.nbytes)
