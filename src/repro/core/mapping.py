"""Pivot mapping: embed a metric space into (R^l, L-infinity).

Given pivots P = {p_1, ..., p_l}, each object o maps to
I(o) = <d(o, p_1), ..., d(o, p_l)>.  The L-infinity distance between mapped
points lower-bounds the original distance (contractiveness), which is what
makes every filter in :mod:`repro.core.pivot_filter` safe.

A table may be narrowed to ``float32`` cells (:meth:`PivotMapping.narrow`,
LAESA's): the mapping then carries the table's ``slack`` beside the cells it
describes, so every index over one mapping reads the same slack, and the
bounds give it up (:mod:`repro.core.staged`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .metric_space import MetricSpace

__all__ = ["PivotMapping", "narrowed"]

# what a row that rounds adds to the slack for the float64 rounding of the
# bounds over it, as a share of its largest cell: a Ptolemaic cell rounds by
# under 4 ulps of that cell per unit of d(q, p_i) + d(q, p_j), a Lemma 1
# term by one; this is 32
_ARITHMETIC_ROOM = 2.0**-48


def narrowed(table) -> tuple[np.ndarray, float]:
    """``table`` (``float64``) as ``float32`` cells, and its slack.

    The slack is 0 when every cell is exact in ``float32``: the bounds then
    compute exactly what they compute over the ``float64`` table.  Else it
    is the largest, over the rows that round, of the row's largest
    |float32(v) - v| (exact in ``float64``) plus ``_ARITHMETIC_ROOM`` of
    its largest cell, widened by one ulp: enough that no bound over the
    cells is above (Lemma 4: below) the ``float64`` table's, rounding
    included.  The table is read a column at a time, so the only table-sized
    allocation is the ``float32`` copy.
    """
    table = np.asarray(table, dtype=np.float64)
    cells = table.astype(np.float32)
    n = table.shape[0]
    error, largest, gap = np.zeros(n), np.zeros(n), np.empty(n)
    for column in range(table.shape[1]):
        np.subtract(cells[:, column], table[:, column], out=gap)
        np.maximum(error, np.abs(gap, out=gap), out=error)
        np.maximum(largest, np.abs(cells[:, column]), out=largest)
    rounds = error > 0.0
    if not rounds.any():
        return cells, 0.0
    room = error[rounds] + _ARITHMETIC_ROOM * largest[rounds]
    return cells, float(np.nextafter(room.max(), np.inf))


class PivotMapping:
    """Pre-computes and serves distances to a fixed pivot set.

    Args:
        space: counted metric space (mapping construction counts toward
            build-time compdists, as in the paper's Table 4).
        pivot_ids: ids of the chosen pivots within ``space.dataset``.

    Attributes:
        matrix: ``n x l`` float matrix; row i is I(o_i).  ``float64``
            unless :meth:`narrow` made it ``float32`` cells.
        slack: no cell is further than this from the distance it stands
            for; 0 for a ``float64`` table.
    """

    # a float64 table is exact (and a mapping pickled before tables were
    # narrowed has no slack of its own)
    slack = 0.0

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

    def narrow(self) -> None:
        """Hold the table as ``float32`` cells under its ``slack``
        (:func:`narrowed`).  A table already narrowed is kept as it is, and
        its slack with it: the slack is measured on the ``float64`` values,
        which the cells no longer hold."""
        if self.matrix.dtype != np.float32:
            self.matrix, self.slack = narrowed(self.matrix)

    def row(self, vector) -> np.ndarray:
        """One object's mapped vector as a row of this table's cells.  For
        ``float32`` cells the slack is widened first to cover the row's
        rounding, so a query that reads the slack after the table never
        meets a row it does not cover."""
        vector = np.asarray(vector, dtype=np.float64).reshape(1, -1)
        if vector.shape[1] != self.n_pivots:
            raise ValueError(
                f"vector has {vector.shape[1]} entries, expected {self.n_pivots}"
            )
        if self.matrix.dtype != np.float32:
            return vector[0]
        cells, slack = narrowed(vector)
        self.slack = max(self.slack, slack)
        return cells[0]

    def append(self, vector: np.ndarray) -> int:
        """Register a newly inserted object's mapped vector; returns its row."""
        self.matrix = np.concatenate([self.matrix, self.row(vector)[None]])
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
