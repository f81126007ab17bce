"""Pivot mapping: embed a metric space into (R^l, L-infinity).

Given pivots P = {p_1, ..., p_l}, each object o maps to
I(o) = <d(o, p_1), ..., d(o, p_l)>.  The L-infinity distance between mapped
points lower-bounds the original distance (contractiveness), which is what
makes every filter in :mod:`repro.core.pivot_filter` safe.

:class:`PivotMapping` holds the ``float64`` table the trees and the disk
indexes build from.  LAESA's table keeps ``float32`` cells instead
(:class:`~repro.tables.store.PivotTable`), narrowed a column at a time as
each is computed (:class:`CellRounding`); its ``slack`` is what every bound
over those cells gives up (:mod:`repro.core.staged`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .metric_space import MetricSpace

__all__ = ["CellRounding", "PivotMapping", "narrowed"]

# what a row that rounds adds to the slack for the float64 rounding of the
# bounds over it, as a share of its largest cell: a Ptolemaic cell rounds by
# under 4 ulps of that cell per unit of d(q, p_i) + d(q, p_j), a Lemma 1
# term by one; this is 32
_ARITHMETIC_ROOM = 2.0**-48


class CellRounding:
    """What narrowing ``float64`` columns to ``float32`` cells costs, a
    column at a time: per row, its largest |float32(v) - v| (exact in
    ``float64``) and its largest cell.  :meth:`slack` is 0 when every cell
    is exact; else the largest, over the rows that round, of the row's
    error plus ``_ARITHMETIC_ROOM`` of its largest cell, widened by one
    ulp: no bound over the cells is then above (Lemma 4: below) the
    ``float64`` table's, rounding included.
    """

    def __init__(self, n: int):
        self.error, self.largest, self._gap = np.zeros(n), np.zeros(n), np.empty(n)

    def put(self, cells: np.ndarray, values: np.ndarray) -> None:
        """Narrow the ``float64`` column ``values`` into ``cells``, one
        ``float32`` column, and account for its rounding."""
        cells[...] = values
        gap = self._gap
        np.subtract(cells, values, out=gap)
        np.maximum(self.error, np.abs(gap, out=gap), out=self.error)
        np.maximum(self.largest, np.abs(cells), out=self.largest)

    def slack(self) -> float:
        rounds = self.error > 0.0
        if not rounds.any():
            return 0.0
        room = self.error[rounds] + _ARITHMETIC_ROOM * self.largest[rounds]
        return float(np.nextafter(room.max(), np.inf))


def narrowed(table) -> tuple[np.ndarray, float]:
    """``table`` (``float64``, ``n x l``) as ``float32`` cells, and its
    slack (:class:`CellRounding`): how an inserted row is narrowed."""
    table = np.asarray(table, dtype=np.float64)
    cells = np.empty(table.shape, dtype=np.float32)
    rounding = CellRounding(table.shape[0])
    for column in range(table.shape[1]):
        rounding.put(cells[:, column], table[:, column])
    return cells, rounding.slack()


class PivotMapping:
    """Pre-computes and serves distances to a fixed pivot set.

    Args:
        space: counted metric space (mapping construction counts toward
            build-time compdists, as in the paper's Table 4).
        pivot_ids: ids of the chosen pivots within ``space.dataset``.

    Attributes:
        matrix: ``n x l`` ``float64`` matrix; row i is I(o_i).
    """

    def __init__(self, space: MetricSpace, pivot_ids: Sequence[int]):
        self._hold_pivots(space, pivot_ids)
        # filled in place: a list of columns stacked afterwards holds the
        # table twice while it is built
        self.matrix = np.empty((len(space.dataset), len(self.pivot_ids)), dtype=np.float64)
        for column, pivot_obj in enumerate(self.pivot_objects):
            self.matrix[:, column] = self.column(pivot_obj)

    def _hold_pivots(self, space: MetricSpace, pivot_ids: Sequence[int]) -> None:
        self.space = space
        self.pivot_ids = [int(p) for p in pivot_ids]
        if not self.pivot_ids:
            raise ValueError("at least one pivot is required")
        self.pivot_objects = [space.dataset[p] for p in self.pivot_ids]

    def column(self, pivot_obj) -> np.ndarray:
        """d(o, pivot) for every object of the dataset, in ``float64``: one
        counted call, n computations."""
        return self.space.d_many(pivot_obj, self.space.dataset.objects)

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

    def append(self, vector: np.ndarray) -> int:
        """Register a newly inserted object's mapped vector; returns its row."""
        vector = np.asarray(vector, dtype=np.float64).reshape(1, -1)
        self.matrix = np.concatenate([self.matrix, vector])
        return self.matrix.shape[0] - 1

    def max_distance_bound(self) -> float:
        """An upper bound of the dataset diameter derived from the mapping.

        For any o, o': d(o,o') <= d(o,p) + d(o',p) <= 2 * max column value.
        Used by indexes that need the paper's d+ (M-index keys, SPB-tree
        discretisation) without extra distance computations.
        """
        return float(2.0 * self.matrix.max()) if self.matrix.size else 0.0
