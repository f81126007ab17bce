"""Pivot mapping: embed a metric space into (R^l, L-infinity).

Given pivots P = {p_1, ..., p_l}, each object o maps to
I(o) = <d(o, p_1), ..., d(o, p_l)>.  The L-infinity distance between mapped
points lower-bounds the original distance (contractiveness), which is what
makes every filter in :mod:`repro.core.pivot_filter` safe.

:class:`PivotMapping` holds what the paper's disk indexes keep in memory:
the pivots, the query mapping and, per pivot, the extent of every object
mapped.  The vectors I(o) live in the indexes' pages: a build stores what
it needs of :meth:`PivotMapping.build_table` and drops the rest.  LAESA's
table keeps ``uint16`` codes instead (:class:`~repro.tables.store.PivotTable`),
coded a column at a time as each is computed; their grid's ``slack`` is
what every bound over them gives up (:mod:`repro.core.staged`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .metric_space import MetricSpace

__all__ = ["PivotMapping"]


class PivotMapping:
    """The pivots, the query mapping, and the extent of what was mapped.

    Args:
        space: counted metric space (mapping construction counts toward
            build-time compdists, as in the paper's Table 4).
        pivot_ids: ids of the chosen pivots within ``space.dataset``.

    Attributes:
        low, high: per pivot, the least / greatest distance :meth:`build_table`
            or :meth:`map_object` has mapped (``inf`` / ``-inf`` before any).
    """

    def __init__(self, space: MetricSpace, pivot_ids: Sequence[int]):
        self.space = space
        self.pivot_ids = [int(p) for p in pivot_ids]
        if not self.pivot_ids:
            raise ValueError("at least one pivot is required")
        self.pivot_objects = [space.dataset[p] for p in self.pivot_ids]
        self.low = np.full(self.n_pivots, np.inf)
        self.high = np.full(self.n_pivots, -np.inf)

    def build_table(self) -> np.ndarray:
        """The ``n x l`` ``float64`` table a build reads, row i I(o_i), a
        column at a time (n counted computations each); not kept."""
        table = np.empty((len(self.space.dataset), self.n_pivots), dtype=np.float64)
        for column, pivot_obj in enumerate(self.pivot_objects):
            table[:, column] = self.space.d_many(pivot_obj, self.space.dataset.objects)
        self._widen(table)
        return table

    def _widen(self, rows: np.ndarray) -> None:
        self.low = np.minimum(self.low, rows.min(axis=0, initial=np.inf))
        self.high = np.maximum(self.high, rows.max(axis=0, initial=-np.inf))

    @property
    def n_pivots(self) -> int:
        return len(self.pivot_ids)

    @property
    def nbytes(self) -> int:
        """What the mapping holds: 8 B a pivot (Table 4's count) and the
        extent, ``low`` / ``high``, 16 B a pivot."""
        return 8 * self.n_pivots + int(self.low.nbytes + self.high.nbytes)

    def map_query(self, q) -> np.ndarray:
        """I(q) for an arbitrary query object (counts l computations)."""
        return self.space.d_many(q, self.pivot_objects)

    def map_object(self, obj) -> np.ndarray:
        """I(o) for an object being stored or removed: :meth:`map_query`,
        the extent widened to it."""
        vec = self.map_query(obj)
        self._widen(vec[None])
        return vec

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
