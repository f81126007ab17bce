"""The column store behind the pivot tables: LAESA / CPT and EPT / EPT*.

:class:`ColumnStore` holds a table's ``l`` columns of cells (and, on EPT,
its slot map) as ``l x capacity`` arrays, the live rows first, beside an
``int32`` id column.  ``view.table`` is the live ``n x l`` table as a
column-major view, which the bound kernel and the cascade read in place.
An insert writes its row into the spare room, grown by an eighth when it
runs out; a delete writes a tombstone (id -1) over a copy of the id
column, and the row stays, so the live rows keep their insertion order and
every answer and distance count is the table's without it (the cascade's
per-stage counts include its cells).  Past an eighth of the used slots in
tombstones the live rows are copied, in order, into fresh arrays with an
eighth to spare.  Each write publishes one immutable :class:`TableView`
(cells, ids, used count, slack, tombstones) with one attribute store, and
writes only rows past the used count of any view published before, so a
query that reads ``store.view`` once reads one state throughout and never
a half-written row; writes take the store's lock, one at a time.  An id
is found by one scan of the id column.  A snapshot holds the used rows and
no spare room.

:class:`ColumnTable` is the one set of query bodies over a store, and
:class:`PivotTable` LAESA's mapping, which fills its ``float32`` columns.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

import numpy as np

from ..core.index import MetricIndex, NotIndexed, claim_object_id
from ..core.mapping import CellRounding, PivotMapping
from ..core.queries import Neighbor, best_first_knn_many

__all__ = ["ColumnStore", "ColumnTable", "PivotTable", "TableView"]


class TableView(NamedTuple):
    """One state of a :class:`ColumnStore`: ``l x capacity`` cells (and
    slot columns), ``capacity`` ids (-1 for a tombstone), of which the
    first ``used`` are the table; ``slack`` covers every cell of them."""

    cells: np.ndarray
    ids: np.ndarray
    used: int
    slack: float = 0.0
    slots: np.ndarray | None = None
    dead: int = 0

    @property
    def table(self) -> np.ndarray:
        """The ``used x l`` table, column-major, tombstoned rows included."""
        return self.cells[:, : self.used].T

    @property
    def row_ids(self) -> np.ndarray:
        return self.ids[: self.used]

    @property
    def slot_map(self) -> np.ndarray | None:
        return None if self.slots is None else self.slots[:, : self.used].T

    def live_ids(self, rows) -> np.ndarray:
        """The ids of the table rows ``rows`` (a mask or positions), less
        the tombstones."""
        ids = self.row_ids[rows]
        return ids[ids >= 0] if self.dead else ids

    def without_tombstones(self, lower: np.ndarray) -> np.ndarray:
        """``lower``, a ``q x used`` bound matrix, with NaN for every
        tombstoned row: no object, so MkNNQ never orders or verifies it
        (:func:`~repro.core.queries.best_first_knn`)."""
        if self.dead:
            lower[:, self.row_ids < 0] = np.nan
        return lower


def _moved(view: TableView, keep, capacity: int) -> TableView:
    """``view`` with its rows ``keep`` -- the first ``used`` (a slice), or
    the live ones (positions, in order) -- copied into fresh arrays of
    ``capacity`` slots."""

    def move(array):
        out = np.empty(array.shape[:-1] + (capacity,), dtype=array.dtype)
        part = array[..., keep]
        out[..., : part.shape[-1]] = part
        return out

    moved = view._replace(
        cells=move(view.cells),
        ids=move(view.ids),
        slots=None if view.slots is None else move(view.slots),
    )
    if isinstance(keep, slice):  # grown: every row, tombstones too
        return moved
    return moved._replace(used=len(keep), dead=0)


class ColumnStore:
    """A pivot table's columns (module docstring); ``view`` is its one
    published state."""

    def __init__(self, cells, ids, slack: float = 0.0, slots=None):
        """A full store over the ``l x n`` arrays ``cells`` (and ``slots``)
        and ``n`` ids, kept as they are: the first insert grows it."""
        ids = np.asarray(ids, dtype=np.int32)
        self._writing = threading.Lock()
        self.view = TableView(
            cells, ids, ids.shape[0], float(slack), slots, int(np.count_nonzero(ids < 0))
        )

    def __getstate__(self):
        view = self.view
        return {
            "cells": view.cells[:, : view.used],
            "ids": view.row_ids,
            "slack": view.slack,
            "slots": None if view.slots is None else view.slots[:, : view.used],
        }

    def __setstate__(self, state):
        self.__init__(**state)

    def __len__(self) -> int:
        """Live rows."""
        return self.view.used - self.view.dead

    def claim(self, space, obj, object_id: int | None) -> int:
        """The id a new row goes under, before any distance is computed
        (:func:`~repro.core.index.claim_object_id` against the id column)."""
        return claim_object_id(space, obj, object_id, lambda i: self.find(i) >= 0)

    def find(self, object_id: int) -> int:
        """The row holding live ``object_id``, -1 if none."""
        rows = np.flatnonzero(self.view.row_ids == object_id)
        return int(rows[0]) if rows.size else -1

    def append(self, object_id: int, cells, slack: float = 0.0, slots=None) -> None:
        """Write a row past the live ones, then publish it with the slack
        widened to ``slack``."""
        with self._writing:
            view = self.view
            at = view.used
            if at == view.ids.shape[0]:
                view = _moved(view, slice(0, at), at + max(1, at // 8))
            view.cells[:, at] = cells
            if slots is not None:
                view.slots[:, at] = slots
            view.ids[at] = object_id
            self.view = view._replace(used=at + 1, slack=max(view.slack, slack))

    def remove(self, object_id: int) -> None:
        """Tombstone ``object_id``'s row; compact past an eighth."""
        with self._writing:
            view = self.view
            at = self.find(object_id)
            if at < 0:
                raise NotIndexed(f"object {object_id} is not in the table")
            ids = view.ids.copy()
            ids[at] = -1
            view = view._replace(ids=ids, dead=view.dead + 1)
            if 8 * view.dead > view.used:
                live = np.flatnonzero(view.row_ids >= 0)
                view = _moved(view, live, len(live) + max(1, len(live) // 8))
            self.view = view


class ColumnTable(MetricIndex):
    """The query bodies of a table in a :class:`ColumnStore`, ``table``:
    LAESA / CPT and EPT / EPT*.  A subclass maps queries to their
    ``q x |P|`` pivot distances (:meth:`_query_matrix`); the cascade reads
    each cell's pivot through the store's slot map (none on a shared-pivot
    table) and gives up its slack.  Each call reads ``table.view`` once."""

    use_validation = False

    def __setstate__(self, state):
        # a table pickled before the column store was row-major
        if "table" not in state and "table" not in vars(state.get("mapping", self)):
            from ..service.snapshot import SnapshotError

            raise SnapshotError(
                f"a {self.name} whose table is row-major reads only through "
                "`repro migrate OLD NEW`"
            )
        self.__dict__.update(state)

    # the live table, column-major, and its row ids (-1 for a tombstone)
    _rows = property(lambda self: self.table.view.table)
    _row_ids = property(lambda self: self.table.view.row_ids)

    def _query_matrix(self, queries) -> np.ndarray:
        raise NotImplementedError

    def _distances(self, queries, ids_per_query) -> list[np.ndarray]:
        """Counted d(q_i, o) for each query's candidate ids: the one step
        a subclass that stores its objects elsewhere replaces."""
        return [self.space.d_ids(q, ids) for q, ids in zip(queries, ids_per_query)]

    def range_query_many(self, queries, radius: float) -> list[list[int]]:
        """Vectorised MRQ: one query-pivot matrix, the staged cascade
        (Lemma 1, Lemma 4 when validating, Ptolemaic) over the ``q x n``
        cells, and one vectorised distance call a query for its survivors.
        A pivot that is an answer is caught by the scan: its row holds a
        zero."""
        queries = list(queries)
        if not queries:
            return []
        qmat = self._query_matrix(queries)
        view = self.table.view
        survivors, validated = self.pruner.masks_many_queries(
            qmat,
            view.table,
            radius,
            counters=self.space.counters,
            validate=self.use_validation,
            slack=view.slack,
            slots=view.slot_map,
        )
        ids_per_query = [view.live_ids(row).tolist() for row in survivors]
        out: list[list[int]] = []
        for row, ids, dists in zip(
            validated, ids_per_query, self._distances(queries, ids_per_query)
        ):
            results = view.live_ids(row).tolist()
            results.extend(o for o, d in zip(ids, dists) if d <= radius)
            out.append(sorted(results))
        return out

    def knn_query_many(self, queries, k: int) -> list[list[Neighbor]]:
        """Vectorised MkNNQ, verified best-first (ascending lower bound,
        chunked vectorised distance calls) over :meth:`_knn_columns`."""
        queries = list(queries)
        return best_first_knn_many(self._knn_columns(queries), k) if queries else []

    def _knn_columns(self, queries):
        """What MkNNQ verifies from: the row ids, the ``q x n`` Lemma 1
        matrix (NaN on a tombstone's row), and per query the Ptolemaic
        tightener (applied only to the rows the verification order
        reaches) and the counted distance call."""
        view = self.table.view
        lower, tighteners = self.pruner.knn_bounds(
            self._query_matrix(queries), view.table, view.slack, view.slot_map
        )
        verifiers = [lambda ids, q=q: self._distances([q], [ids])[0] for q in queries]
        return view.row_ids, view.without_tombstones(lower), tighteners, verifiers

    def delete(self, object_id: int) -> None:
        """Tombstone the object's table row (no distance computations)."""
        self.table.remove(object_id)

    def _object_bytes(self) -> int:
        view = self.table.view
        return sum(self.space.dataset.object_nbytes(int(i)) for i in view.live_ids(slice(None)))


class PivotTable(PivotMapping):
    """LAESA's mapping: the same pivots and query mapping as a
    :class:`PivotMapping`, its table ``table``, a :class:`ColumnStore` of
    ``float32`` cells, each column narrowed as it is computed
    (:class:`~repro.core.mapping.CellRounding`), so no ``float64`` table
    exists.  After the given pivots it takes up to ``extra`` more, max-min:
    the next is the object farthest from its nearest pivot so far, read off
    the ``float64`` columns as they arrive.  A column whose distances the
    table's Lemma 1 bound (read off the cells, widened) already explains --
    mean ``lb(o) / d(o, p)`` at or above ``explained`` -- is discarded and
    the continuation stops; so it does when every object is a pivot.
    """

    def __init__(self, space, pivot_ids, extra: int = 0, explained: float = 1.0):
        self._hold_pivots(space, pivot_ids)
        dataset = space.dataset
        n, given = len(dataset), self.n_pivots
        cells = np.empty((given + (max(0, extra) if n else 0), n), dtype=np.float32)
        rounding, nearest = CellRounding(n), np.full(n, np.inf)
        for column, pivot_obj in enumerate(self.pivot_objects):
            values = self.column(pivot_obj)
            rounding.put(cells[column], values)
            np.minimum(nearest, values, out=nearest)
        width = given
        bound, gap = np.empty(n), np.empty(n)
        while width < cells.shape[0] and nearest.max() > 0.0:
            pivot_id = int(nearest.argmax())
            values = self.column(dataset[pivot_id])
            # Lemma 1 from the new pivot's own row, through two n-long
            # buffers allocated once
            bound.fill(0.0)
            for have in cells[:width]:
                np.subtract(have, have[pivot_id], out=gap, dtype=np.float64)
                np.maximum(bound, np.abs(gap, out=gap), out=bound)
            apart = values > 0.0
            if (bound[apart] / values[apart]).mean() >= explained:
                break
            rounding.put(cells[width], values)
            np.minimum(nearest, values, out=nearest)
            self.pivot_ids.append(pivot_id)
            self.pivot_objects.append(dataset[pivot_id])
            width += 1
        if width < cells.shape[0]:
            cells = cells[:width].copy()
        self.table = ColumnStore(cells, np.arange(n, dtype=np.int32), rounding.slack())
