"""The column store behind the pivot tables: LAESA / CPT and EPT / EPT*.

:class:`ColumnStore` holds a table's ``l`` columns of cells (and, on EPT,
its slot map) as ``l x capacity`` arrays, the live rows first, beside an
``int32`` id column.  A cell is a ``uint16`` code on the table's one
:class:`~repro.core.quantise.Grid` from 0: 2 bytes a cell, whatever the
index.  ``view.table`` is the live ``n x l`` table of codes as a
column-major view, which the bound kernel and the cascade read in place,
decoding as they read (:mod:`repro.core.staged`); ``view.grid`` says how.
The step is read off the build -- the table's largest distance lands in
the grid's lower half -- and an insert past the top code re-grids: the
step doubles and every code halves (``codes >> 1``, exact), in fresh
arrays published as one view, so no code saturates.  An insert writes its
row into the spare room, grown by an eighth when it runs out; a delete
writes a tombstone over a copy of the id column -- the id's complement
``~id``, negative as every tombstone is -- and the row stays, so the live
rows keep their insertion order and every answer and distance count is the
table's without it (the cascade's per-stage counts include its cells).  An
insert that puts an id back whose tombstoned row holds its codes (and
slots) bit for bit publishes that row live again, in a copy of the id
column, and writes no row.  Past an eighth of the used slots in tombstones
the live rows are copied, in order, into fresh arrays with an eighth to
spare.  Each write publishes one immutable :class:`TableView` (codes, ids,
used count, grid, tombstones) with one attribute store, and writes only
rows past the used count of any view published before, so a query that
reads ``store.view`` once reads one state throughout and never a
half-written row; writes take the store's lock, one at a time.  An id is
found by one scan of the id column.  A snapshot holds the used rows and
no spare room.

:class:`ColumnTable` is the one set of query bodies over a store, and
:class:`PivotTable` LAESA's mapping, which codes its columns as it
computes them.
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple

import numpy as np

from ..core.index import MetricIndex, NotIndexed, claim_object_id
from ..core.mapping import PivotMapping
from ..core.quantise import GRID_CELLS, Grid
from ..core.queries import Neighbor, best_first_knn_many

__all__ = ["ColumnStore", "ColumnTable", "PivotTable", "TableView", "coded"]

# a build's step puts its largest distance below this many steps: half the grid
_BUILD_CELLS = GRID_CELLS // 2


def _doublings(grid: Grid, top: float, cells: int) -> int:
    """How many times ``grid``'s step doubles to put ``top`` below
    ``cells`` steps."""
    return max(0, math.frexp(Grid.step_for(top, cells))[1] - math.frexp(grid.step)[1])


def _checked_top(values: np.ndarray) -> float:
    if not values.min(initial=0.0) >= 0.0:
        raise ValueError("a pivot table codes distances, which are finite and >= 0")
    return float(values.max(initial=0.0))


def coded(values) -> tuple[np.ndarray, Grid]:
    """``values`` (``l x n`` distances) as ``uint16`` codes and their grid:
    the step puts the largest below half the grid."""
    values = np.asarray(values, dtype=np.float64)
    codes = np.empty(values.shape, dtype=np.uint16)
    grid = Grid(Grid.step_for(_checked_top(values), _BUILD_CELLS))
    return codes, grid.code(values, codes)


class TableView(NamedTuple):
    """One state of a :class:`ColumnStore`: ``l x capacity`` codes (and
    slot columns), ``capacity`` ids (``~id`` for a tombstone), of which the
    first ``used`` are the table; ``grid`` decodes every code of them."""

    cells: np.ndarray
    ids: np.ndarray
    used: int
    grid: Grid
    slots: np.ndarray | None = None
    dead: int = 0

    @property
    def table(self) -> np.ndarray:
        """The ``used x l`` codes, column-major, tombstoned rows included."""
        return self.cells[:, : self.used].T

    @property
    def values(self) -> np.ndarray:
        """The ``used x l`` distances the codes decode to (a copy: what a
        test or a tool reads; a query decodes the cells it reads)."""
        return self.grid.decode(self.table)

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

    def __init__(self, cells, ids, grid: Grid | None = None, slots=None):
        """A full store over the ``l x n`` arrays ``cells`` (and ``slots``)
        and ``n`` ids, kept as they are: the first insert grows it.
        ``cells`` are codes on ``grid``, or distances -- no ``grid`` --
        coded here (:func:`coded`)."""
        if grid is None:
            cells, grid = coded(cells)
        ids = np.asarray(ids, dtype=np.int32)
        self._writing = threading.Lock()
        self.view = TableView(
            cells, ids, ids.shape[0], Grid(*grid), slots, int(np.count_nonzero(ids < 0))
        )

    def __getstate__(self):
        view = self.view
        return {
            "cells": view.cells[:, : view.used],
            "ids": view.row_ids,
            "grid": tuple(view.grid),
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

    def append(self, object_id: int, values, slots=None) -> None:
        """Code the row of distances ``values`` and write it past the live
        ones, then publish it -- re-gridded first when it is past the top
        code, the grid's slack widened when it is not exact -- or, when a
        tombstone of ``object_id`` holds its codes (and slots) bit for bit,
        publish that row live again."""
        values = np.asarray(values, dtype=np.float64)
        with self._writing:
            view = self.view
            times = _doublings(view.grid, _checked_top(values), GRID_CELLS)
            if times:
                cells = view.cells.copy()
                view = view._replace(cells=cells, grid=view.grid.doubled(cells[:, : view.used], times))
            cells = np.empty(values.shape, dtype=np.uint16)
            view = view._replace(grid=view.grid.code(values, cells))
            at = self._revivable(view, object_id, cells, slots)
            if at >= 0:
                ids = view.ids.copy()
                ids[at] = object_id
                self.view = view._replace(ids=ids, dead=view.dead - 1)
                return
            at = view.used
            if at == view.ids.shape[0]:
                view = _moved(view, slice(0, at), at + max(1, at // 8))
            view.cells[:, at] = cells
            if slots is not None:
                view.slots[:, at] = slots
            view.ids[at] = object_id
            self.view = view._replace(used=at + 1)

    @staticmethod
    def _revivable(view: TableView, object_id: int, cells, slots) -> int:
        """A row tombstoned for ``object_id`` whose codes (and slots) are
        ``cells`` (and ``slots``) as the store holds them, bit for bit; -1
        if none."""
        rows = np.flatnonzero(view.row_ids == ~object_id)
        if not rows.size:
            return -1
        want = cells.tobytes()
        if slots is not None:
            want += np.asarray(slots, dtype=view.slots.dtype).tobytes()
        for at in rows.tolist():
            held = view.cells[:, at].tobytes()
            if slots is not None:
                held += view.slots[:, at].tobytes()
            if held == want:
                return at
        return -1

    def remove(self, object_id: int) -> None:
        """Tombstone ``object_id``'s row; compact past an eighth."""
        with self._writing:
            view = self.view
            at = self.find(object_id)
            if at < 0:
                raise NotIndexed(f"object {object_id} is not in the table")
            ids = view.ids.copy()
            ids[at] = ~object_id
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
    table) and its codes through the store's grid, giving up its slack.
    Each call reads ``table.view`` once."""

    use_validation = False

    # the live table, column-major, and its row ids (negative for a tombstone)
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
            grid=view.grid,
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
            self._query_matrix(queries), view.table, view.grid, view.slot_map
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
    :class:`PivotMapping`, its table ``table``, a :class:`ColumnStore`, each
    column coded as it is computed -- the step read off the first, doubled
    (the columns before re-gridded) while a later one's largest distance is
    past half the grid -- so no ``float64`` table exists.  After the given
    pivots it takes up to ``extra`` more, max-min: the next is the object
    farthest from its nearest pivot so far, read off the ``float64``
    columns as they arrive.  A column whose distances the table's Lemma 1
    bound (read off the codes, in steps) already explains -- mean
    ``lb(o) / d(o, p)`` at or above ``explained`` -- is discarded and the
    continuation stops; so it does when every object is a pivot.  It keeps
    no extent (a :class:`PivotMapping`'s ``low`` / ``high``): no table reads
    one, so neither the build nor an insert widens one.
    """

    def __init__(self, space, pivot_ids, extra: int = 0, explained: float = 1.0):
        super().__init__(space, pivot_ids)
        del self.low, self.high
        dataset = space.dataset
        n, given = len(dataset), self.n_pivots
        cells = np.empty((given + (max(0, extra) if n else 0), n), dtype=np.uint16)
        grid, nearest = None, np.full(n, np.inf)

        def put(column, values):
            nonlocal grid
            top = _checked_top(values)
            if grid is None:
                grid = Grid(Grid.step_for(top, _BUILD_CELLS))
            grid = grid.doubled(cells[:column], _doublings(grid, top, _BUILD_CELLS))
            grid = grid.code(values, cells[column])
            np.minimum(nearest, values, out=nearest)

        for column, pivot_obj in enumerate(self.pivot_objects):
            put(column, space.d_many(pivot_obj, dataset.objects))
        width = given
        bound, gap = np.empty(n), np.empty(n)
        while width < cells.shape[0] and nearest.max() > 0.0:
            pivot_id = int(nearest.argmax())
            values = space.d_many(dataset[pivot_id], dataset.objects)
            # Lemma 1 from the new pivot's own row, in steps, through two
            # n-long buffers allocated once
            bound.fill(0.0)
            for have in cells[:width]:
                np.subtract(have, have[pivot_id], out=gap, dtype=np.float64)
                np.maximum(bound, np.abs(gap, out=gap), out=bound)
            apart = values > 0.0
            if (bound[apart] * grid.step / values[apart]).mean() >= explained:
                break
            put(width, values)
            self.pivot_ids.append(pivot_id)
            self.pivot_objects.append(dataset[pivot_id])
            width += 1
        if width < cells.shape[0]:
            cells = cells[:width].copy()
        self.table = ColumnStore(cells, np.arange(n, dtype=np.int32), grid or Grid(1.0))

    def _widen(self, rows) -> None:
        pass  # no extent to widen

    @property
    def nbytes(self) -> int:
        return 8 * self.n_pivots
