"""Pivot-based filtering and validation: Lemmas 1 and 4 as one bound kernel.

These are the pruning rules every index shares:

* **Lemma 1 (pivot filtering)** -- an object o with mapped vector
  I(o) = <d(o,p_1), ..., d(o,p_l)> cannot be within r of q unless I(o) lies
  inside the box SR(q) = prod_i [d(q,p_i)-r, d(q,p_i)+r].  Equivalently,
  max_i |d(q,p_i) - d(o,p_i)| is a lower bound of d(q,o).  Over a box
  [lows, highs] bounding mapped vectors (a node's or a cluster's MBB, a
  grid cell) the bound for every member is the L-infinity distance from
  I(q) to the box, max_i max(lows_i - d(q,p_i), d(q,p_i) - highs_i, 0).
* **Lemma 4 (pivot validation)** -- o is guaranteed to be an answer when
  d(o,p_i) <= r - d(q,p_i) for some pivot p_i: min_i d(q,p_i) + d(o,p_i)
  is an upper bound of d(q,o), and a box's high corner gives it for every
  member.

(Lemmas 2 and 3, range-pivot and double-pivot filtering, are one
comparison each and stay in the trees that use them.)

:func:`lower_bound_many_queries` and :func:`upper_bound_many_queries` take
a ``q x l`` matrix of query-pivot distances (a bare row is one query) and
an ``n x l`` table -- mapped rows, or box corners -- and return the
``q x n`` bound matrix.  An input of at most ``_WHOLE_FLOATS`` ``q x n x l``
cells is evaluated whole, as one broadcast; a larger one a pivot column at
a time over blocks of queries, so no ``q x n x l`` temporary exists.  Each
cell is the same subtractions and additions on the same operands either
way, and max, min and abs are exact, so both forms agree bit for bit: the
choice follows the input's size and is not an option.

The column form reads a column-major table -- a pivot table's store
(:mod:`repro.tables.store`) -- in place; a row-major one (node boxes, the
Omni sequential file's blocks) is copied once a call to ``float64``
columns (:func:`columns_of`).  The input's layout decides, not an option.
A store's table is ``uint16`` codes, handed in with their
:class:`~repro.core.quantise.Grid`: the fold reads the raw codes against
the query's distances in steps (:meth:`~repro.core.quantise.Grid.in_steps`)
and scales the result, which is the bound over the decoded cells bit for
bit, with no pass that decodes the table.
"""

from __future__ import annotations

import numpy as np

from .quantise import Grid

__all__ = [
    "lower_bound_many_queries",
    "upper_bound_many_queries",
    "ptolemaic_pairs",
    "ptolemaic_lower_bound_many_queries",
]

# a q x n x l input of at most this many cells is evaluated as one broadcast
_WHOLE_FLOATS = 1_024

# a larger one works on one q_chunk x n block at a time, sized so the block,
# its scratch twin and one table column stay cache resident (measured: 64 K
# floats reads ~1.4x faster than 1 M on 32 x 50 000 x 5)
_COLUMN_BLOCK_FLOATS = 65_536

# the Ptolemaic reference and the staged pruner's cell gathers keep their
# temporaries under ~8 MB
_QUERY_CHUNK_FLOATS = 1_000_000


def _object_rows(object_pivot_matrix) -> np.ndarray:
    """Normalize an object-pivot table to a 2-D ``n x l`` array: ``uint16``
    codes stay as they are (read through their grid), anything else becomes
    ``float64``.

    Accepts the degenerate shapes the empty-table / empty-pivot edges
    produce: a 0-d scalar and a 1-D empty array (both mean zero objects),
    an ``n x 0`` matrix (zero pivots), and a bare 1-D row (one object's
    pivot distances).
    """
    mat = np.asarray(object_pivot_matrix)
    if mat.dtype != np.uint16:
        mat = mat.astype(np.float64, copy=False)
    if mat.ndim == 2:
        return mat
    if mat.ndim == 0 or mat.size == 0:
        return np.empty((0, 0), dtype=np.float64)
    return mat.reshape(1, -1)


def _distance(q, rows, out=None):
    """|d(q,p) - d(o,p)|: Lemma 1's term on table rows."""
    out = np.subtract(q, rows, out=out)
    return np.abs(out, out=out)


def _below(q, lows, out=None):
    """How far a box's low side lies above the query."""
    return np.subtract(lows, q, out=out)


def _above(q, highs, out=None):
    """How far the query lies above a box's high side."""
    return np.subtract(q, highs, out=out)


def columns_of(table, picks=slice(None)):
    """The pivot columns ``picks`` of an ``n x l`` table: views of its own
    columns when each is contiguous (a column store's table), else one
    contiguous ``float64`` copy of them (an input may be a strided view or
    a read-only memmap; it is never written)."""
    table = _object_rows(table)
    if table.strides[0] == table.itemsize:
        return [table[:, j] for j in np.arange(table.shape[1])[picks]]
    return np.ascontiguousarray(table.T[picks], dtype=np.float64)


def _fold(
    query_pivot_matrix, terms, reduce, empty: float, picks, grid: Grid | None = None, side=0.0
) -> np.ndarray:
    """The ``q x n`` fold with ``reduce`` (``np.maximum`` / ``np.minimum``)
    of ``term(d(q,p), table column)`` over the pivot columns ``picks`` of
    every ``(term, table)`` pair in ``terms``, one a column of
    ``query_pivot_matrix``; ``empty`` where there is no term.  Tables of
    codes on ``grid`` are folded in steps, the query moved ``side``
    centres, and the result scaled back.
    """
    qmat = np.asarray(query_pivot_matrix, dtype=np.float64)
    if qmat.ndim != 2:
        qmat = qmat.reshape(1, -1)
    terms = [(term, _object_rows(table)) for term, table in terms]
    n_queries, n_objects = qmat.shape[0], terms[0][1].shape[0]
    if qmat.size == 0 or n_objects == 0:
        return np.full((n_queries, n_objects), empty)
    if grid is not None:
        out = _fold(grid.in_steps(qmat, side), terms, reduce, empty, picks)
        out *= grid.step
        return out
    if n_queries * n_objects * qmat.shape[1] <= _WHOLE_FLOATS:
        whole = qmat[:, None, :]
        cells = terms[0][0](whole, terms[0][1][:, picks])
        for term, table in terms[1:]:
            reduce(cells, term(whole, table[:, picks]), out=cells)
        return reduce.reduce(cells, axis=2)
    terms = [(term, columns_of(table, picks)) for term, table in terms]
    out = np.empty((n_queries, n_objects), dtype=np.float64)
    step = max(1, _COLUMN_BLOCK_FLOATS // n_objects)
    scratch = np.empty((min(step, n_queries), n_objects), dtype=np.float64)
    for start in range(0, n_queries, step):
        block = out[start : start + step]
        qblock = qmat[start : start + step]
        diff = scratch[: block.shape[0]]
        target = block  # the first column writes the block, the rest fold into it
        for term, columns in terms:
            for j, column in enumerate(columns):
                term(qblock[:, j : j + 1], column, out=target)
                if target is diff:
                    reduce(block, diff, out=block)
                target = diff
    return out


def lower_bound_many_queries(
    query_pivot_matrix, lows, highs=None, picks=slice(None), grid: Grid | None = None
):
    """Lemma 1: ``q x n`` lower bounds of d(q_i, o_j).

    ``lows`` is the ``n x l`` table of mapped rows I(o_j) -- codes, with
    their ``grid`` -- or with ``highs`` the two are the low and high
    corners of ``n`` boxes, and entry (i, j) bounds every object inside box
    j: the L-infinity distance from I(q_i) to the box, 0 when I(q_i) is
    inside it.  ``picks`` selects the table's pivot columns, one a column
    of ``query_pivot_matrix``.
    """
    if highs is None:
        terms = [(_distance, lows)]
        return _fold(query_pivot_matrix, terms, np.maximum, 0.0, picks, grid, -1.0)
    terms = [(_below, lows), (_above, highs)]
    out = _fold(query_pivot_matrix, terms, np.maximum, 0.0, picks)
    return np.maximum(out, 0.0, out=out)


def upper_bound_many_queries(query_pivot_matrix, highs, grid: Grid | None = None) -> np.ndarray:
    """Lemma 4: ``q x n`` upper bounds of d(q_i, o_j), min_p d(q,p) + d(o,p).

    ``highs`` is the ``n x l`` table of mapped rows (codes, with their
    ``grid``), or the high corners of ``n`` boxes -- then entry (i, j)
    bounds every object inside box j.
    """
    terms = [(np.add, highs)]
    return _fold(query_pivot_matrix, terms, np.minimum, np.inf, slice(None), grid, 1.0)


# -- Ptolemaic bounds ---------------------------------------------------------
#
# For metrics satisfying Ptolemy's inequality
#     d(q,o) * d(p_i,p_j) <= d(q,p_i) * d(o,p_j) + d(q,p_j) * d(o,p_i)
# (L2 and PSD quadratic forms; see MetricDistance.is_ptolemaic), each pivot
# pair yields the lower bound
#     d(q,o) >= |d(q,p_i) * d(o,p_j) - d(q,p_j) * d(o,p_i)| / d(p_i,p_j).
# It is not pointwise tighter than the triangle bound, so callers take the
# max of both.  No query path runs the q x n broadcast below: the staged
# pruner evaluates the same bound cell-wise, for the rows it has selected
# (stage 4 survivors, the MkNNQ frontier), and tests hold that form to
# this one bit for bit.


def ptolemaic_pairs(pivot_pair_dists, order=None, budget: int = 8) -> np.ndarray:
    """Budgeted pivot pairs for the Ptolemaic bound, best-ranked first.

    Enumerates pairs among the top-ranked pivots first (ranked by
    ``order`` when given, else column order), skipping zero-distance
    pairs whose denominator would be degenerate.  Returns an ``m x 2``
    int array with ``m <= budget``.
    """
    mat = np.asarray(pivot_pair_dists, dtype=np.float64)
    ranked = [int(i) for i in (order if order is not None else range(mat.shape[0]))]
    pairs: list[tuple[int, int]] = []
    for second in range(1, len(ranked)):
        for first in range(second):
            i, j = ranked[first], ranked[second]
            if mat[i, j] > 0.0:
                pairs.append((i, j))
                if len(pairs) >= budget:
                    return np.asarray(pairs, dtype=np.intp)
    return np.asarray(pairs, dtype=np.intp).reshape(-1, 2)


def ptolemaic_lower_bound_many_queries(
    query_pivot_matrix, object_pivot_matrix, pivot_pair_dists, pairs=None
) -> np.ndarray:
    """Ptolemaic bound for a batch: ``q x n`` lower bounds of d(q_i, o_j).

    ``pivot_pair_dists`` is the ``l x l`` pivot-pair distance matrix
    computed at build time; ``pairs`` (``m x 2`` int, e.g. from
    :func:`ptolemaic_pairs`) selects the budgeted pairs -- all valid
    pairs when omitted.  Chunked over the query axis so the ``q x n x m``
    temporary stays bounded.
    """
    qmat = np.atleast_2d(np.asarray(query_pivot_matrix, dtype=np.float64))
    omat = _object_rows(object_pivot_matrix)
    pairmat = np.asarray(pivot_pair_dists, dtype=np.float64)
    if pairs is None:
        pairs = ptolemaic_pairs(pairmat, budget=pairmat.shape[0] ** 2)
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    n_queries = qmat.shape[0]
    n_objects = omat.shape[0]
    if qmat.size == 0 or omat.size == 0 or pairs.size == 0:
        return np.zeros((n_queries, n_objects), dtype=np.float64)
    left, right = pairs[:, 0], pairs[:, 1]
    denom = pairmat[left, right]
    q_left, q_right = qmat[:, left], qmat[:, right]
    o_left, o_right = omat[:, left], omat[:, right]
    out = np.empty((n_queries, n_objects), dtype=np.float64)
    step = max(1, _QUERY_CHUNK_FLOATS // (n_objects * len(pairs)))
    for start in range(0, n_queries, step):
        stop = start + step
        cross = np.abs(
            q_left[start:stop, None, :] * o_right[None, :, :]
            - q_right[start:stop, None, :] * o_left[None, :, :]
        )
        out[start:stop] = (cross / denom).max(axis=2)
    return out
