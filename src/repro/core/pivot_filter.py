"""Pivot-based filtering and validation: Lemmas 1-4 of the paper.

These are the pruning rules every index shares:

* **Lemma 1 (pivot filtering)** -- an object o with mapped vector
  I(o) = <d(o,p_1), ..., d(o,p_l)> cannot be within r of q unless I(o) lies
  inside the box SR(q) = prod_i [d(q,p_i)-r, d(q,p_i)+r].  Equivalently,
  max_i |d(q,p_i) - d(o,p_i)| is a lower bound of d(q,o).
* **Lemma 2 (range-pivot filtering)** -- a ball region (pivot p, radius R)
  can be pruned when d(q,p) > R + r.
* **Lemma 3 (double-pivot filtering)** -- a generalized-hyperplane region
  assigned to p_i can be pruned when d(q,p_i) - d(q,p_j) > 2r.
* **Lemma 4 (pivot validation)** -- o is guaranteed to be an answer when
  d(o,p_i) <= r - d(q,p_i) for some pivot p_i.

The vectorised variants operate on whole columns of pre-computed distances
(`n x l` matrices) and on MBBs in pivot space; they are the hot path of the
table indexes and of MBB-equipped external indexes.

The ``*_many_queries`` variants lift Lemmas 1 and 4 to whole query batches:
given a ``q x l`` matrix of query-pivot distances and the ``n x l`` object
table, they produce the full ``q x n`` bound matrix in a handful of numpy
operations -- the core of the batch query execution layer.
:func:`lower_bound_many_queries` is the Lemma 1 kernel every batch path
runs (a pivot column at a time); the scalar :func:`lower_bound` and the
``n x l`` :func:`lower_bound_many` are the forms tests check it against.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "lower_bound",
    "lower_bound_many",
    "lower_bound_many_queries",
    "upper_bound",
    "upper_bound_many",
    "upper_bound_many_queries",
    "ptolemaic_pairs",
    "ptolemaic_lower_bound_many",
    "ptolemaic_lower_bound_many_queries",
    "can_prune",
    "can_validate",
    "query_chunk",
    "range_pivot_can_prune",
    "range_pivot_min_dist",
    "double_pivot_can_prune",
    "mbb_min_dist",
    "mbb_min_dist_many_queries",
    "mbb_max_dist",
    "mbb_max_dist_many_queries",
    "mbb_can_prune",
    "mbb_can_validate",
    "mbb_prune_mask_many_queries",
    "mbb_validate_mask_many_queries",
]


def lower_bound(query_pivot_dists, object_pivot_dists) -> float:
    """Best triangle-inequality lower bound of d(q, o) over shared pivots."""
    q = np.asarray(query_pivot_dists, dtype=np.float64)
    o = np.asarray(object_pivot_dists, dtype=np.float64)
    if q.size == 0:
        return 0.0
    return float(np.abs(q - o).max())


def _object_rows(object_pivot_matrix) -> np.ndarray:
    """Normalize an object-pivot table to a 2-D float64 ``n x l`` array.

    Accepts the degenerate shapes the empty-table / empty-pivot edges
    produce: a 0-d scalar and a 1-D empty array (both mean zero objects),
    an ``n x 0`` matrix (zero pivots), and a bare 1-D row (one object's
    pivot distances).  Keeping this in one place is what makes
    :func:`lower_bound_many` and :func:`upper_bound_many` agree on the
    dtype and shape of their zero-size results.
    """
    mat = np.asarray(object_pivot_matrix, dtype=np.float64)
    if mat.ndim == 0 or (mat.ndim == 1 and mat.size == 0):
        # a 0-d scalar cannot be reshaped when its size is 1 -- both
        # degenerate shapes mean "no object rows", so hand back a real
        # 0 x 0 table instead
        return np.empty((0, 0), dtype=np.float64)
    if mat.ndim == 1:
        return mat.reshape(1, -1)
    return mat


def lower_bound_many(query_pivot_dists, object_pivot_matrix) -> np.ndarray:
    """Lower bounds of d(q, o) for every row of an ``n x l`` distance matrix."""
    q = np.asarray(query_pivot_dists, dtype=np.float64)
    mat = _object_rows(object_pivot_matrix)
    if mat.size == 0:
        # zero pivots: one (trivial) 0.0 bound per object row; zero objects:
        # an empty float64 vector -- never a 0-d or integer-dtype result
        return np.zeros(mat.shape[0], dtype=np.float64)
    return np.abs(mat - q).max(axis=1)


# the broadcast kernels below (Lemma 4, the MBB forms, the Ptolemaic
# reference) build a q x n x l intermediate; chunking the query axis keeps
# that temporary under ~8 MB regardless of batch size
_QUERY_CHUNK_FLOATS = 1_000_000

# Lemma 1 works on one q_chunk x n block at a time, sized so the block, its
# scratch twin and one table column stay cache resident (measured: 64 K
# floats reads ~1.4x faster than 1 M on 32 x 50 000 x 5)
_COLUMN_BLOCK_FLOATS = 65_536


def query_chunk(n_objects: int, n_pivots: int) -> int:
    """Queries per block so a q x n x l float temporary stays bounded."""
    cells = max(1, n_objects * n_pivots)
    return max(1, _QUERY_CHUNK_FLOATS // cells)


def lower_bound_many_queries(query_pivot_matrix, object_pivot_matrix) -> np.ndarray:
    """Lemma 1 for a batch: ``q x n`` lower bounds of d(q_i, o_j).

    ``query_pivot_matrix`` is ``q x l`` (one row per query, I(q_i)); the
    object matrix is ``n x l``.  Entry (i, j) equals
    ``lower_bound(query_pivot_matrix[i], object_pivot_matrix[j])`` bit for
    bit: the maximum of the same ``|d(q,p) - d(o,p)|`` terms, taken a pivot
    column at a time -- subtract, abs, running maximum over a block of
    queries -- so no ``q x n x l`` temporary exists.  The table is read
    through a per-call contiguous ``l x n`` copy (the input may be a
    strided view or a read-only memmap; it is never written), released
    with the block scratch when the call returns.
    """
    qmat = np.atleast_2d(np.asarray(query_pivot_matrix, dtype=np.float64))
    omat = np.atleast_2d(np.asarray(object_pivot_matrix, dtype=np.float64))
    n_queries = qmat.shape[0]
    n_objects = omat.shape[0]
    if qmat.size == 0 or omat.size == 0:
        return np.zeros((n_queries, n_objects), dtype=np.float64)
    out = np.empty((n_queries, n_objects), dtype=np.float64)
    columns = np.ascontiguousarray(omat.T)
    step = max(1, _COLUMN_BLOCK_FLOATS // n_objects)
    scratch = np.empty((min(step, n_queries), n_objects), dtype=np.float64)
    for start in range(0, n_queries, step):
        block = out[start : start + step]
        qblock = qmat[start : start + step]
        diff = scratch[: block.shape[0]]
        np.subtract(qblock[:, :1], columns[0], out=block)
        np.abs(block, out=block)
        for j in range(1, columns.shape[0]):
            np.subtract(qblock[:, j : j + 1], columns[j], out=diff)
            np.abs(diff, out=diff)
            np.maximum(block, diff, out=block)
    return out


def upper_bound_many_queries(query_pivot_matrix, object_pivot_matrix) -> np.ndarray:
    """Lemma 4 for a batch: ``q x n`` upper bounds of d(q_i, o_j)."""
    qmat = np.atleast_2d(np.asarray(query_pivot_matrix, dtype=np.float64))
    omat = np.atleast_2d(np.asarray(object_pivot_matrix, dtype=np.float64))
    n_queries = qmat.shape[0]
    n_objects = omat.shape[0]
    if qmat.size == 0 or omat.size == 0:
        return np.full((n_queries, n_objects), np.inf)
    out = np.empty((n_queries, n_objects), dtype=np.float64)
    step = query_chunk(n_objects, omat.shape[1])
    for start in range(0, n_queries, step):
        block = qmat[start : start + step]
        out[start : start + step] = (block[:, None, :] + omat[None, :, :]).min(axis=2)
    return out


def upper_bound(query_pivot_dists, object_pivot_dists) -> float:
    """Best triangle-inequality upper bound of d(q, o) over shared pivots."""
    q = np.asarray(query_pivot_dists, dtype=np.float64)
    o = np.asarray(object_pivot_dists, dtype=np.float64)
    if q.size == 0:
        return float("inf")
    return float((q + o).min())


def upper_bound_many(query_pivot_dists, object_pivot_matrix) -> np.ndarray:
    """Upper bounds of d(q, o) for every row of an ``n x l`` distance matrix."""
    q = np.asarray(query_pivot_dists, dtype=np.float64)
    mat = _object_rows(object_pivot_matrix)
    if mat.size == 0:
        return np.full(mat.shape[0], np.inf, dtype=np.float64)
    return (mat + q).min(axis=1)


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


def ptolemaic_lower_bound_many(
    query_pivot_dists, object_pivot_matrix, pivot_pair_dists, pairs=None
) -> np.ndarray:
    """Ptolemaic lower bounds for every row of an ``n x l`` distance matrix."""
    q = np.asarray(query_pivot_dists, dtype=np.float64)
    out = ptolemaic_lower_bound_many_queries(
        q.reshape(1, -1), object_pivot_matrix, pivot_pair_dists, pairs=pairs
    )
    return out[0]


def ptolemaic_lower_bound_many_queries(
    query_pivot_matrix, object_pivot_matrix, pivot_pair_dists, pairs=None
) -> np.ndarray:
    """Ptolemaic bound for a batch: ``q x n`` lower bounds of d(q_i, o_j).

    ``pivot_pair_dists`` is the ``l x l`` pivot-pair distance matrix
    computed at build time; ``pairs`` (``m x 2`` int, e.g. from
    :func:`ptolemaic_pairs`) selects the budgeted pairs -- all valid
    pairs when omitted.  Chunked over the query axis like
    :func:`lower_bound_many_queries` so the ``q x n x m`` temporary stays
    bounded.
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
    step = query_chunk(n_objects, len(pairs))
    for start in range(0, n_queries, step):
        stop = start + step
        cross = np.abs(
            q_left[start:stop, None, :] * o_right[None, :, :]
            - q_right[start:stop, None, :] * o_left[None, :, :]
        )
        out[start:stop] = (cross / denom).max(axis=2)
    return out


def can_prune(query_pivot_dists, object_pivot_dists, radius: float) -> bool:
    """Lemma 1: True when o is provably outside the query ball."""
    return lower_bound(query_pivot_dists, object_pivot_dists) > radius


def can_validate(query_pivot_dists, object_pivot_dists, radius: float) -> bool:
    """Lemma 4: True when o is provably inside the query ball."""
    return upper_bound(query_pivot_dists, object_pivot_dists) <= radius


def range_pivot_can_prune(query_to_pivot: float, region_radius: float, radius: float) -> bool:
    """Lemma 2: prune ball region (p, R) when d(q,p) > R + r."""
    return query_to_pivot > region_radius + radius


def range_pivot_min_dist(query_to_pivot: float, region_radius: float) -> float:
    """Lower bound of d(q, o) for any o inside ball region (p, R)."""
    return max(0.0, query_to_pivot - region_radius)


def double_pivot_can_prune(query_to_own: float, query_to_other: float, radius: float) -> bool:
    """Lemma 3: prune hyperplane region of p_i when d(q,p_i) - d(q,p_j) > 2r."""
    return query_to_own - query_to_other > 2.0 * radius


def mbb_min_dist(query_pivot_dists, lows, highs) -> float:
    """Minimum possible lower-bound distance from q to any point in an MBB.

    The MBB ``[lows, highs]`` bounds mapped vectors I(o); the pivot-space
    metric is L-infinity, so the minimum of max_i |q_i - v_i| over the box is
    the L-infinity point-to-rectangle distance.  It lower-bounds d(q, o) for
    every o inside, hence drives both pruning and best-first orderings.
    """
    q = np.asarray(query_pivot_dists, dtype=np.float64)
    lo = np.asarray(lows, dtype=np.float64)
    hi = np.asarray(highs, dtype=np.float64)
    gaps = np.maximum(np.maximum(lo - q, q - hi), 0.0)
    return float(gaps.max()) if gaps.size else 0.0


def mbb_max_dist(query_pivot_dists, lows, highs) -> float:
    """An upper bound of d(q, o) valid for every o inside the MBB.

    For each pivot i, d(q,o) <= d(q,p_i) + d(o,p_i) <= q_i + hi_i; the best
    (smallest) such bound over pivots is returned (Lemma 4 lifted to MBBs).
    """
    q = np.asarray(query_pivot_dists, dtype=np.float64)
    hi = np.asarray(highs, dtype=np.float64)
    if q.size == 0:
        return float("inf")
    return float((q + hi).min())


def mbb_can_prune(query_pivot_dists, lows, highs, radius: float) -> bool:
    """Lemma 1 on a whole region: prune when the MBB misses SR(q)."""
    return mbb_min_dist(query_pivot_dists, lows, highs) > radius


def mbb_can_validate(query_pivot_dists, lows, highs, radius: float) -> bool:
    """Lemma 4 on a whole region: every object in the MBB is an answer."""
    return mbb_max_dist(query_pivot_dists, lows, highs) <= radius


def mbb_min_dist_many_queries(query_pivot_matrix, lows, highs) -> np.ndarray:
    """:func:`mbb_min_dist` for a batch of queries over a batch of MBBs.

    ``query_pivot_matrix`` is ``q x l`` (one row per I(q_i)); ``lows`` /
    ``highs`` are ``c x l`` (one row per region MBB).  Entry (i, j) equals
    ``mbb_min_dist(query_pivot_matrix[i], lows[j], highs[j])`` -- the
    ``q x c`` matrix of region lower bounds that drives batched pruning and
    best-first orderings over clusters/nodes of the external category.
    """
    qmat = np.atleast_2d(np.asarray(query_pivot_matrix, dtype=np.float64))
    lo = np.atleast_2d(np.asarray(lows, dtype=np.float64))
    hi = np.atleast_2d(np.asarray(highs, dtype=np.float64))
    n_queries = qmat.shape[0]
    n_regions = lo.shape[0]
    if qmat.size == 0 or lo.size == 0:
        return np.zeros((n_queries, n_regions), dtype=np.float64)
    out = np.empty((n_queries, n_regions), dtype=np.float64)
    step = query_chunk(n_regions, lo.shape[1])
    for start in range(0, n_queries, step):
        block = qmat[start : start + step, None, :]
        out[start : start + step] = np.maximum(
            np.maximum(lo[None, :, :] - block, block - hi[None, :, :]), 0.0
        ).max(axis=2)
    return out


def mbb_max_dist_many_queries(query_pivot_matrix, lows, highs) -> np.ndarray:
    """:func:`mbb_max_dist` for a batch of queries over a batch of MBBs.

    Returns the ``q x c`` matrix of region upper bounds (Lemma 4 lifted to
    MBBs); ``lows`` is accepted for signature symmetry but, as in the
    scalar form, only the ``highs`` corners matter.
    """
    qmat = np.atleast_2d(np.asarray(query_pivot_matrix, dtype=np.float64))
    hi = np.atleast_2d(np.asarray(highs, dtype=np.float64))
    n_queries = qmat.shape[0]
    n_regions = hi.shape[0]
    if qmat.size == 0 or hi.size == 0:
        return np.full((n_queries, n_regions), np.inf)
    out = np.empty((n_queries, n_regions), dtype=np.float64)
    step = query_chunk(n_regions, hi.shape[1])
    for start in range(0, n_queries, step):
        block = qmat[start : start + step, None, :]
        out[start : start + step] = (block + hi[None, :, :]).min(axis=2)
    return out


def mbb_prune_mask_many_queries(
    query_pivot_matrix, lows, highs, radius, order=None, prefix=None, counters=None
) -> np.ndarray:
    """Lemma 1 prune mask over (queries x regions).

    ``radius`` may be a scalar (shared MRQ radius) or a per-query array
    (MkNNQ heap radii); entry (i, j) is True when region j is provably
    outside query i's ball.

    When ``order`` (a pivot-column permutation) and ``prefix`` are given,
    the mask is computed as a staged cascade: the box test runs over the
    first ``prefix`` ranked columns, decided cells drop out, and only the
    surviving (query, region) cells see the remaining columns.  The mask
    is identical either way -- the per-column gap maximum is order
    independent -- but the refine stage touches far fewer cells when the
    prefix columns carry most of the pruning power.  Stage counts go to
    ``counters`` (a :class:`~repro.core.counters.CostCounters`) when given.
    """
    r = np.asarray(radius, dtype=np.float64)
    rcol = r[:, None] if r.ndim else r
    qmat = np.atleast_2d(np.asarray(query_pivot_matrix, dtype=np.float64))
    lo = np.atleast_2d(np.asarray(lows, dtype=np.float64))
    hi = np.atleast_2d(np.asarray(highs, dtype=np.float64))
    n_pivots = qmat.shape[1] if qmat.size else 0
    if order is None or prefix is None or not 0 < prefix < n_pivots:
        return mbb_min_dist_many_queries(qmat, lo, hi) > rcol
    order = np.asarray(order, dtype=np.intp)
    head, tail = order[:prefix], order[prefix:]
    pruned = mbb_min_dist_many_queries(qmat[:, head], lo[:, head], hi[:, head]) > rcol
    n_prefix = int(pruned.sum())
    n_refine = 0
    qi, rj = np.nonzero(~pruned)
    if qi.size:
        q_tail = qmat[qi][:, tail]
        gaps = np.maximum(
            np.maximum(lo[rj][:, tail] - q_tail, q_tail - hi[rj][:, tail]), 0.0
        ).max(axis=1)
        extra = gaps > (r[qi] if r.ndim else r)
        pruned[qi[extra], rj[extra]] = True
        n_refine = int(extra.sum())
    if counters is not None:
        counters.add_prune_stages(prefix=n_prefix, refine=n_refine)
    return pruned


def mbb_validate_mask_many_queries(query_pivot_matrix, lows, highs, radius) -> np.ndarray:
    """Lemma 4 validate mask over (queries x regions).

    Entry (i, j) is True when every object inside region j is provably an
    answer of query i (no fetch, no distance computation needed).
    """
    r = np.asarray(radius, dtype=np.float64)
    return mbb_max_dist_many_queries(query_pivot_matrix, lows, highs) <= (
        r[:, None] if r.ndim else r
    )
