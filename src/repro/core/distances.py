"""Metric distance functions.

Each distance is a callable object with three entry points:

* ``d(a, b)`` -- a single distance between two raw objects,
* ``d.one_to_many(q, objects)`` -- a vectorised column of distances from one
  query object to a batch (used heavily by table-based indexes), and
* ``d.pairwise(X, Y)`` -- a full distance matrix (used by pivot selection and
  by the batch query layer's query-pivot matrices; vectorised for the L_p
  family, Hamming, and quadratic-form distances).

All of them must agree exactly; tests assert this.  The counting of distance
computations happens one level up, in
:class:`~repro.core.metric_space.MetricSpace` -- the functions here are pure.

The suite mirrors Table 2 of the paper: ``L2`` (LA), edit distance (Words),
``L1`` (Color) and ``LInf`` (Synthetic), plus the general ``LP`` family,
Hamming distance, and a positive-definite quadratic-form distance, all of
which are proper metrics.

Edit distance is the one metric here that numpy does not vectorise, and on
Words it is nearly all of the CPU time, so it has a kernel of its own: the
Myers/Hyyro bit-vector recurrence on Python integers, with the objects of a
batch packed side by side as lanes of one big integer (see
:class:`EditDistance`).  The quadratic dynamic program it replaced lives on
as ``reference_levenshtein`` in ``tests/test_distances.py``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from functools import partial
from itertools import repeat, zip_longest
from operator import itemgetter

import numpy as np

__all__ = [
    "MetricDistance",
    "LPDistance",
    "L1",
    "L2",
    "LInf",
    "EditDistance",
    "HammingDistance",
    "QuadraticFormDistance",
    "DiscreteMetricAdapter",
]


class MetricDistance:
    """Base class for metric distance functions.

    Subclasses must implement :meth:`__call__`; the batch methods have
    generic (slow) fallbacks that subclasses override with vectorised
    versions where possible.

    Attributes:
        name: Human-readable name used in reports.
        is_discrete: True when the distance domain is integral (edit
            distance, Hamming) -- BKT/FQT require a discrete metric.
        is_ptolemaic: True when the metric satisfies Ptolemy's inequality
            ``d(q,o) * d(p,s) <= d(q,p) * d(o,s) + d(q,s) * d(o,p)``, which
            licenses the Ptolemaic lower bound in
            :mod:`~repro.core.pivot_filter`.  Metrics embeddable in a
            Hilbert space qualify (L2, and PSD quadratic forms via
            ``A = L^T L``); L1/Linf/Hamming/edit do not.
    """

    name: str = "metric"
    is_discrete: bool = False
    is_ptolemaic: bool = False

    def __call__(self, a, b) -> float:
        raise NotImplementedError

    def one_to_many(self, q, objects) -> np.ndarray:
        """Distances from ``q`` to each element of ``objects``."""
        return np.asarray([self(q, o) for o in objects], dtype=np.float64)

    def pairwise(self, xs, ys) -> np.ndarray:
        """Full |xs| x |ys| distance matrix."""
        rows = [self.one_to_many(x, ys) for x in xs]
        if not rows:  # np.stack refuses an empty list
            return np.empty((0, len(ys)), dtype=np.float64)
        return np.stack(rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.__class__.__name__}(name={self.name!r})"


# Elements of the buffer ``LPDistance.one_to_many`` walks a large batch of
# 8 or more coordinates through: 256 KB, 116 rows at dim 282.  Whole, a
# 20 000 x 282 column materialises two 45 MB temporaries and costs 34 / 46 /
# 37 ms for L1 / L2 / Linf on a 2-core x86 VM; ms a column at 8 / 16 / 32 /
# 64 / 128 K elements (fastest of three processes): 11.9 / 10.2 / 9.3 / 9.0 /
# 9.5 for L1, 13.7 / 15.0 / 11.0 / 10.9 / 10.3 for L2, 13.6 / 10.9 / 10.0 /
# 11.5 / 10.6 for Linf -- flat from 32 K on, so the smallest of those.
_BLOCK_ELEMENTS = 32 * 1024
# Vectors of fewer coordinates than this take the column path: below 8
# elements numpy sums a row left to right, which is the order of a running
# sum over the coordinate columns, so both give the same floats.
_COLUMN_DIMS = 8


class LPDistance(MetricDistance):
    """Minkowski L_p norm over numeric vectors, ``p >= 1``.

    ``p = inf`` (``math.inf`` or the string ``"inf"``) gives the Chebyshev
    distance used by the paper's Synthetic dataset.

    ``one_to_many`` has two paths, and both return the floats of
    ``__call__``.  Below ``_COLUMN_DIMS`` = 8 coordinates it accumulates one
    coordinate column at a time (``acc = |x0 - q0|^p; acc += |x1 - q1|^p
    ...``, then the root; ``np.maximum`` for L_inf): a row reduction, and a
    difference broadcast along rows, spend one inner-loop call per row of two
    to seven elements.  L2 on LA's 2-d vectors, us a column at n = 1 / 10 /
    100 / 1 000 / 20 000 (fastest of three processes, 2-core x86 VM): 5.5 /
    5.3 / 7.4 / 29 / 540 by rows, 5.0 / 4.8 / 4.8 / 8.3 / 73 by columns.
    From 8 coordinates on it reduces rows, a block of ``_BLOCK_ELEMENTS``
    at a time.
    """

    def __init__(self, p: float):
        if isinstance(p, str):
            p = float(p)
        if p < 1:
            raise ValueError(f"L_p is only a metric for p >= 1, got p={p}")
        self.p = p
        self.name = "Linf" if np.isinf(p) else f"L{p:g}"
        # Euclidean space is Ptolemaic; no other L_p (p != 2) is.
        self.is_ptolemaic = p == 2

    def __call__(self, a, b) -> float:
        diff = np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))
        if np.isinf(self.p):
            return float(diff.max()) if diff.size else 0.0
        if self.p == 1:
            return float(diff.sum())
        if self.p == 2:
            return float(np.sqrt((diff * diff).sum()))
        # the root through the ufunc the batch forms take it with (a float's
        # ``**`` rounds differently in the last place)
        return float(np.power((diff**self.p).sum(), 1.0 / self.p))

    def one_to_many(self, q, objects) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        mat = np.asarray(objects, dtype=np.float64)
        if mat.ndim == 1:  # one object, or none
            mat = mat.reshape(1, -1) if mat.size else mat.reshape(0, q.size)
        n, dim = mat.shape
        if dim < _COLUMN_DIMS:
            return self._column_norms(mat, q)
        step = max(1, _BLOCK_ELEMENTS // dim)
        if n <= step:
            # one block needs no buffer and no loop.  Row-major whatever the
            # layout of ``objects``: a row of a column-major difference sums
            # in another order than ``__call__``
            diff = np.subtract(mat, q, order="C")
            return self._row_norms(np.abs(diff, out=diff))
        # a block of rows at a time through one buffer that stays in cache;
        # every row is reduced exactly as above, so the floats are the same
        out = np.empty(n, dtype=np.float64)
        buf = np.empty((step, dim), dtype=np.float64)
        for lo in range(0, n, step):
            part = mat[lo : lo + step]
            diff = buf[: part.shape[0]]
            np.subtract(part, q, out=diff)
            np.abs(diff, out=diff)
            out[lo : lo + step] = self._row_norms(diff)
        return out

    def _column_norms(self, mat: np.ndarray, q: np.ndarray) -> np.ndarray:
        """The norms of ``mat - q`` below 8 coordinates, a coordinate at a
        time: ``|mat - q|`` is taken transposed (a contiguous row a
        coordinate, one temporary the size of ``mat``), raised to ``p``, and
        its rows are summed left to right (a running max for L_inf)."""
        n, dim = mat.shape
        if not dim:
            return np.zeros(n, dtype=np.float64)
        diff = np.subtract(mat.T, q.reshape(-1, 1), order="C")
        p = self.p
        if p == 2:  # a difference squares to the square of its magnitude
            np.multiply(diff, diff, out=diff)
        else:
            np.abs(diff, out=diff)
            if p != 1 and not math.isinf(p):
                np.power(diff, p, out=diff)
        accumulate = np.maximum if math.isinf(p) else np.add
        acc = diff[0] if dim == 1 else accumulate(diff[0], diff[1])
        for row in diff[2:]:
            accumulate(acc, row, out=acc)
        if p == 1 or math.isinf(p):
            return acc
        if p == 2:
            return np.sqrt(acc, out=acc)
        return np.power(acc, 1.0 / p, out=acc)

    def _row_norms(self, diff: np.ndarray) -> np.ndarray:
        """The norm of each row of ``|a - b|`` (which it may overwrite)."""
        if np.isinf(self.p):
            return diff.max(axis=1)
        if self.p == 1:
            return diff.sum(axis=1)
        if self.p == 2:
            return np.sqrt(np.multiply(diff, diff, out=diff).sum(axis=1))
        return np.power(diff, self.p, out=diff).sum(axis=1) ** (1.0 / self.p)

    def pairwise(self, xs, ys) -> np.ndarray:
        """Rows of :meth:`one_to_many`, looped over the shorter side (the
        metric is symmetric, and ``|a - b|`` and ``|b - a|`` are one float)."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.shape[0] > ys.shape[0]:
            return np.ascontiguousarray(self.pairwise(ys, xs).T)
        out = np.empty((xs.shape[0], ys.shape[0]), dtype=np.float64)
        for row, x in zip(out, xs):
            row[:] = self.one_to_many(x, ys)
        return out


L1 = LPDistance(1)
L2 = LPDistance(2)
LInf = LPDistance(float("inf"))
L1.name, L2.name, LInf.name = "L1", "L2", "Linf"


# Batches smaller than this run one lane at a time: transposing a batch is
# not repaid below it (measured on Words: 6.2 us a pair packed against 5.5 one
# by one at 8 objects, 5.4 against 5.5 at 10, 4.7 against 5.4 at 12, 2.7
# against 5.1 at 32).
_SCALAR_BELOW = 10
# Lanes per big integer.  A batch is sorted by length and walked in chunks of
# this many objects: few enough that a chunk's texts are about equally long
# (a lane whose text has ended still rides along to the chunk's last column)
# and that temporaries stay small whatever the batch size, enough to amortise
# a step's fixed cost (measured us a pair at 32 / 64 / 128 / 256 / 512 lanes:
# 1.35 / 1.04 / 0.86 / 0.79 / 0.81 for 2 500 objects, 1.37 / 1.20 / 1.10 /
# 1.15 / 1.42 for 512).
_LANE_CHUNK = 128
# A chunk's lane count is rounded up to a multiple of this with empty texts.
# Unrounded, batches of every size between 10 and 128 make integers, byte
# strings and tuples of every size in turn, and the allocators keep a free
# list per size: tree builds and leaf flushes left ~0.1 MB more resident
# (spine setup_rss_mb on words_tree_seq: +5 % over the dynamic program
# unrounded, +1.6 % rounded to 16 or 32, mean of six heap states each).  16
# costs batches of 10-30 objects under 10 % of their time; 32 costs 20-50 %.
# (At least 2: an ``itemgetter`` of a single item does not return a tuple.)
_LANE_STEP = 16

_from_bytes = int.from_bytes
# stands in for the items of a text that has ended: it matches nothing
_PAD = object()


def _match_masks(pattern) -> dict:
    """``masks[item]``: bit ``i`` is set where ``pattern[i] == item``."""
    masks: dict = {}
    bit = 1
    for item in pattern:
        masks[item] = masks.get(item, 0) | bit
        bit <<= 1
    return masks


def _advance(m: int, nbytes: int, size: int, eqs, live) -> int:
    """The Myers/Hyyro recurrence, over every lane of a packed integer at once.

    Column ``j`` of the Levenshtein table between a pattern of ``m`` items
    and a text is held as two ``m``-bit vectors of vertical differences
    (``pv``: +1, ``mv``: -1); one step derives the horizontal differences
    (``ph``, ``mh``) from the column's match word ``eq``, and from them the
    next column.  Shifted up by one row they have the table's top row (+1
    everywhere) at bit 0 and row ``m``, whose difference is what the
    distance moves by, at bit ``m`` -- the lane's spare bit, which also takes
    the carry of the addition, so lanes never touch each other.

    Args:
        m: pattern length.
        nbytes: lane width in bytes, more than ``m`` bits (any width will do
            for a single lane).
        size: number of lanes.
        eqs: the packed match word of each column.
        live: for each column, how many texts have not ended -- they hold the
            first lanes.  The other lanes keep stepping, on a match word of
            zeros, but their distance no longer moves.

    Returns:
        The distances, one per lane, packed ``nbytes`` apart.
    """
    unit = (1).to_bytes(nbytes, "little")
    ones = _from_bytes(unit * size, "little")
    lanes = ((1 << m) - 1) * ones
    score = m * ones
    pv, mv = lanes, 0
    active, running = ones, size
    for eq, count in zip(eqs, live):
        if count != running:  # texts have ended: their lanes' distances stop moving
            active, running = _from_bytes(unit * count, "little"), count
        xv = eq | mv
        xh = ((((eq & pv) + pv) ^ pv) | eq) & lanes
        ph = ((mv | ((xh | pv) ^ lanes)) << 1) | ones
        mh = (pv & xh) << 1
        score += ((ph >> m) & active) - ((mh >> m) & active)
        pv = (mh | ((xv | ph) ^ lanes)) & lanes
        mv = ph & xv
    return score


def _scalar_row(pattern, texts) -> list:
    """Distances from ``pattern`` to each text, one lane at a time."""
    get = _match_masks(pattern).get
    return [
        _advance(len(pattern), 1, 1, [get(item, 0) for item in text], repeat(1))
        for text in texts
    ]


def _lane_scores(pattern, limit: int, size: int, gathers, live):
    """Distances from ``pattern`` to the ``size`` texts of one transposed chunk,
    in lane order.

    ``limit`` bounds every distance (the longest sequence on either side), so
    a lane has room for its score; ``gathers`` and ``live`` are the chunk as
    :func:`_lane_rows` lays it out.
    """
    m = len(pattern)
    nbytes = (max(m + 1, limit.bit_length()) + 7) // 8
    # item -> its match mask as one lane's bytes; all zeros for any other item
    table = defaultdict(
        partial(bytes, nbytes),
        {item: mask.to_bytes(nbytes, "little") for item, mask in _match_masks(pattern).items()},
    )
    eqs = (_from_bytes(b"".join(gather(table)), "little") for gather in gathers)
    buf = _advance(m, nbytes, size, eqs, live).to_bytes(size * nbytes, "little")
    if limit < 256:
        return buf[::nbytes]
    return [_from_bytes(buf[at : at + nbytes], "little") for at in range(0, len(buf), nbytes)]


def _lane_rows(patterns: list, texts: list) -> list:
    """Distances from each pattern to every text, the texts packed as lanes.

    Lanes are handed out longest text first and walked in chunks of
    ``_LANE_CHUNK`` (the last one filled up to a multiple of ``_LANE_STEP``
    with empty texts).  A chunk is transposed once for all patterns: column
    ``j`` becomes an ``itemgetter`` of every lane's ``j``-th item (``_PAD``
    where the text has ended) -- applied to a pattern's table it fetches the
    column's match masks in one C call, several times faster than a lookup
    per item -- and ``live[j]`` counts the texts longer than ``j``, which
    hold the first lanes.
    """
    lens = [len(text) for text in texts]
    order = sorted(range(len(texts)), key=lens.__getitem__, reverse=True)
    limit = max([lens[order[0]], *map(len, patterns)])
    rows = [[0] * len(texts) for _ in patterns]
    for lo in range(0, len(order), _LANE_CHUNK):
        ids = order[lo : lo + _LANE_CHUNK]
        part = [texts[i] for i in ids]
        part += [()] * (-len(part) % _LANE_STEP)
        gathers = [itemgetter(*col) for col in zip_longest(*part, fillvalue=_PAD)]
        ends = [lens[i] for i in reversed(ids)]  # ascending
        live = [len(ids) - bisect_right(ends, j) for j in range(len(gathers))]
        for pattern, row in zip(patterns, rows):
            for i, score in zip(ids, _lane_scores(pattern, limit, len(part), gathers, live)):
                row[i] = score
    return rows


def _edit_matrix(patterns: list, texts: list) -> np.ndarray:
    """|patterns| x |texts| edit distances, lanes laid along ``texts``."""
    if len(texts) < _SCALAR_BELOW:
        rows = [_scalar_row(pattern, texts) for pattern in patterns]
    else:
        rows = _lane_rows(patterns, texts)
    return np.asarray(rows, dtype=np.float64).reshape(len(patterns), len(texts))


class EditDistance(MetricDistance):
    """Levenshtein edit distance over sequences of hashable items (unit costs).

    Unit insert/delete/substitute costs make it a proper metric on strings
    (and on tuples or lists of hashable items); its range is the integers, so
    :attr:`is_discrete` is True (the paper uses it for the Words dataset with
    MaxD = 34).

    **Algorithm.**  The bit-vector formulation of Myers (J. ACM 1999) in
    Hyyro's variant for the global distance.  One sequence, the *pattern*, is
    compiled into match masks ``masks[item]`` (bit ``i`` set where
    ``pattern[i] == item``); the other, the *text*, is consumed one item per
    step, and a step is about twenty ``& | ^ + <<`` operations on integers of
    ``|pattern|`` bits (:func:`_advance`).  Python integers have no width, so
    neither side has a length limit, and one pair costs ``|text|`` integer
    steps instead of ``|pattern| * |text|`` interpreted table cells.

    **Lanes.**  ``one_to_many(q, objects)`` compiles ``q`` once and advances
    the objects in lock-step inside *one* integer, a lane of
    ``8 * ceil(max(m + 1, bits(longest)) / 8)`` bits per object: ``m = |q|``
    bits of state, a spare bit above them that takes the carry of the
    recurrence's one addition, and room for the lane's distance when the
    packed scores are read back.  Complements are ``x ^ lanes`` (never ``~x``,
    which would be negative and unbounded), and one mask after the addition
    and one on the new column keep every lane's state inside its ``m`` bits.
    For ``q = "cart"`` and the batch ``["cat", "cats", "dog"]``, 8-bit lanes,
    longest object first::

                   lane 2 "dog"      lane 1 "cat"      lane 0 "cats"
        bit        7..5  4  3210     7..5  4  3210     7..5  4  3210
                   ---  cry trac     ---  cry trac     ---  cry trac
        column 0   eq["d"] = 0000    eq["c"] = 0001    eq["c"] = 0001    live 3
        column 1   eq["o"] = 0000    eq["a"] = 0010    eq["a"] = 0010    live 3
        column 2   eq["g"] = 0000    eq["t"] = 1000    eq["t"] = 1000    live 3
        column 3   eq[pad] = 0000    eq[pad] = 0000    eq["s"] = 0000    live 1

    A column's match word is one ``int.from_bytes(b"".join(...))`` over the
    masks of the items the objects have at that position, fetched from the
    pattern's table by one ``itemgetter`` call.  The batch is sorted longest
    object first and walked in chunks of ``_LANE_CHUNK`` lanes, so a chunk's
    objects are about equally long and those still running at any column are
    its first lanes: a lane whose text has ended keeps stepping on zeros to
    the chunk's last column, but only the running lanes' distances are
    updated in the packed scores, which one ``to_bytes`` reads back at the
    end.  Batches below ``_SCALAR_BELOW`` objects run the same recurrence one
    lane at a time (the set-up of a packed batch is not repaid).
    ``pairwise`` lays the lanes along its longer side and transposes each
    chunk once for all rows.

    **Cost.**  About 6 us for one pair of Words (9-13 letters) called alone,
    where the two-row dynamic program took 30-40; packed, 2.7 us a pair at 32
    objects, 1.8 at 100, 1.1 at 512, 0.9 at 2 500.  Most of a packed step is
    the fetch of the column's masks, not the arithmetic.

    **Why Python integers, not numpy.**  A ``uint64``-lane numpy form of the
    same recurrence was measured when this kernel was sized: it caps patterns
    at 63 items, wins only above a few hundred objects per call (tree leaves
    and kNN flushes are 10-300 objects), and first touching numpy's
    ``uint64`` take / bit-op / invert loops maps enough new code to lift the
    spine's ``setup_rss_mb`` on ``words_tree_seq`` by 10-60 % against a bound
    of 10 %.  No numpy routine runs between compiling the masks and reading
    the scores back.

    All three entry points share :func:`_advance` and return the same floats
    as the dynamic program did; the kernel keeps no state on the instance, so
    one ``EditDistance()`` may be called from many threads.
    """

    name = "edit"
    is_discrete = True

    def __call__(self, a, b) -> float:
        # masks for the longer sequence, one integer step per item of the shorter
        if len(a) < len(b):
            a, b = b, a
        return float(_scalar_row(a, (b,))[0])

    def one_to_many(self, q, objects) -> np.ndarray:
        return _edit_matrix([q], list(objects))[0]

    def pairwise(self, xs, ys) -> np.ndarray:
        xs, ys = list(xs), list(ys)
        if len(xs) > len(ys):  # the metric is symmetric: lanes along the longer side
            return np.ascontiguousarray(_edit_matrix(ys, xs).T)
        return _edit_matrix(xs, ys)


class HammingDistance(MetricDistance):
    """Hamming distance over equal-length sequences (strings or vectors)."""

    name = "hamming"
    is_discrete = True

    def __call__(self, a, b) -> float:
        if len(a) != len(b):
            raise ValueError(
                f"Hamming distance requires equal lengths, got {len(a)} and {len(b)}"
            )
        return float(sum(1 for x, y in zip(a, b) if x != y))

    def one_to_many(self, q, objects) -> np.ndarray:
        try:
            mat = np.asarray(objects)
            qv = np.asarray(q)
            if mat.ndim == 2 and mat.shape[1] == qv.shape[0]:
                return (mat != qv).sum(axis=1).astype(np.float64)
        except (ValueError, TypeError):
            pass
        return super().one_to_many(q, objects)

    def pairwise(self, xs, ys) -> np.ndarray:
        """Vectorised |xs| x |ys| matrix via one broadcast comparison."""
        try:
            xmat = np.asarray(xs)
            ymat = np.asarray(ys)
            if (
                xmat.ndim == 2
                and ymat.ndim == 2
                and xmat.shape[1] == ymat.shape[1]
            ):
                return (
                    (xmat[:, None, :] != ymat[None, :, :]).sum(axis=2).astype(np.float64)
                )
        except (ValueError, TypeError):
            pass
        return super().pairwise(xs, ys)


class QuadraticFormDistance(MetricDistance):
    """Quadratic-form distance ``sqrt((a-b)^T A (a-b))`` for SPD matrix ``A``.

    MPEG-7 colour histograms are classically compared with quadratic-form
    distances; included as the "expensive distance" representative (the paper
    motivates pivot filtering by the cost of such functions).
    """

    name = "quadratic-form"
    # the constructor enforces A symmetric positive definite, so the metric
    # is an isometric embedding of Euclidean space (A = L^T L) -- Ptolemaic
    is_ptolemaic = True

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        if not np.allclose(matrix, matrix.T):
            raise ValueError("matrix must be symmetric")
        eigvals = np.linalg.eigvalsh(matrix)
        if eigvals.min() <= 0:
            raise ValueError("matrix must be positive definite for a metric")
        self.matrix = matrix

    def _kernel(self, diff: np.ndarray) -> np.ndarray:
        """sqrt of the quadratic form per row.  Single code path for every
        entry point: the batch query layer requires ``d(a, b)``,
        ``one_to_many`` and ``pairwise`` to agree *bitwise*, and separate
        einsum contractions differ in the last ULP."""
        return np.sqrt(np.einsum("ij,jk,ik->i", diff, self.matrix, diff))

    def __call__(self, a, b) -> float:
        diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
        return float(self._kernel(diff.reshape(1, -1))[0])

    def one_to_many(self, q, objects) -> np.ndarray:
        diff = np.asarray(objects, dtype=np.float64) - np.asarray(q, dtype=np.float64)
        return self._kernel(np.atleast_2d(diff))

    def pairwise(self, xs, ys) -> np.ndarray:
        """Vectorised |xs| x |ys| matrix, one kernel call per query row."""
        ymat = np.atleast_2d(np.asarray(ys, dtype=np.float64))
        return np.stack(
            [self._kernel(ymat - x) for x in np.atleast_2d(np.asarray(xs, dtype=np.float64))]
        )


class DiscreteMetricAdapter(MetricDistance):
    """Wrap a continuous metric, rounding distances up to whole numbers.

    Rounding *up* (ceiling) preserves the triangle inequality's usefulness for
    pruning in discrete-domain structures: ceil(d) is itself a metric when d
    is.  Used to run BKT/FQT on datasets whose natural distances are
    continuous (the paper instead restricts those indexes to Words and the
    integer-valued Synthetic dataset; we support both routes).
    """

    is_discrete = True

    def __init__(self, inner: MetricDistance):
        self.inner = inner
        self.name = f"ceil-{inner.name}"

    def __call__(self, a, b) -> float:
        return float(np.ceil(self.inner(a, b)))

    def one_to_many(self, q, objects) -> np.ndarray:
        return np.ceil(self.inner.one_to_many(q, objects))

    def pairwise(self, xs, ys) -> np.ndarray:
        return np.ceil(self.inner.pairwise(xs, ys))
