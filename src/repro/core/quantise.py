"""Two quantisers for pivot-distance codes (the paper's Section 5.4).

MVPT / VPT leaf path codes, FQA signatures and the SPB-tree's grid behind
its Hilbert keys store a pivot distance d(o, p) as the *cell* it fell in.
Each index keeps its own fitting policy and shares the arithmetic:
encoding, cell bounds, Lemma 1 gap tables.  Both end cells are open, so a
distance met after fitting (an insert past the cells) still decodes to an
interval that holds it, and every encode checks that each code's interval
holds its distance.

* :class:`Frame` -- equal cells of one width.  A frame's fields may be
  arrays: MVPT codes every object within the band of its own path
  (:meth:`Frame.band`), one frame per (object, level), and encodes and
  decodes them all in one call.  FQA's signatures share one frame.
* :class:`Marks` -- per pivot column, sorted cell edges that refine the
  uniform grid over the build's range (:meth:`Frame.uniform`): each
  uniform cell holding build distances keeps its edges, and the edges
  left over split those cells in proportion to the distances each holds,
  at equal ranks (a VA-file's equally populated marks, Weber et al., VLDB
  1998).  No build distance decodes to a wider interval than on the
  uniform grid, so no Lemma 1 / Lemma 4 bound loosens; on a discrete
  metric whose span fits, one cell a whole distance.  The SPB-tree's grid:
  the same 2^bits cells a pivot, the spare ones spent where the objects
  are.  A uniform frame is a set of marks too (:meth:`Marks.of_frame`),
  which is how a file written on a uniform grid converts.
"""

from __future__ import annotations

import bisect
import math
from typing import NamedTuple

import numpy as np

__all__ = ["Frame", "Marks", "gap_tables"]

# distances a frame encodes at a time: whole-table temporaries were a build's
# peak allocation (measured while the SPB-tree coded through a frame: half a
# megabyte more heap at n = 20 000, and 8 192-distance blocks read 0.59 x
# what an LA n = 5 000 build keeps)
_BLOCK = 6144


class Frame(NamedTuple):
    """``cells`` equal cells of ``width`` from ``low``: cell ``c`` holds the
    distances from its low edge ``low + width * c`` up to, not including,
    the next edge, and decodes to the closed interval between the two.  On
    a ``discrete`` metric (whole-number distances) it decodes to the
    integers inside those edges, so a width of 1 from a whole ``low`` is
    one distance a cell.  The end cells are open.  Codes take the smallest
    unsigned dtype that holds ``cells``."""

    low: float
    width: float
    discrete: bool
    cells: int = 256

    @classmethod
    def uniform(cls, top: float, discrete: bool, cells: int = 256) -> "Frame":
        """``cells - 1`` equal cells from 0 to just past ``top``, the largest
        distance (-inf for none), and the top cell above: the grid the
        SPB-tree kept before its marks, which :meth:`Marks.fit` refines."""
        top = max(top, 1e-9) if top > -np.inf else 1.0
        return cls(0.0, float(top) / (cells - 1) * (1 + 1e-9), discrete, cells)

    @classmethod
    def band(cls, low, high, discrete: bool) -> "Frame":
        """256 cells over each band ``[low, high]`` (numbers or arrays); on
        a discrete metric, a band that fits a byte has a cell a distance,
        the code being the distance less ``low``."""
        span = high - low
        width = span / 256
        if discrete and np.ndim(span):
            width = np.where(span <= 255, 1.0, width)
        elif discrete and span <= 255:  # one band, as numbers (an insert)
            width = 1.0
        return cls(low, width, discrete)

    def bounds(self, codes, ends=(-np.inf, np.inf)) -> tuple[np.ndarray, np.ndarray]:
        """Closed ``(low, high)`` of each code's cell; the end cells are open,
        reaching ``ends`` (what else bounds the distances, if anything)."""
        codes = np.asarray(codes)
        cell = codes.astype(np.float64)
        low = self.low + self.width * cell
        high = self.low + self.width * (cell + 1.0)
        discrete = self.discrete
        if discrete is not False and np.any(discrete):
            # the integers at or past the low edge and before the high one
            # (a cell holding none decodes to its low end); ``discrete`` is
            # one flag, or one a frame for :func:`gap_tables`
            whole_low = np.ceil(low)
            whole_high = np.maximum(np.ceil(high) - 1.0, whole_low)
            if np.ndim(discrete):
                whole_low = np.where(discrete, whole_low, low)
                whole_high = np.where(discrete, whole_high, high)
            low, high = whole_low, whole_high
        low = np.where(codes == 0, ends[0], low)
        high = np.where(codes == self.cells - 1, ends[1], high)
        return low, high

    def encode(self, dists) -> np.ndarray:
        """The cell of each distance: the last whose low edge it reaches,
        the end cells open.

        The cell is ``floor((d - low) / width)``, clipped, then stepped
        until the distance lies between the cell's edges (rounding leaves
        it a cell off at most, but for edges a rounding apart), so every
        code is the one ``searchsorted`` over the edges gives.  A frame of
        zero width places each distance at or past ``low`` in the top cell.
        Fields that are arrays code the distance they broadcast to.  Raises
        unless every decoded interval contains its distance: a code that
        excluded it would let a Lemma 1 filter drop a true answer.
        """
        dists = np.asarray(dists, dtype=np.float64)
        top = self.cells - 1
        # array fields, one value a distance, are cut into blocks with them
        fields = [
            np.broadcast_to(field, dists.shape).reshape(-1) if np.ndim(field) else field
            for field in self[:3]
        ]
        codes = np.empty(dists.shape, dtype=np.min_scalar_type(top))
        flat = dists.reshape(-1)
        for start in range(0, flat.size, _BLOCK):
            part = slice(start, start + _BLOCK)
            block = flat[part]
            lo, w, discrete = (f[part] if np.ndim(f) else f for f in fields)
            guess = np.divide(block - lo, w, out=np.zeros(len(block)), where=w > 0)
            np.floor(guess, out=guess)
            if np.any(w == 0):  # every distance at or past its low end is on top
                guess = np.where(w > 0, guess, np.where(block >= lo, top, 0))
            # fmax / fmin, unlike clip, send NaN to a bound; in place, and the
            # guess let go before the cells are checked
            cells = np.fmin(np.fmax(guess, 0, out=guess), top, out=guess).astype(np.intp)
            del guess
            while True:  # rounding can leave a distance outside its cell
                down = (cells > 0) & (block < lo + w * cells)
                up = (cells < top) & (block >= lo + w * (cells + 1))
                if not (down.any() or up.any()):
                    break
                cells += up.astype(np.intp) - down
            low_end, high_end = Frame(lo, w, discrete, self.cells).bounds(cells)
            if not ((low_end <= block) & (block <= high_end)).all():
                raise AssertionError(f"frame {self} lost a distance among {dists!r}")
            codes.reshape(-1)[part] = cells
        return codes

    def encode_one(self, dist: float) -> int:
        """:meth:`encode` for one distance, on a frame of numbers, without
        arrays."""
        lo, width, discrete, cells = self
        top = cells - 1
        if dist >= lo + width * top:
            cell = top
        elif dist < lo + width:
            cell = 0
        else:  # inside the frame: the quotient is off by a rounding at most
            cell = int((dist - lo) // width)
            while dist < lo + width * cell:
                cell -= 1
            while dist >= lo + width * (cell + 1):
                cell += 1
        low, high = lo + width * cell, lo + width * (cell + 1)
        if discrete:
            low = math.ceil(low)
            high = max(math.ceil(high) - 1, low)
        if (cell > 0 and dist < low) or (cell < top and dist > high):
            raise AssertionError(f"frame {self} lost the distance {dist!r}")
        return cell


class Marks:
    """Per pivot column, ``cells`` sorted cell edges: ``edges[p, c]`` is the
    low edge of cell ``c`` of column ``p``, which holds the distances from it
    up to, not including, the next edge, and decodes to the closed interval
    between the two -- on a ``discrete`` metric to the integers inside
    them, as :class:`Frame` does.  The end cells are open.  Equal edges make
    empty cells: a distance on such an edge goes to the last of them.

    Decoding is a lookup: the cells' decoded lows and highs are two flat
    tables made once, and a code ``c`` of column ``p`` reads entry
    ``p * cells + c``.  The same tables and each column's edges are also
    held as buffers a Python float reads from (``memoryview``s, no copy),
    for the one-row encode of an insert or a delete.
    """

    __slots__ = ("edges", "discrete", "_lows", "_highs", "_offsets", "_dtype", "_scalar")

    def __init__(self, edges, discrete: bool):
        self.edges = edges = np.asarray(edges, dtype=np.float64)
        self.discrete = bool(discrete)
        lows, highs = _decoded(edges, self.discrete)
        self._lows, self._highs = lows.reshape(-1), highs.reshape(-1)
        self._offsets = np.arange(0, edges.size, edges.shape[1], dtype=np.intp)
        self._dtype = np.min_scalar_type(self.cells - 1)
        self._scalar = (
            [memoryview(np.ascontiguousarray(column)) for column in edges],
            memoryview(self._lows),
            memoryview(self._highs),
        )

    def __reduce__(self):
        return Marks, (self.edges, self.discrete)

    @property
    def cells(self) -> int:
        return self.edges.shape[1]

    @classmethod
    def fit(cls, table, bits: int, discrete: bool) -> tuple["Marks", np.ndarray]:
        """Marks for the columns of the ``n x l`` build ``table``, and the
        table's codes.

        The marks refine the uniform grid (:meth:`Frame.uniform`, the
        ``2^bits - 1`` equal cells from 0 past the table's largest
        distance): every uniform cell holding a column's build distances
        keeps its edges, and the edges left over split those cells, each
        earning a count in proportion to the distances it holds, at the
        distances of equal rank within it.  So each build distance decodes
        to an interval inside its uniform cell's -- a Lemma 1 / Lemma 4
        bound never loosens -- and the cells are spent where the objects
        are.  The top cell is left to inserts past the build: it starts just
        above the column's largest distance (its next whole number on a
        discrete metric).  On a discrete metric whose distances span fewer
        whole numbers than the cells under it, each holds one whole
        distance from the least.  The codes come by rank: one ``argsort`` a
        column, and each cell's run of the sorted distances written back
        through it; a column is checked, its runs against their decoded
        cells, before the next is sorted.
        """
        table = np.asarray(table, dtype=np.float64)
        n, l = table.shape
        cells = 1 << bits
        uniform = Frame.uniform(table.max(initial=-np.inf), discrete, cells)
        uniform_edges = uniform.width * np.arange(cells, dtype=np.float64)
        edges = np.empty((l, cells))
        codes = np.empty((l, n), dtype=np.min_scalar_type(cells - 1))
        numbers = np.arange(cells)
        for p, column in enumerate(table.T):
            order = np.argsort(column)
            ranked = column[order]
            edges[p] = _refined(ranked, uniform_edges, discrete)
            starts = np.searchsorted(ranked, edges[p], side="left")
            runs = np.diff(starts, append=n)
            codes[p, order] = np.repeat(numbers, runs)
            # a run is sorted: its cell holds it when it holds both its ends
            held = np.flatnonzero(runs)
            first, last = ranked[starts[held]], ranked[starts[held] + runs[held] - 1]
            low, high = _decoded(edges[p], discrete)
            if not ((low[held] <= first) & (last <= high[held])).all():
                raise AssertionError(f"marks lost a distance among {table!r}")
        return cls(edges, discrete), np.ascontiguousarray(codes.T)

    @classmethod
    def of_frame(cls, frame: Frame, columns: int) -> "Marks":
        """``frame``'s cells on each of ``columns`` columns, exactly: the
        edges ``low + width * c`` are the floats :meth:`Frame.bounds`
        computes, so codes and bounds come out bit for bit."""
        edges = frame.low + frame.width * np.arange(frame.cells, dtype=np.float64)
        return cls(np.tile(edges, (columns, 1)), frame.discrete)

    def bounds(self, codes) -> tuple[np.ndarray, np.ndarray]:
        """Closed ``(low, high)`` of each code's cell, codes ``(..., l)``;
        the end cells are open."""
        at = self._offsets + codes
        return self._lows.take(at), self._highs.take(at)

    def encode(self, dists) -> np.ndarray:
        """The cell of each distance, ``dists`` ``(..., l)``: the last whose
        low edge it reaches, the end cells open.  Raises unless every
        decoded interval contains its distance: a code that excluded it
        would let a Lemma 1 filter drop a true answer.

        One row (an insert's or a delete's) takes :meth:`_encode_row`: the
        same codes, 8 us where the array path costs ~40 (LA, 5 pivots of
        1 024 cells, 2-core x86 VM)."""
        dists = np.asarray(dists, dtype=np.float64)
        if dists.ndim == 1:
            return self._encode_row(dists)
        codes = np.empty(dists.shape, dtype=self._dtype)
        for p, edges in enumerate(self.edges):
            cell = np.searchsorted(edges, dists[..., p], side="right") - 1
            codes[..., p] = np.maximum(cell, 0)
        low, high = self.bounds(codes)
        if not ((low <= dists) & (dists <= high)).all():
            raise AssertionError(f"marks lost a distance among {dists!r}")
        return codes

    def _encode_row(self, row) -> np.ndarray:
        """:meth:`encode` of one row on Python floats: a ``bisect_right``
        over each column's edges is the ``searchsorted`` of the array path,
        and each code's decoded interval is checked to hold its distance
        (NaN is held by none, as there)."""
        columns, lows, highs = self._scalar
        if len(row) != len(columns):
            raise ValueError(f"a row of {len(row)} distances for {len(columns)} columns")
        cells, codes = self.cells, []
        for p, (edges, dist) in enumerate(zip(columns, row.tolist())):
            code = max(bisect.bisect_right(edges, dist) - 1, 0)
            if not lows[p * cells + code] <= dist <= highs[p * cells + code]:
                raise AssertionError(f"marks lost a distance among {row!r}")
            codes.append(code)
        return np.array(codes, dtype=self._dtype)


def _decoded(edges, discrete: bool) -> tuple[np.ndarray, np.ndarray]:
    """Closed ``(low, high)`` of each cell of ``edges`` (cells on the last
    axis), the end cells open; on a ``discrete`` metric the integers at or
    past the low edge and before the high one."""
    lows = edges.copy()
    highs = np.empty_like(edges)
    highs[..., :-1], highs[..., -1] = edges[..., 1:], np.inf
    if discrete:
        np.ceil(lows, out=lows)
        highs = np.maximum(np.ceil(highs) - 1.0, lows)
    lows[..., 0], highs[..., -1] = -np.inf, np.inf
    return lows, highs


def _refined(ranked, uniform, discrete: bool) -> np.ndarray:
    """One column's edges, as :meth:`Marks.fit` places them, from its sorted
    build distances ``ranked`` and the uniform grid's low edges."""
    if not len(ranked):  # an empty build is a column of one distance, 0
        ranked = np.zeros(1)
    cells, n = len(uniform), len(ranked)
    low, high = ranked[0], ranked[-1]
    starts = np.searchsorted(ranked, uniform, side="left")
    starts[0] = 0  # cell 0 is open below
    counts = np.diff(starts, append=n)
    held = np.flatnonzero(counts)
    # the least distance past the uniform grid's open cell 0 starts a cell,
    # and cell 0 goes below it: its bound stays closed
    bottom = int(held[0] > 0)
    if discrete and high - low < cells - 1 - bottom:  # a cell a whole distance
        return low - bottom + np.arange(cells, dtype=np.float64)
    ceiling = high + 1.0 if discrete else np.nextafter(high, np.inf)
    slots = cells - 2  # the edges between the bottom cell's and the top cell's
    # the held cells' edges, but for the lowest one's low edge (the least
    # distance, or none in cell 0) and the highest one's high edge (the
    # ceiling); no sort: each list is in order as it is made
    keep = np.zeros(cells, dtype=bool)
    keep[held[1:]] = keep[held[:-1] + 1] = True
    kept = np.ceil(uniform[keep]) if discrete else uniform[keep]  # the same whole distances
    if bottom:
        kept = np.append(low, kept)
    kept = _distinct(kept)
    # the spare edges in proportion to each held cell's count, by largest
    # remainder (ties to the lower cell), at the distances of equal rank
    # within it
    share, remainder = np.divmod((slots - len(kept)) * counts[held], n)
    extra = slots - len(kept) - share.sum()  # fewer than the held cells
    if extra:
        share += _largest(remainder, extra)
    cell = np.repeat(np.arange(len(held)), share)
    rank = 1 + np.arange(len(cell)) - np.repeat(np.cumsum(share) - share, share)
    run = counts[held][cell]
    splits = ranked[starts[held][cell] + rank * run // (share[cell] + 1)]
    splits = splits[splits > low]
    # merged in order: an edge goes after the splits below it, a split after
    # the edges at or below it
    inner = np.empty(len(kept) + len(splits))
    inner[np.arange(len(kept)) + np.searchsorted(splits, kept, side="left")] = kept
    inner[np.arange(len(splits)) + np.searchsorted(kept, splits, side="right")] = splits
    inner = _distinct(inner)
    return np.concatenate([[low], inner, np.full(slots + 1 - len(inner), ceiling)])


def _largest(values, count: int) -> np.ndarray:
    """A mask of the ``count`` largest of the whole, non-negative
    ``values``, ties to the lower index: the cut found by bisection, not by a
    sort (a first sort of a few hundred entries pages in code a build keeps
    resident)."""
    low, high = 0, int(values.max()) + 1  # at least count reach low, fewer high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if np.count_nonzero(values >= mid) >= count else (low, mid)
    mask = values > low
    mask[np.flatnonzero(values == low)[: count - np.count_nonzero(mask)]] = True
    return mask


def _distinct(ordered) -> np.ndarray:
    """``ordered`` (non-decreasing) without its repeats."""
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] > ordered[:-1]
    return ordered[first]


def gap_tables(frames, dists) -> np.ndarray:
    """Lemma 1 per code, for frames of one cell count.

    ``dists[..., i]`` is d(q, p_i), the pivot of ``frames[i]``; entry
    ``[..., i, c]`` of the result lower-bounds |d(q, p_i) - d(o, p_i)| for
    every o coded ``c`` in ``frames[i]``.
    """
    columns = Frame(*np.array(frames, dtype=np.float64).T[:, :, None])  # fields l x 1
    low, high = columns.bounds(np.arange(frames[0].cells))
    dq = np.asarray(dists, dtype=np.float64)[..., None]
    return np.maximum(np.maximum(low - dq, dq - high), 0.0)


# a pivot table's codes: 2^16 cells of one step from 0
GRID_CELLS = 1 << 16
# what a code's decoded centre adds to the slack beyond its half step, in
# steps, for the float64 rounding of the bounds over it: a Ptolemaic cell
# rounds by under 4 ulps of its largest cell per unit of d(q, p_i) +
# d(q, p_j), a Lemma 1 term by one, and no cell reaches 2^16 steps; this
# is 32 ulps of 2^16 steps
_ROOM = 2.0**-32


def cell_slack(step: float) -> float:
    """What a bound over centre-decoded codes of ``step`` gives up: half a
    step, the arithmetic room, one ulp more."""
    return math.nextafter((0.5 + _ROOM) * step, math.inf)


class Grid(NamedTuple):
    """The one cell format of a pivot table (:mod:`repro.tables.store`):
    ``uint16`` codes on a uniform grid of ``step``, a power of two, from 0.
    Distance ``v`` is code ``floor(v / step)``.  On an *exact* grid (slack
    0: every distance stored sits on its code's low edge, as whole-number
    distances do on a step at most 1) a code decodes to ``c * step``;
    otherwise to its cell's centre ``(c + 1/2) * step``, and ``slack`` --
    at least :func:`cell_slack` -- covers every cell.  The step being a
    power of two makes every decode and every change of units exact."""

    step: float
    slack: float = 0.0

    @property
    def centre(self) -> float:
        """Where in its cell a code decodes, in steps."""
        return 0.5 if self.slack else 0.0

    def decode(self, codes) -> np.ndarray:
        """The ``float64`` distances ``codes`` decode to."""
        values = np.add(codes, self.centre, dtype=np.float64)
        values *= self.step
        return values

    def in_steps(self, qmat, side: float) -> np.ndarray:
        """Query distances ``qmat`` in steps, moved ``side`` centres: a
        Lemma 1 (``side`` -1) or Lemma 4 (+1) term read off raw codes this
        way, times the step, is the term over the decoded cells bit for
        bit."""
        out = np.divide(qmat, self.step, dtype=np.float64)
        if self.slack:
            out += side * self.centre
        return out

    @staticmethod
    def step_for(top: float, cells: int) -> float:
        """The least power of two with ``top`` below ``cells`` steps."""
        return math.ldexp(1.0, math.frexp(top)[1] - cells.bit_length() + 1)

    def code(self, values, out) -> "Grid":
        """Write the codes of ``values`` (``float64``, each below
        :data:`GRID_CELLS` steps) into ``out``; the grid with its slack
        widened to :func:`cell_slack` when one of them is not exact."""
        scaled = np.divide(values, self.step, dtype=np.float64)
        coded = np.floor(scaled)
        out[...] = coded
        if self.slack or np.array_equal(coded, scaled):
            return self
        return self._replace(slack=cell_slack(self.step))

    def doubled(self, codes, times: int) -> "Grid":
        """Re-grid ``codes`` in place to ``times`` doublings of the step
        (``codes >>= times``, exact: floor(floor(x) / 2) = floor(x / 2));
        the new grid.  An exact grid stays exact while every code shifted
        out was 0; a centred one doubles its slack with the step."""
        if not times:
            return self
        lost = self.slack or np.any(codes & ((1 << times) - 1))
        codes >>= times
        step = math.ldexp(self.step, times)
        if not lost:
            return Grid(step)
        return Grid(step, math.ldexp(self.slack, times) if self.slack else cell_slack(step))
