"""One quantiser for pivot-distance codes (the paper's Section 5.4).

MVPT / VPT leaf path codes, FQA signatures and the SPB-tree's grid behind
its Hilbert keys store a pivot distance d(o, p) as the *cell* of a
:class:`Frame` it fell in.  Each index keeps its own fitting policy and
shares the arithmetic: encoding, cell bounds, Lemma 1 gap tables.  Both
end cells are open, so a distance met after fitting (an insert past the
frame) still decodes to an interval that holds it.

A frame's fields may be arrays: MVPT codes every object within the band
of its own path (:meth:`Frame.band`), one frame per (object, level), and
encodes and decodes them all in one call.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = ["Frame", "gap_tables"]

# distances encoded at a time: whole-matrix temporaries left the SPB-tree
# build's heap half a megabyte larger at n = 20 000, and a block's are the
# build's peak allocation (8 192 read 0.59 x what an LA n = 5 000 build keeps)
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
