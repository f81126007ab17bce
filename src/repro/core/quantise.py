"""One quantiser for pivot-distance codes (the paper's Section 5.4).

MVPT / VPT leaf path codes, FQA signatures and the SPB-tree's grid behind
its Hilbert keys store a pivot distance d(o, p) as the *cell* of a
:class:`Frame` it fell in.  Each index keeps its own fitting policy and
shares the arithmetic: encoding, cell bounds, Lemma 1 gap tables.  Both
end cells are open, so a distance met after fitting (an insert past the
frame) still decodes to an interval that holds it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["Frame", "gap_tables"]

# distances encoded at a time: whole-matrix temporaries left the SPB-tree
# build's heap half a megabyte larger at n = 20 000
_BLOCK = 8192


class Frame(NamedTuple):
    """``cells`` equal cells of ``width`` from ``low``; cell ``c`` covers
    ``[low + width * c, low + width * (c + 1)]``, or just its low edge when
    ``exact`` (discrete distances that are their own codes).  The end cells
    are open.  Codes take the smallest unsigned dtype that holds ``cells``."""

    low: float
    width: float
    exact: bool
    cells: int = 256

    @classmethod
    def spanning(cls, dists: np.ndarray, discrete: bool) -> "Frame":
        """256 cells over ``[dists.min(), dists.max()]``; on a discrete
        metric whose distances fit a byte, the distances themselves."""
        lo, hi = float(dists.min()), float(dists.max())
        if discrete and 0 <= lo and hi <= 255:
            return cls(0.0, 1.0, True)
        return cls(lo, (hi - lo) / 256, False)

    def bounds(self, codes) -> tuple[np.ndarray, np.ndarray]:
        """Closed ``(low, high)`` of each code's cell; the end cells are open."""
        codes = np.asarray(codes)
        low = self.low + self.width * codes.astype(np.float64)
        high = np.where(self.exact, low, self.low + self.width * (codes + 1.0))
        low[..., codes == 0] = -np.inf
        high[..., codes == self.cells - 1] = np.inf
        return low, high

    def encode(self, dists) -> np.ndarray:
        """The cell of each distance: the last whose low edge it reaches,
        the end cells open.

        The cell is ``floor((d - low) / width)``, clipped, then checked
        once against the ``edges`` array; the few distances rounding left
        outside their cell's edges (all of them, at a zero width) are
        placed by ``searchsorted`` over the same edges, so every code is
        the one ``searchsorted`` alone would give.  Raises unless every
        decoded interval contains its distance: a code that excluded it
        would let a Lemma 1 filter drop a true answer.
        """
        dists = np.asarray(dists, dtype=np.float64)
        top = self.cells - 1
        edges = self.low + self.width * np.arange(self.cells + 1, dtype=np.float64)
        # cell c holds [starts[c], ends[c]), the end cells open
        starts, ends = edges[:-1].copy(), edges[1:].copy()
        starts[0], ends[-1] = -np.inf, np.inf
        codes = np.empty(dists.shape, dtype=np.min_scalar_type(top))
        flat = dists.reshape(-1)
        for start in range(0, flat.size, _BLOCK):
            block = flat[start : start + _BLOCK]
            guess = block - self.low
            if self.width > 0:
                guess /= self.width
                np.floor(guess, out=guess)
            else:  # every distance is placed below
                guess[:] = 0
            # fmax / fmin, unlike clip, send NaN to a bound
            cells = np.fmin(np.fmax(guess, 0, out=guess), top, out=guess).astype(np.intp)
            # rounding can leave a distance outside its cell
            off = np.flatnonzero((block < starts[cells]) | (block >= ends[cells]))
            if len(off):
                placed = np.searchsorted(edges, block[off], side="right") - 1
                cells[off] = np.clip(placed, 0, top)
            low, high = self.bounds(cells)
            if not ((low <= block) & (block <= high)).all():
                raise AssertionError(f"frame {self} lost a distance among {dists!r}")
            codes.reshape(-1)[start : start + _BLOCK] = cells
        return codes

    def encode_one(self, dist: float) -> int:
        """:meth:`encode` for one distance, without arrays."""
        lo, width, exact, cells = self
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
        low = lo + width * cell
        high = low if exact else lo + width * (cell + 1)
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
