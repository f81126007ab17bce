"""d-dimensional Hilbert space-filling curve (Skilling's algorithm).

The SPB-tree maps each object's discretised pivot-distance vector to a single
integer Hilbert key; B+-tree order over the keys then approximately preserves
proximity in pivot space, which is the whole point of the SPB-tree's storage
and I/O savings (Section 5.4).

``encode``/``decode`` implement John Skilling's transpose-based algorithm
("Programming the Hilbert curve", AIP 2004): coordinates with ``bits`` bits
per dimension map bijectively to keys in [0, 2^(bits*dims)).

The transform exists twice, on purpose (:mod:`repro.sfc.curve` has the
measurement): the scalar ``encode`` / ``decode`` on Python integers are the
insert / delete / query path and the reference the tests hold the array
form to; ``encode_many`` / ``decode_many`` run the same steps over the
columns of an ``n x dims`` matrix and are what bulk construction calls,
once.  The column form has no branch: each of Skilling's ``(bits - 1) *
dims`` flip-or-exchange steps is eleven whole-column integer operations on
a mask of the tested bit (:func:`_flip_or_exchange`), and the Gray step's
running parity is an inverse Gray code by doubling shifts.  Encode runs on
``uint8`` columns at bits = 8 (``uint32`` past it, :mod:`repro.sfc.curve`
says why); on LA (n = 20 000, 5 pivots) it costs 1.4 ms
where ``int64`` columns with ``np.where`` selects and a bit-by-bit
interleave into a list of Python ints cost 16 ms (median of 9 builds, four
processes a side, 2-core x86 VM).
"""

from __future__ import annotations

import numpy as np

from .curve import GridCurve, deinterleave, interleave

__all__ = ["HilbertCurve"]


def _flip_or_exchange(x: list[np.ndarray], i: int, q: int) -> None:
    """Skilling's inner step on columns, in place, without a branch.

    Row by row: where bit ``q`` of ``x[i]`` is set, the low bits of ``x[0]``
    are inverted; elsewhere ``x[0]`` and ``x[i]`` exchange their low bits.
    ``mask`` is all ones on the rows of the first kind and zero on the
    others, and ``t`` the low bits in which ``x[0]`` and ``x[i]`` differ on
    the others (none at ``i = 0``), so one XOR a column does both.
    """
    p = q - 1
    mask = -((x[i] >> (q.bit_length() - 1)) & 1)
    t = (x[0] ^ x[i]) & p & ~mask
    x[0] ^= (mask & p) | t
    x[i] ^= t


class HilbertCurve(GridCurve):
    """Bijective Hilbert mapping for ``dims`` dimensions of ``bits`` bits."""

    # -- coordinate -> key --------------------------------------------------

    def encode(self, coords) -> int:
        """Hilbert key of one coordinate tuple."""
        x = self._axes_to_transpose(self._checked_coords(coords))
        return interleave(x, self.bits)

    def _axes_to_transpose(self, x: list[int]) -> list[int]:
        n, bits = self.dims, self.bits
        m = 1 << (bits - 1)
        # inverse undo of the gray code
        q = m
        while q > 1:
            p = q - 1
            for i in range(n):
                if x[i] & q:
                    x[0] ^= p
                else:
                    t = (x[0] ^ x[i]) & p
                    x[0] ^= t
                    x[i] ^= t
            q >>= 1
        # gray encode
        for i in range(1, n):
            x[i] ^= x[i - 1]
        t = 0
        q = m
        while q > 1:
            if x[n - 1] & q:
                t ^= q - 1
            q >>= 1
        for i in range(n):
            x[i] ^= t
        return x

    def _axes_to_transpose_columns(self, x: list[np.ndarray]) -> list[np.ndarray]:
        """:meth:`_axes_to_transpose` on ``dims`` unsigned columns, in place."""
        n = self.dims
        m = 1 << (self.bits - 1)
        q = m
        while q > 1:
            for i in range(n):
                _flip_or_exchange(x, i, q)
            q >>= 1
        for i in range(1, n):
            x[i] ^= x[i - 1]
        # bit j of t is the parity of the bits of x[n - 1] above j: the
        # inverse Gray code of x[n - 1] >> 1, by doubling shifts
        t = x[n - 1] >> 1
        shift = 1
        while shift < self.bits:
            t ^= t >> shift
            shift <<= 1
        for i in range(n):
            x[i] ^= t
        return x

    # -- key -> coordinate ----------------------------------------------------

    def decode(self, key: int) -> tuple[int, ...]:
        """Coordinate tuple of one Hilbert key."""
        self._check_key(key)
        x = deinterleave(key, self.bits, self.dims)
        return tuple(self._transpose_to_axes(x))

    def _transpose_to_axes(self, x: list[int]) -> list[int]:
        n, bits = self.dims, self.bits
        m = 1 << (bits - 1)
        # gray decode by H ^ (H/2)
        t = x[n - 1] >> 1
        for i in range(n - 1, 0, -1):
            x[i] ^= x[i - 1]
        x[0] ^= t
        # undo excess work
        q = 2
        while q != m << 1:
            p = q - 1
            for i in range(n - 1, -1, -1):
                if x[i] & q:
                    x[0] ^= p
                else:
                    t = (x[0] ^ x[i]) & p
                    x[0] ^= t
                    x[i] ^= t
            q <<= 1
        return x

    def _transpose_to_axes_columns(self, x: list[np.ndarray]) -> list[np.ndarray]:
        """:meth:`_transpose_to_axes` on ``dims`` integer columns, in place."""
        n = self.dims
        m = 1 << (self.bits - 1)
        t = x[n - 1] >> 1
        for i in range(n - 1, 0, -1):
            x[i] ^= x[i - 1]
        x[0] ^= t
        q = 2
        while q != m << 1:
            for i in range(n - 1, -1, -1):
                _flip_or_exchange(x, i, q)
            q <<= 1
        return x
