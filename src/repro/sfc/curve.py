"""What the two curves share: the grid, input checks and bit interleaving.

A curve maps a cell of the ``dims``-dimensional grid with ``bits`` bits per
axis to one integer key.  Both curves end with the same step -- the bits of
the (transformed) coordinates are interleaved, most significant first, into
the key -- and the Z-order curve is that step alone, so it lives here once,
in a scalar and an array form.

**Why two forms.**  The scalar form works on Python integers and serves the
insert / delete / query paths, which handle one key or one leaf at a time.
The array form works on the columns of an ``n x dims`` integer matrix and
serves bulk construction.  Neither replaces the other: measured on the
Hilbert decode (bits = 8, dims = 5; encode reads the same), the array form
costs ~0.3 ms however few keys it is given, so one key is 35x slower than
the scalar form (350 vs 10 us), 4096 keys are 17x faster (3.9 vs 67.5 ms),
and the crossover sits at about 30 keys -- one B+-tree leaf holds 36 (390
vs 507 us), and a scan decodes only a leaf's live entries -- which is why
query-side leaf scans stay on the scalar form.  Keys are Python integers in
both forms (they are pickled into B+-tree leaves and compared by
``bisect``); the array form assembles keys wider than 63 bits from limbs of
at most 63 bits, so one code path serves every width.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GridCurve", "interleave", "deinterleave"]

_LIMB_BITS = 63  # widest run of key bits an int64 column can carry


def interleave(x: list[int], bits: int) -> int:
    """Key whose bits are those of ``x``, most significant first, round-robin."""
    key = 0
    for bit in range(bits - 1, -1, -1):
        for value in x:
            key = (key << 1) | ((value >> bit) & 1)
    return key


def deinterleave(key: int, bits: int, dims: int) -> list[int]:
    """Inverse of :func:`interleave`."""
    x = [0] * dims
    position = bits * dims - 1
    for bit in range(bits - 1, -1, -1):
        for i in range(dims):
            x[i] |= ((key >> position) & 1) << bit
            position -= 1
    return x


def _limb_widths(total_bits: int) -> list[int]:
    """Widths of the limbs a key splits into, most significant limb first."""
    full, rest = divmod(total_bits, _LIMB_BITS)
    return [_LIMB_BITS] * full + ([rest] if rest else [])


def _interleave_columns(columns: list[np.ndarray], bits: int) -> list[int]:
    """Array form of :func:`interleave`: one key per row of the columns."""
    widths = _limb_widths(bits * len(columns))
    limbs = [np.zeros(len(columns[0]), dtype=np.int64) for _ in widths]
    position = 0
    for bit in range(bits - 1, -1, -1):
        for column in columns:
            limb = limbs[position // _LIMB_BITS]
            limb <<= 1
            limb |= (column >> bit) & 1
            position += 1
    keys = limbs[0].tolist()
    for limb, width in zip(limbs[1:], widths[1:]):
        keys = [(key << width) | low for key, low in zip(keys, limb.tolist())]
    return keys


def _deinterleave_columns(keys: list[int], bits: int, dims: int) -> list[np.ndarray]:
    """Array form of :func:`deinterleave`: ``dims`` columns, one row per key."""
    widths = _limb_widths(bits * dims)
    limbs = []
    shift = bits * dims
    for width in widths:
        shift -= width
        mask = (1 << width) - 1
        limbs.append(
            np.fromiter(((key >> shift) & mask for key in keys), np.int64, len(keys))
        )
    columns = [np.zeros(len(keys), dtype=np.int64) for _ in range(dims)]
    position = 0
    for bit in range(bits - 1, -1, -1):
        for column in columns:
            index, offset = divmod(position, _LIMB_BITS)
            column |= ((limbs[index] >> (widths[index] - 1 - offset)) & 1) << bit
            position += 1
    return columns


class GridCurve:
    """Grid, input checks and the array entry points of a curve.

    A subclass supplies the scalar ``encode`` / ``decode`` and, unless it is
    pure interleaving, the two array hooks that transform coordinate
    columns before / after the interleave.
    """

    def __init__(self, bits: int, dims: int):
        if bits < 1 or bits > 32:
            raise ValueError(f"bits must be in [1, 32], got {bits}")
        if dims < 1:
            raise ValueError(f"dims must be >= 1, got {dims}")
        self.bits = bits
        self.dims = dims
        self.max_coordinate = (1 << bits) - 1
        self.max_key = (1 << (bits * dims)) - 1

    # -- input checks --------------------------------------------------------

    def _checked_coords(self, coords) -> list[int]:
        x = [int(c) for c in coords]
        if len(x) != self.dims:
            raise ValueError(f"expected {self.dims} coordinates, got {len(x)}")
        for c in x:
            if c < 0 or c > self.max_coordinate:
                raise ValueError(
                    f"coordinate {c} out of range [0, {self.max_coordinate}]"
                )
        return x

    def _check_key(self, key: int) -> None:
        if key < 0 or key > self.max_key:
            raise ValueError(f"key {key} out of range [0, {self.max_key}]")

    # -- array form ------------------------------------------------------------

    def encode_many(self, coords) -> list[int]:
        """Keys (Python ints) for each row of an ``n x dims`` integer matrix."""
        matrix = np.asarray(coords)
        if matrix.size == 0 and matrix.ndim < 2:
            return []
        if matrix.ndim != 2 or matrix.shape[1] != self.dims:
            got = matrix.shape[1] if matrix.ndim == 2 else matrix.shape
            raise ValueError(f"expected {self.dims} coordinates, got {got}")
        # a private dims x n copy: each column contiguous, free to change in place
        columns = np.array(matrix.T, dtype=np.int64, order="C")
        bad = (columns < 0) | (columns > self.max_coordinate)
        if bad.any():
            raise ValueError(
                f"coordinate {columns.T[bad.T][0]} out of range "
                f"[0, {self.max_coordinate}]"
            )
        columns = self._axes_to_transpose_columns(list(columns))
        return _interleave_columns(columns, self.bits)

    def decode_many(self, keys) -> np.ndarray:
        """``n x dims`` int64 matrix of the cells of ``keys``."""
        keys = [int(key) for key in keys]
        for key in keys:
            self._check_key(key)
        columns = _deinterleave_columns(keys, self.bits, self.dims)
        columns = self._transpose_to_axes_columns(columns)
        return np.stack(columns, axis=1)

    def _axes_to_transpose_columns(self, x: list[np.ndarray]) -> list[np.ndarray]:
        return x

    def _transpose_to_axes_columns(self, x: list[np.ndarray]) -> list[np.ndarray]:
        return x

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(bits={self.bits}, dims={self.dims})"
