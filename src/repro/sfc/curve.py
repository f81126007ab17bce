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
Hilbert curve (bits = 8, dims = 5, 2-core x86 VM), the array encode costs
~0.35 ms however few keys it is given -- one key 0.32 ms against 11 us for
the scalar form, 4096 keys 0.56 ms against 65 ms -- and the crossover sits
at about 25 keys; the array decode costs ~0.5 ms fixed (one key 0.45 ms
against 18 us, 4096 keys 2.7 ms against 75 ms) and crosses over at about
30.  No query decodes a key: the SPB-tree's leaves keep cells, not keys, and
its B+-tree orders a leaf's rows by one array encode when a write splits
the leaf or moves a row out of it.  The array decode gives ``repro
migrate`` the cells of a tree written before leaves had them.

**Key widths.**  The array form works on coordinate columns of ``uint8``
up to bits = 8 and of ``uint32`` past it, and interleaves by lookup: a key
is the OR of one table lookup per axis and coordinate byte
(:func:`_spread_tables`).  ``uint16`` columns were 1.2 ms faster at bits =
10 (2.2 against 3.4 ms on LA n = 20 000, 5 axes, 2-core x86 VM), but their
integer loops are numpy code no other step of an SPB-tree build runs: the
build's first touches of that code cost 128 kB more resident memory,
where ``uint32`` cost none.  Keys
come back as an ``int64`` array whenever ``bits * dims <= 63`` and as an
object array of Python ints past that (the tables themselves are then
Python ints); the scalar form returns a Python int, which is what B+-tree
leaves hold and compare by ``bisect``.
"""

from __future__ import annotations

import functools

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


@functools.lru_cache(maxsize=64)
def _spread_tables(bits: int, dims: int) -> tuple:
    """Lookup tables of the interleave, one a coordinate byte and axis.

    ``tables[j][i][v]`` is the part of a key that byte ``j`` (bits ``8j``
    to ``8j + 7``) of axis ``i``'s coordinate contributes when it is ``v``:
    bit ``b`` of the coordinate lands on key bit ``b * dims + dims - 1 - i``.
    A key is the OR of one lookup a byte and axis.  The tables are ``int64``
    when every key fits 63 bits, else Python ints in object arrays.
    """
    dtype = np.int64 if bits * dims <= _LIMB_BITS else object
    tables = []
    for low in range(0, bits, 8):
        width = min(8, bits - low)  # a table no larger than the byte's values
        values = np.arange(1 << width).astype(dtype)
        spread = np.zeros_like(values)
        for b in range(width):
            spread |= ((values >> b) & 1) << ((low + b) * dims)
        axes = [spread << (dims - 1 - i) for i in range(dims)]
        for table in axes:
            table.flags.writeable = False
        tables.append(tuple(axes))
    return tuple(tables)


def _interleave_columns(columns: list[np.ndarray], bits: int) -> np.ndarray:
    """Array form of :func:`interleave`: one key per row of the columns."""
    keys = None
    for low, tables in zip(range(0, bits, 8), _spread_tables(bits, len(columns))):
        for column, table in zip(columns, tables):
            part = table.take(column if bits <= 8 else (column >> low) & 0xFF)
            if keys is None:
                keys = part
            else:
                keys |= part
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

    def encode_many(self, coords) -> np.ndarray:
        """Keys for each row of an ``n x dims`` integer matrix: an ``int64``
        array when a key fits 63 bits, else an object array of Python ints."""
        matrix = np.asarray(coords)
        if matrix.size == 0 and matrix.ndim < 2:  # no rows
            matrix = matrix.reshape(0, self.dims)
        if matrix.ndim != 2 or matrix.shape[1] != self.dims:
            got = matrix.shape[1] if matrix.ndim == 2 else matrix.shape
            raise ValueError(f"expected {self.dims} coordinates, got {got}")
        if matrix.dtype.kind not in "ui":
            matrix = matrix.astype(np.int64)
        if matrix.dtype.kind == "i" or np.iinfo(matrix.dtype).max > self.max_coordinate:
            bad = (matrix < 0) | (matrix > self.max_coordinate)
            if bad.any():
                raise ValueError(
                    f"coordinate {matrix[bad][0]} out of range "
                    f"[0, {self.max_coordinate}]"
                )
        # a private dims x n copy in uint8 or uint32 (module docstring):
        # each column contiguous, free to change in place
        dtype = np.uint8 if self.max_coordinate <= 0xFF else np.uint32
        columns = np.array(matrix.T, dtype=dtype, order="C")
        columns = self._axes_to_transpose_columns(list(columns))
        return _interleave_columns(columns, self.bits)

    def decode_many(self, keys) -> np.ndarray:
        """``n x dims`` int64 matrix of the cells of ``keys`` (a sequence of
        keys, or an array of them as :meth:`encode_many` returns)."""
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
