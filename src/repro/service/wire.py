"""Binary wire codec: JSON-shaped payloads with raw numpy buffers.

PR 4's HTTP front-end showed that serving 282-d Color vectors is
codec-bound: the vectorized query kernels answer a whole batch in under a
millisecond while ``json.dumps``/``json.loads`` of float64 vectors -- one
Python float object per element, each formatted to shortest repr --
dominates the wire time.  This module removes that tax with a stdlib-only
framed binary encoding (content type :data:`BINARY_CONTENT_TYPE`,
negotiated via ``Content-Type`` / ``Accept`` so JSON clients keep working
unchanged).

Frame layout::

    MAGIC b"RPWB" (4) | version (1) | reserved (3, zero)
    | header length (4, little-endian u32) | header JSON (UTF-8)
    | array buffers (each 8-byte aligned, little-endian, C-contiguous)

The header JSON carries the payload *tree* -- the exact structure the JSON
protocol uses (``{"queries": ..., "radius": 2.0}``) -- with every numpy
array replaced by an ``{"$nd": i}`` placeholder, plus an ``arrays`` table
of ``(dtype, shape, offset, nbytes)`` entries describing the raw buffers
that follow.  :func:`loads` rebuilds the tree with ``np.frombuffer`` views
straight into the received body -- no per-element Python objects, and the
float64/int64 values are preserved **bit-for-bit** (raw little-endian
buffers, not decimal round-trips).

On top of the generic tree codec, the ``pack_* / unpack_*`` helpers give
query answers a flat columnar form (ragged lists of ids or neighbors
become offsets + value columns), so a ``/knn_many`` response is three
small arrays instead of thousands of JSON numbers.  Every ``unpack_*``
helper also accepts the JSON form, which is what lets
:class:`~repro.service.http.ServiceClient` share one decode path for both
protocols.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from ..core.queries import Neighbor

__all__ = [
    "BINARY_CONTENT_TYPE",
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "WireError",
    "dumps",
    "loads",
    "accepts_binary",
    "pack_id_list",
    "unpack_id_list",
    "pack_id_lists",
    "unpack_id_lists",
    "pack_neighbors",
    "unpack_neighbors",
    "pack_neighbor_lists",
    "unpack_neighbor_lists",
]

BINARY_CONTENT_TYPE = "application/x-repro-binary"
WIRE_MAGIC = b"RPWB"
WIRE_VERSION = 1

_PREFIX = struct.Struct("<4sB3xI")  # magic, version, reserved, header length
_ALIGN = 8  # array buffers start on 8-byte boundaries (dtype alignment)

# dtype kinds allowed on the wire: bool, (un)signed ints, floats, complex.
# Object/str dtypes would need pickle -- exactly the codec being killed.
_WIRE_KINDS = frozenset("biufc")


class WireError(ValueError):
    """Raised for malformed binary frames; mapped to HTTP 400 by the server."""


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def _wire_array(arr: np.ndarray) -> np.ndarray:
    """The array as the on-wire form: C-contiguous little-endian."""
    if arr.dtype.kind not in _WIRE_KINDS:
        raise WireError(
            f"dtype {arr.dtype} cannot travel in binary frames (numeric only)"
        )
    dtype = arr.dtype.newbyteorder("<")
    return np.ascontiguousarray(arr, dtype=dtype)


def _encode_tree(value, arrays: list[np.ndarray]):
    """Replace every ndarray in a JSON-like tree with an ``{"$nd": i}`` ref."""
    if isinstance(value, np.ndarray):
        arrays.append(_wire_array(value))
        return {"$nd": len(arrays) - 1}
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        if "$nd" in value:
            raise WireError("payload dicts may not use the reserved key '$nd'")
        return {str(k): _encode_tree(v, arrays) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_tree(v, arrays) for v in value]
    return value


def dumps(payload) -> bytes:
    """Encode a JSON-like tree (numpy arrays allowed anywhere) to a frame."""
    arrays: list[np.ndarray] = []
    tree = _encode_tree(payload, arrays)
    table = []
    offset = 0
    for arr in arrays:
        offset = _align(offset)
        table.append(
            {
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": int(arr.nbytes),
            }
        )
        offset += arr.nbytes
    header = json.dumps({"tree": tree, "arrays": table}).encode("utf-8")
    parts = [_PREFIX.pack(WIRE_MAGIC, WIRE_VERSION, len(header)), header]
    written = 0
    for arr, entry in zip(arrays, table):
        pad = entry["offset"] - written
        if pad:
            parts.append(b"\x00" * pad)
        parts.append(arr.tobytes())
        written = entry["offset"] + entry["nbytes"]
    return b"".join(parts)


def _decode_tree(value, arrays: list[np.ndarray]):
    if isinstance(value, dict):
        if "$nd" in value:
            if len(value) != 1:
                raise WireError("malformed array placeholder")
            idx = value["$nd"]
            if not isinstance(idx, int) or not 0 <= idx < len(arrays):
                raise WireError(f"array reference {idx!r} out of range")
            return arrays[idx]
        return {k: _decode_tree(v, arrays) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_tree(v, arrays) for v in value]
    return value


def loads(data: bytes):
    """Decode a frame produced by :func:`dumps`.

    Array leaves come back as ``np.frombuffer`` views into ``data`` --
    zero-copy, read-only, values bit-for-bit the sender's.
    """
    if len(data) < _PREFIX.size:
        raise WireError("binary frame shorter than its fixed prefix")
    magic, version, header_len = _PREFIX.unpack_from(data)
    if magic != WIRE_MAGIC:
        raise WireError("bad magic: not a repro binary frame")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported binary frame version {version}")
    body_start = _PREFIX.size + header_len
    if len(data) < body_start:
        raise WireError("binary frame truncated inside its header")
    try:
        header = json.loads(data[_PREFIX.size : body_start].decode("utf-8"))
        tree, table = header["tree"], header["arrays"]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise WireError(f"corrupt binary frame header: {exc}") from None
    arrays: list[np.ndarray] = []
    for entry in table:
        try:
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(s) for s in entry["shape"])
            offset = int(entry["offset"])
            nbytes = int(entry["nbytes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WireError(f"corrupt array table entry: {exc}") from None
        if dtype.kind not in _WIRE_KINDS:
            raise WireError(f"dtype {dtype} not allowed in binary frames")
        if min(shape, default=0) < 0:
            raise WireError(f"negative array shape {shape}")
        count = math.prod(shape)
        expected = dtype.itemsize * count
        if nbytes != expected:
            raise WireError(
                f"array byte count {nbytes} does not match shape {shape} x {dtype}"
            )
        start = body_start + offset
        if start + nbytes > len(data):
            raise WireError("binary frame truncated inside an array buffer")
        arrays.append(
            np.frombuffer(data, dtype=dtype, count=count, offset=start).reshape(shape)
        )
    return _decode_tree(tree, arrays)


def accepts_binary(header_value: str | None) -> bool:
    """True when an ``Accept``/``Content-Type`` header names the binary type."""
    return bool(header_value) and BINARY_CONTENT_TYPE in header_value


# -- columnar result forms ----------------------------------------------------
#
# Answers are ragged (one id list / neighbor list per query).  The packed
# form is offsets + value columns -- the flat layout the batch engines
# already produce values in -- so encoding is a handful of array builds, not
# one Python object per result element.


def pack_id_list(ids) -> np.ndarray:
    """A single MRQ answer as one int64 column."""
    return np.asarray(list(ids), dtype=np.int64)


def unpack_id_list(obj) -> list[int]:
    """Inverse of :func:`pack_id_list`; also accepts the JSON list form."""
    if isinstance(obj, np.ndarray):
        # tolist() on an integer column already yields Python ints in one
        # C loop; coerce the dtype first so that stays true for any sender.
        return np.asarray(obj, dtype=np.int64).tolist()
    return [int(i) for i in obj]


def _offsets_of(lists) -> np.ndarray:
    lengths = np.fromiter((len(l) for l in lists), dtype=np.int64, count=len(lists))
    offsets = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def pack_id_lists(lists) -> dict:
    """Batch MRQ answers as ``{"offsets": i64[q+1], "ids": i64[total]}``."""
    offsets = _offsets_of(lists)
    flat: list = []
    for ids in lists:
        flat.extend(ids)
    return {"offsets": offsets, "ids": np.asarray(flat, dtype=np.int64)}


def unpack_id_lists(obj) -> list[list[int]]:
    """Inverse of :func:`pack_id_lists`; also accepts the JSON nested form."""
    if isinstance(obj, dict):
        bounds = np.asarray(obj["offsets"], dtype=np.int64).tolist()
        values = unpack_id_list(obj["ids"])
        return [values[a:b] for a, b in zip(bounds, bounds[1:])]
    return [unpack_id_list(ids) for ids in obj]


def pack_neighbors(neighbors) -> dict:
    """One MkNNQ answer as ``{"dists": f8[n], "ids": i64[n]}`` columns."""
    dists = np.fromiter(
        (n.distance for n in neighbors), dtype=np.float64, count=len(neighbors)
    )
    ids = np.fromiter(
        (n.object_id for n in neighbors), dtype=np.int64, count=len(neighbors)
    )
    return {"dists": dists, "ids": ids}


def unpack_neighbors(obj) -> list[Neighbor]:
    """Inverse of :func:`pack_neighbors`; also accepts the JSON pair form."""
    if isinstance(obj, dict):
        dists = np.asarray(obj["dists"], dtype=np.float64).tolist()
        ids = unpack_id_list(obj["ids"])
        return [Neighbor(d, i) for d, i in zip(dists, ids)]
    return [Neighbor(float(d), int(i)) for d, i in obj]


def pack_neighbor_lists(lists) -> dict:
    """Batch MkNNQ answers as offsets + distance/id columns."""
    offsets = _offsets_of(lists)
    total = int(offsets[-1])
    dists = np.fromiter(
        (n.distance for ns in lists for n in ns), dtype=np.float64, count=total
    )
    ids = np.fromiter(
        (n.object_id for ns in lists for n in ns), dtype=np.int64, count=total
    )
    return {"offsets": offsets, "dists": dists, "ids": ids}


def unpack_neighbor_lists(obj) -> list[list[Neighbor]]:
    """Inverse of :func:`pack_neighbor_lists`; also accepts the JSON form."""
    if isinstance(obj, dict):
        bounds = np.asarray(obj["offsets"], dtype=np.int64).tolist()
        # tolist() already yields Python floats / ints, so Neighbor can be
        # built without per-element float()/int() round trips.
        dists = np.asarray(obj["dists"], dtype=np.float64).tolist()
        ids = unpack_id_list(obj["ids"])
        return [
            [Neighbor(d, i) for d, i in zip(dists[a:b], ids[a:b])]
            for a, b in zip(bounds, bounds[1:])
        ]
    return [unpack_neighbors(ns) for ns in obj]
