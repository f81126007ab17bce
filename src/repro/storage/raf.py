"""Random Access File: the separate object store of the Omni / M-index / SPB.

The Omni-family, M-index, SPB-tree and DEPT keep the real objects (optionally
with their pre-computed pivot distances) out of the index structure, in a
sequential record file.  A record is ``(object id, obj, ...)``, and the file
is addressed by that id: it keeps a **locator**, one int32 page array and
one slot array indexed by object id, filled by the writes.  Page -1 and
slot 0 is an id that never had a record; a delete
(:meth:`RandomAccessFile.mark_deleted`) leaves the id its *dead address*,
page ``-2 - page`` with the slot kept, so a live record is a page ``>= 0``.
Every row costs at least its tombstone byte, so a slot number is below the
page size, and the slot array takes the narrowest unsigned dtype that holds
it (``np.min_scalar_type(page_size)``: ``uint16`` below 64 KB pages), 6 B
an id in all at 4 KB.  It is the only module that knows where a record
lies; an index stores ids and asks ``id in raf``.
Being dense, it may grow in a write to twice its length with the records
written, or to ``_LOCATOR_FLOOR`` ids: a larger id is refused with
:class:`IdOutOfBounds` before anything is allocated.
Reading a record costs one page access unless the page is cached -- the
paper's duplicate-RAF-access discussion for MkNNQ is exactly about this.

Records are grouped into pages greedily in insertion order, mirroring the
sequential layout the paper describes; M-index and SPB-tree pass records in
cluster/SFC order so that proximate objects share pages.

Writing has one body, :meth:`RandomAccessFile.append_many`, and it takes
the records as field columns: an index under construction passes an integer
id array, its objects as ``dataset.gather(order)`` (a block for vectors, a
list for strings) and, on the M-index, the ``order`` rows of its build
table, then the only copy of I(o); the id column fills the locator.  Rows
are sized a column at a time by the arithmetic below: fixed-width rows fill
``room // row`` of a page, variable-width ones (``str``, pickled fields) are
cut at a cumulative sum, a page always taking at least one row.  A page's new rows
are sliced off the columns, and every page is handed to the pager once,
when it is full (the last one when the call ends), so a construction page
access is a page of the finished file and not a record.  On LA n = 20 000
the SPB-tree's RAF costs 1.9 ms this way, 49 ms record by record.
:meth:`RandomAccessFile.append` is the one-row view of the same body -- the
insert path -- and costs one write of the open page.  A record put back
under a deleted id (an update: delete, then insert the same object) goes
into the slot its delete freed when that slot is still a tombstone and the
record fits the page's own columns in the bytes the deleted one took: one
write of that page, which then holds what it held before the delete, so an
update keeps the page layout and the file's size.  Any other record -- a
new id, one of another size, an int32 id whose page has an int64 id column
-- appends.

**Page format.**  A page is one :class:`RafPage`: its records stored by
field, a column per field, and one tombstone byte per slot::

    field of the records        column                      bytes a record
    int (fits int32)            int32 array                 4
    int (fits int64 only)       int64 array                 8
    float                       float64 array               8
    ndarray (one dtype, shape)  (slots, *shape) block       nbytes
    str                         UTF-8 blob + int32 ends     encoded length + 4
    anything else               list, pickled with the page its pickled length
    (tombstone)                 bytes mask, 1 = deleted     1

A page holds records of one *schema* -- the same arity (or bare values) and
the same column for each field.  An int's column is a function of its value
alone: ``j`` (int32) when it fits int32, ``i`` (int64) when it fits int64
only, so an id below 2**31 takes 4 B.  A record with no place in the open
page's columns starts a page of its own schema (so a file written when
every int was int64 takes ``j`` pages beside its ``i`` ones, each page
decoding by its own kinds); a page started because the last one was full
keeps the last one's schema (so a pickled column, which takes anything,
carries on).  A record's size is that arithmetic over its fields; only a
field with no columnar form (the last row) is sized by pickling it.  A page
pickles each column as raw bytes (:func:`pack_column`), so its stored size is its
payload plus a header of ~90 B: what the page's empty form pickles to, plus
3 B for each buffer whose length outgrows a one-byte encoding.  The header
is charged once per page -- a page takes records while ``header + payload
<= page_size`` -- so a stored page never spans two pages unless a single
record does.  No record is ever rewritten to another size in place, so a
page needs no slack and fills to the page.  ``read`` /
``read_many`` / ``read_cached`` return an id's ``(id, obj, ...)`` tuple, an
array field as a row view of its block; an id with no live record raises
``KeyError``.  A page of bare values (records of mixed schemas, pickled
whole) is read the same way.

Pages are copy-on-write: ``append`` adds one row to the open page's
columns or, putting a record back, rewrites the one row under its
tombstone and clears the byte; ``mark_deleted`` sets one tombstone byte;
each into a new page object, so a node the buffer pool already holds never
changes under it.
"""

from __future__ import annotations

import bisect
import functools
import math
import pickle
from typing import Any

import numpy as np

from ..obs import tracing
from .pager import Pager

__all__ = [
    "IdOutOfBounds",
    "RandomAccessFile",
    "RafPage",
    "encode_column",
    "field_bytes",
    "int_kind",
    "pack_column",
    "unpack_column",
]

_PROTOCOL = pickle.HIGHEST_PROTOCOL

# field specs: the column a field value is stored in
_INT32 = ("j",)  # int32 array: ints that fit int32
_INT = ("i",)  # int64 array: ints that fit int64 and not int32
_FLOAT = ("f",)  # float64 array
_STR = ("s",)  # UTF-8 blob + int32 end offsets
_OBJ = ("o",)  # list, pickled with the page; ("a", dtype, shape) is a block
_PICKLED = (None, (_OBJ,))  # the schema any records fit
_INT32_MIN, _INT32_END = -(1 << 31), 1 << 31
_INT64_MIN, _INT64_END = -(1 << 63), 1 << 63
_INT_DTYPES = {"j": np.int32, "i": np.int64}


def field_bytes(spec, value) -> int | None:
    """Bytes ``value`` takes in a column of ``spec``; None if it has no
    place there."""
    kind = spec[0]
    if kind == "a":
        if (
            isinstance(value, np.ndarray)
            and value.shape == spec[2]
            and value.dtype == spec[1]
        ):
            return value.nbytes
        return None
    if kind == "j":
        return 4 if type(value) is int and _INT32_MIN <= value < _INT32_END else None
    if kind == "i":
        if type(value) is int and _INT64_MIN <= value < _INT64_END:
            return None if _INT32_MIN <= value < _INT32_END else 8
        return None
    if kind == "f":
        return 8 if type(value) is float else None
    if kind == "s":
        if type(value) is str:
            try:
                return len(value.encode()) + 4
            except UnicodeEncodeError:  # lone surrogates
                return None
        return None
    return len(pickle.dumps(value, protocol=_PROTOCOL))


def int_kind(column: np.ndarray) -> str:
    """The column an integer array's values take as a whole: ``j`` (int32)
    when every one fits int32, else ``i`` (int64)."""
    if not len(column) or column.min() >= _INT32_MIN and column.max() < _INT32_END:
        return "j"
    return "i"


def _spec_of(value):
    """The most specific column ``value`` can live in."""
    if type(value) is int:
        spec = _INT32 if _INT32_MIN <= value < _INT32_END else _INT
    elif type(value) is float:
        return _FLOAT
    elif type(value) is str:
        spec = _STR
    elif (
        isinstance(value, np.ndarray)
        and value.ndim
        and value.size
        and value.dtype.kind in "biufcmM"  # a dtype its ``str`` names
    ):
        spec = ("a", value.dtype, value.shape)
    else:
        return _OBJ
    return spec if field_bytes(spec, value) is not None else _OBJ


def _schema_of(record):
    """``(arity, field specs)``; arity None stores the bare value."""
    if type(record) is tuple:
        return len(record), tuple(map(_spec_of, record))
    return None, (_spec_of(record),)


def _record_bytes(schema, record) -> int | None:
    """A record's payload on a page of ``schema`` (its fields' bytes plus
    its tombstone byte), or None when it is of another schema."""
    arity, specs = schema
    if arity is None:
        fields = (record,)
    elif type(record) is tuple and len(record) == arity:
        fields = record
    else:
        return None
    total = 1
    for spec, value in zip(specs, fields):
        nbytes = field_bytes(spec, value)
        if nbytes is None:
            return None
        total += nbytes
    return total


def _schema_for(records):
    """The first record's schema when every record fits it, else the
    records bare in one pickled column."""
    schema = None
    for record in records:
        if schema is None:
            schema = _schema_of(record)
        elif _record_bytes(schema, record) is None:
            return _PICKLED
    return schema or _PICKLED


class _Column:
    """One field of the records :meth:`RandomAccessFile.append_many` is
    given, as a column: each row's field spec and bytes, and the rows cut
    into a page's column.

    ``values`` is a ``(rows, *shape)`` block (an array field of every
    row), a 1-D integer or float64 array, or any sequence of values.  A
    block or array has one spec for all its rows; a sequence is specced
    value by value (:func:`_spec_of`), and one of several specs keeps a
    code a row and where each run of one code starts.
    """

    __slots__ = ("values", "spec", "specs", "codes", "starts", "nbytes", "encoded")

    def __init__(self, values):
        self.spec = self.specs = self.codes = self.starts = self.encoded = None
        if isinstance(values, (np.ndarray, np.generic)):
            if not values.ndim:
                raise ValueError("a record field column must have one row a record")
            row, kind = values.shape[1:], values.dtype.kind
            if row and math.prod(row) and kind in "biufcmM":
                self.values, self.spec = values, ("a", values.dtype, row)
                self.nbytes = values.itemsize * math.prod(row)
                return
            if not row and (
                kind == "i" or kind == "u" and (not len(values) or values.max() < _INT64_END)
            ):
                self._hold_ints(values.astype(np.int64, copy=False))
                return
            if not row and values.dtype == np.float64:
                self.values, self.spec, self.nbytes = values, _FLOAT, 8
                return
        self.values = values = list(values)
        if not values or type(values[0]) is str and all(type(v) is str for v in values):
            try:
                self.encoded = [v.encode() for v in values]
            except UnicodeEncodeError:  # lone surrogates: value by value
                pass
            else:
                self.spec = _STR
                self.nbytes = np.fromiter(map(len, self.encoded), np.int64, len(values)) + 4
                return
        specs = list(map(_spec_of, values))
        first = specs[0]
        if specs.count(first) == len(specs):
            self.spec = first
            if first[0] in "ijfa":  # fixed width
                self.nbytes = field_bytes(first, values[0])
                return
        self.nbytes = np.fromiter(
            (field_bytes(spec, v) for spec, v in zip(specs, values)), np.int64, len(values)
        )
        if self.spec is not None:  # all pickled
            return
        # fields of several specs: a code a row, and where each run starts
        kinds = list(dict.fromkeys(specs))
        self.specs = kinds
        self.codes = np.fromiter(map(kinds.index, specs), np.int64, len(values))
        self.starts = (np.flatnonzero(np.diff(self.codes)) + 1).tolist()
        if _STR in kinds:
            self.encoded = [v.encode() if s is _STR else None for s, v in zip(specs, values)]

    def _hold_ints(self, values) -> None:
        """An int64 array, each row in the column its value takes: one spec
        when the rows agree, else a code a row.  The array is kept as it is;
        a page's rows are cast as :meth:`encode` slices them off."""
        self.values = values
        if int_kind(values) == "j":
            self.spec, self.nbytes = _INT32, 4
            return
        wide = (values < _INT32_MIN) | (values >= _INT32_END)
        if wide.all():
            self.spec, self.nbytes = _INT, 8
            return
        self.specs, self.codes = [_INT32, _INT], wide.astype(np.int64)
        self.starts = (np.flatnonzero(np.diff(self.codes)) + 1).tolist()
        self.nbytes = np.where(wide, 8, 4)

    def __len__(self) -> int:
        return len(self.values)

    def spec_at(self, row: int):
        """The most specific column the field of ``row`` fits."""
        return self.spec if self.specs is None else self.specs[self.codes[row]]

    def fit_end(self, spec, lo: int, hi: int) -> int:
        """The first of rows ``[lo, hi)`` whose field has no place in a
        column of ``spec`` (``hi`` when every one has)."""
        if spec == _OBJ:
            return hi
        if self.spec_at(lo) != spec:
            return lo
        if self.specs is None:
            return hi
        run = bisect.bisect_right(self.starts, lo)  # the run of row lo's spec
        return min(hi, self.starts[run]) if run < len(self.starts) else hi

    def bytes_as(self, spec, lo: int, hi: int):
        """Each of rows ``[lo, hi)``'s field bytes in a column of ``spec``
        (which they fit): an int when every row takes the same."""
        if spec == _OBJ and self.spec != _OBJ:
            return np.fromiter(
                (field_bytes(_OBJ, v) for v in self.objects(lo, hi)), np.int64, hi - lo
            )
        return self.nbytes if type(self.nbytes) is int else self.nbytes[lo:hi]

    def objects(self, lo: int, hi: int) -> list:
        """Rows ``[lo, hi)`` as the values a record holds."""
        values = self.values
        if type(values) is list:
            return values[lo:hi]
        if self.spec[0] == "a":
            return list(np.array(values[lo:hi]))
        return values[lo:hi].tolist()

    def encode(self, spec, lo: int, hi: int):
        """Rows ``[lo, hi)`` as a page's column of ``spec``."""
        kind = spec[0]
        if kind == "s":
            ends = np.cumsum(self.nbytes[lo:hi] - 4, dtype=np.int32)
            return b"".join(self.encoded[lo:hi]), ends
        if kind == "o" or type(self.values) is list:
            return encode_column(spec, self.objects(lo, hi))
        dtype = spec[1] if kind == "a" else _INT_DTYPES.get(kind)
        return np.array(self.values[lo:hi], dtype=dtype)


def _rows_of(values, rows):
    """The ``rows`` (positions) of a :class:`_Column`'s values."""
    if isinstance(values, np.ndarray):
        return values[rows]
    return [values[r] for r in rows.tolist()]


def _run_end(schema, arity, columns, lo: int) -> int:
    """The end of the run of records from ``lo`` that have a place on a
    page of ``schema`` (``lo`` when record ``lo`` has none)."""
    if schema is None or schema[0] != arity:
        return lo
    end = len(columns[0])
    for column, spec in zip(columns, schema[1]):
        end = column.fit_end(spec, lo, end)
    return end


def _page_cuts(rows, m: int, room, limit: int):
    """Yield ``(rows, bytes, new page?)`` for each page a run of ``m`` rows
    of one schema fills: the open page first, while its ``room`` payload
    bytes last (``room`` None: there is none), then new pages of ``limit``
    bytes, each taking at least one row.  ``rows`` is the run's row bytes:
    an int when every row takes the same, else an array."""
    if type(rows) is int:  # fixed-width rows: arithmetic
        done = 0
        if room is not None:
            done = min(m, max(room, 0) // rows)
            if done:
                yield done, done * rows, False
        per = max(1, limit // rows)
        while done < m:
            take = min(per, m - done)
            yield take, take * rows, True
            done += take
        return
    total = np.cumsum(rows)  # variable-width rows: cut at the cumulative sum
    done, base = 0, 0
    if room is not None:
        done = int(np.searchsorted(total, room, side="right"))
        if done:
            base = int(total[done - 1])
            yield done, base, False
    while done < m:
        end = max(done + 1, int(np.searchsorted(total, base + limit, side="right")))
        yield end - done, int(total[end - 1]) - base, True
        done, base = end, int(total[end - 1])


def _blank(schema):
    """The placeholder record under a tombstone that has no record."""
    values = []
    for spec in schema[1]:
        if spec[0] == "a":
            values.append(np.zeros(spec[2], dtype=spec[1]))
        else:
            values.append({"j": 0, "i": 0, "f": 0.0, "s": "", "o": None}[spec[0]])
    return tuple(values) if schema[0] is not None else values[0]


def encode_column(spec, values):
    """``values`` as a column of ``spec`` (see the module docstring)."""
    kind = spec[0]
    if kind == "a":
        return np.array(values, dtype=spec[1]).reshape(len(values), *spec[2])
    if kind in "ji":
        return np.array(values, dtype=_INT_DTYPES[kind])
    if kind == "f":
        return np.array(values, dtype=np.float64)
    if kind == "s":
        encoded = [value.encode() for value in values]
        return b"".join(encoded), np.cumsum([len(e) for e in encoded], dtype=np.int32)
    return list(values)


def _joined(kind, head, tail):
    if kind == "s":
        offset = int(head[1][-1]) if len(head[1]) else 0
        return head[0] + tail[0], np.concatenate([head[1], tail[1] + offset])
    if kind == "o":
        return head + tail
    return np.concatenate([head, tail])


def _cell(kind, column, slot):
    if kind == "a":
        return column[slot]
    if kind in "ji":
        return int(column[slot])
    if kind == "f":
        return float(column[slot])
    if kind == "s":
        blob, ends = column
        return blob[ends[slot - 1] if slot else 0 : ends[slot]].decode()
    return column[slot]


def _with_cell(kind, column, slot, value):
    """``column`` with one row replaced, as a new column."""
    if kind == "s":
        blob, ends = column
        start, end = (int(ends[slot - 1]) if slot else 0), int(ends[slot])
        encoded = value.encode()
        ends = ends.copy()
        ends[slot:] += len(encoded) - (end - start)
        return blob[:start] + encoded + blob[end:], ends
    column = column.copy()  # list or ndarray alike
    column[slot] = value
    return column


def pack_column(kind, column):
    """A column as a page pickles it: raw bytes, not an ndarray (whose
    pickle costs ~100 B of header)."""
    if kind == "a":
        return column.dtype.str, column.shape[1:], column.tobytes()
    if kind in "jif":
        return column.tobytes()
    if kind == "s":
        return column[0], column[1].tobytes()
    return column


def unpack_column(kind, packed):
    """The column back from its packed form, arrays as read-only views."""
    if kind == "a":
        dtype, shape, raw = packed
        return np.frombuffer(raw, dtype=dtype).reshape(-1, *shape)
    if kind in "ji":
        return np.frombuffer(packed, dtype=_INT_DTYPES[kind])
    if kind == "f":
        return np.frombuffer(packed, dtype=np.float64)
    if kind == "s":
        return packed[0], np.frombuffer(packed[1], dtype=np.int32)
    return packed


def _page_from(arity, kinds, packed, dead):
    return RafPage(arity, kinds, tuple(map(unpack_column, kinds, packed)), dead)


class RafPage:
    """One RAF page: a column per record field plus a tombstone mask.

    ``kinds`` names each field's column (``j`` / ``i`` / ``f`` / ``a`` /
    ``s`` / ``o``, see the module docstring), ``arity`` is the records'
    tuple length (None for bare values), ``dead`` has one byte per slot.
    Immutable by convention: every write builds a new page.
    """

    __slots__ = ("arity", "kinds", "columns", "dead")

    def __init__(self, arity, kinds: str, columns: tuple, dead: bytes):
        self.arity = arity
        self.kinds = kinds
        self.columns = columns
        self.dead = dead

    def __reduce__(self):
        packed = tuple(map(pack_column, self.kinds, self.columns))
        return _page_from, (self.arity, self.kinds, packed, self.dead)

    def __len__(self) -> int:
        return len(self.dead)

    @classmethod
    def encode(cls, records, schema) -> "RafPage":
        """A page of live ``records``, every one of ``schema``."""
        arity, specs = schema
        if arity is None:
            fields = [records]
        else:
            fields = list(zip(*records)) or [()] * arity
        return cls(
            arity,
            "".join(spec[0] for spec in specs),
            tuple(encode_column(spec, values) for spec, values in zip(specs, fields)),
            bytes(len(records)),
        )

    @classmethod
    def from_records(cls, records) -> "RafPage":
        """A page of any records, ``None`` standing for a tombstone: the
        records of a page re-encoded to fit one of another schema."""
        schema = _schema_for(r for r in records if r is not None)
        blank = _blank(schema)
        page = cls.encode([blank if r is None else r for r in records], schema)
        page.dead = bytes(r is None for r in records)
        return page

    @property
    def schema(self):
        return self.arity, tuple(
            ("a", column.dtype, column.shape[1:]) if kind == "a" else (kind,)
            for kind, column in zip(self.kinds, self.columns)
        )

    def payload_bytes(self) -> int:
        """The records' bytes as sizing charges them, tombstones included."""
        total = len(self.dead)
        for kind, column in zip(self.kinds, self.columns):
            if kind == "s":
                total += len(column[0]) + 4 * len(self.dead)
            elif kind == "o":
                total += sum(field_bytes(_OBJ, value) for value in column)
            else:
                total += column.nbytes
        return total

    def record(self, slot: int):
        """The record in ``slot`` (None under a tombstone); IndexError past
        the last slot."""
        return None if self.dead[slot] else self.cells(slot)

    def cells(self, slot: int):
        """What ``slot``'s columns hold, under a tombstone too: the record
        it holds or held."""
        values = [_cell(kind, column, slot) for kind, column in zip(self.kinds, self.columns)]
        return tuple(values) if self.arity is not None else values[0]

    def records(self) -> list:
        return [self.record(slot) for slot in range(len(self.dead))]

    def joined(self, tail: "RafPage") -> "RafPage":
        """This page with ``tail``'s slots after its own (same schema)."""
        return RafPage(
            self.arity,
            self.kinds,
            tuple(
                _joined(kind, head, rows)
                for kind, head, rows in zip(self.kinds, self.columns, tail.columns)
            ),
            self.dead + tail.dead,
        )

    def with_record(self, slot: int, record) -> "RafPage":
        """This page with ``record``, which fits its columns, live in
        ``slot``: one row rewritten."""
        if not 0 <= slot < len(self.dead):
            raise IndexError(slot)
        fields = (record,) if self.arity is None else record
        columns = tuple(
            _with_cell(kind, column, slot, value)
            for kind, column, value in zip(self.kinds, self.columns, fields)
        )
        return RafPage(self.arity, self.kinds, columns, self._marked(slot, 0))

    def with_tombstone(self, slot: int) -> "RafPage":
        """This page with the record in ``slot`` deleted."""
        if not 0 <= slot < len(self.dead):
            raise IndexError(slot)
        return RafPage(self.arity, self.kinds, self.columns, self._marked(slot, 1))

    def _marked(self, slot: int, flag: int) -> bytes:
        if self.dead[slot] == flag:
            return self.dead
        dead = bytearray(self.dead)
        dead[slot] = flag
        return bytes(dead)


@functools.lru_cache(maxsize=64)
def _header_bytes(schema) -> int:
    """What a page of ``schema`` pickles to beyond its payload: its empty
    form, plus 3 bytes for each raw buffer (the mask, one a column, two for
    a str column) whose length outgrows its one-byte pickle encoding, and 1
    for each buffer but the first, which the empty form pickles as a 2-byte
    reference to its one empty ``bytes`` and a page as a buffer of its own
    (a 1-byte memo entry more)."""
    empty = RafPage.encode([], schema)
    buffers = 1 + sum({"o": 0, "s": 2}.get(spec[0], 1) for spec in schema[1])
    return len(pickle.dumps(empty, protocol=_PROTOCOL)) + 4 * buffers - 1


# the locator length a write may always reach: 384 KB at 4 KB pages
_LOCATOR_FLOOR = 1 << 16


class IdOutOfBounds(ValueError):
    """An object id past what the RAF's dense locator may grow to."""


class RandomAccessFile:
    """Append-organised record file over a :class:`~repro.storage.pager.Pager`,
    addressed by object id.

    Args:
        pager: page allocator/IO with PA counting (shared with the index).
    """

    def __init__(self, pager: Pager):
        self.pager = pager
        self._open_page_id: int | None = None
        # the open page as last written (copy-on-write: the pool may hold it)
        self._open_page: RafPage | None = None
        self._open_bytes = 0  # its payload, as sizing charged it
        self._count = 0  # live records

    # the locator: an object id's page and slot; page -1 (slot 0) where it
    # never had a record, ``-2 - page`` (its slot kept) where its record was
    # deleted; these empty class-level arrays until the first write
    _pages = np.empty(0, np.int32)
    _slots = np.empty(0, np.uint16)

    def _slot_dtype(self) -> np.dtype:
        """The narrowest unsigned dtype holding every number below the page
        size: a slot's (each row costs its tombstone byte at least)."""
        return np.min_scalar_type(self.pager.page_size)

    def _limit(self, schema) -> int:
        """Payload bytes a page of ``schema`` takes (header charged)."""
        size = self.pager.page_size
        # a pickle frame header (9 B) for every 64 KiB of a large page
        return size - _header_bytes(schema) - 9 * (size >> 16)

    # -- the locator ------------------------------------------------------------

    def __contains__(self, object_id) -> bool:
        """Whether ``object_id`` has a live record."""
        return 0 <= object_id < len(self._pages) and self._pages.item(object_id) >= 0

    def __len__(self) -> int:
        """The number of live records."""
        return self._count

    def live(self, ids) -> np.ndarray:
        """A bool mask: which of ``ids`` (non-negative) have a live record."""
        ids = np.asarray(ids, dtype=np.int64)
        mask = ids < len(self._pages)  # then, of those, the live ones
        mask[mask] = self._pages[ids[mask]] >= 0
        return mask

    def page_order(self, ids) -> list[int]:
        """``ids`` (each live) sorted by where their records lie: page,
        then slot -- the order that reads each page once."""
        ids = np.asarray(ids, dtype=np.int64)
        return ids[np.lexsort((self._slots[ids], self._pages[ids]))].tolist()

    def locator_bytes(self) -> int:
        """The locator's memory, an id up to the largest written: a 4 B page
        and a slot as wide as the page size needs (2 B up to 64 KB pages)."""
        return self._pages.nbytes + self._slots.nbytes

    def _where(self, object_id) -> tuple[int, int]:
        """``(page, slot)`` of a live record; KeyError when there is none."""
        if object_id not in self:
            raise KeyError(f"object {object_id} has no live record")
        return self._pages.item(object_id), self._slots.item(object_id)

    def _put_back(self, object_id: int, record) -> bool:
        """Write ``record`` into the slot the delete of ``object_id`` freed,
        if that slot is still a tombstone and the record fits the page's own
        columns in the bytes the deleted one took (one write of the page,
        which then stores what it did before the delete); False otherwise."""
        page_id, slot = -2 - self._pages.item(object_id), self._slots.item(object_id)
        page = self.pager.read(page_id)
        schema = page.schema
        nbytes = _record_bytes(schema, record)
        if not page.dead[slot] or nbytes is None or nbytes != _record_bytes(schema, page.cells(slot)):
            return False
        self._write(page_id, page.with_record(slot, record))
        self._pages[object_id] = page_id
        return True

    def _reserve(self, top: int) -> None:
        """Grow the locator (by an eighth at least) to hold the ids below
        ``top``."""
        size = len(self._pages)
        if top <= size:
            return
        grown = max(top, size + size // 8)
        pages, slots = np.full(grown, -1, np.int32), np.zeros(grown, self._slot_dtype())
        pages[:size], slots[:size] = self._pages, self._slots
        self._pages, self._slots = pages, slots

    def _locate(self, ids, pages, slots) -> None:
        """Point ``ids`` at their new rows (``pages`` / ``slots``: an array
        or one value each), growing the locator to hold the largest."""
        if not len(ids):
            return
        self._reserve(int(ids.max()) + 1)
        self._pages[ids] = pages
        self._slots[ids] = slots

    # -- writes -------------------------------------------------------------------

    def append(self, record: tuple) -> None:
        """Write one ``(id, obj, ...)`` record (one page write): the
        one-row view of :meth:`append_many`."""
        self.append_many(tuple([value] for value in record))

    def append_many(self, fields) -> None:
        """Write records given as field columns, the object ids first.

        ``fields`` is a tuple of one column a field -- say an integer id
        array and ``dataset.gather(order)``, a block for vectors and a list
        for strings -- for ``(id, obj, ...)`` records; the ids are
        non-negative, distinct and without a live record, and the id column
        fills the locator.  The one write body of the file.  An id with a
        dead address is put back into its freed slot when the record fits
        it (module docstring), one write of that page each; the rest
        append.  Rows are packed
        greedily by their computed size against the page's limit,
        continuing the page left open by the previous call, a page always
        taking at least one row.  The rows are taken a run of one schema at
        a time: a run of fixed-width rows fills ``room // row`` of them a
        page, variable-width ones are cut at a cumulative sum, and a page
        full of the run's rows is followed by one of the same schema.  A row
        with no place in the open page's columns starts a page of its own
        schema.  Every page is handed to the pager once, its new rows
        sliced off the columns and appended to its own -- so a bulk build
        costs one write per page, a single :meth:`append` one write.
        """
        if type(fields) is not tuple or not fields:
            raise ValueError("records are (id, ...) field columns, the object ids first")
        columns = list(map(_Column, fields))
        arity, n = len(columns), len(columns[0])
        if any(len(column) != n for column in columns):
            raise ValueError("record field columns differ in length")
        if n and not {*(columns[0].specs or [columns[0].spec])} <= {_INT32, _INT}:
            raise ValueError("object ids must be int64 integers")
        ids = np.asarray(columns[0].values, dtype=np.int64)
        if n and (ids.min() < 0 or self.live(ids).any()):
            raise ValueError("object ids must be non-negative and without a live record")
        bound = max(2 * (len(self._pages) + n), _LOCATOR_FLOOR)
        if n and ids.max() >= bound:
            raise IdOutOfBounds(
                f"object id {int(ids.max())} is past {bound}: the locator is dense in "
                f"the id and grows at most to twice its length, or to {_LOCATOR_FLOOR}"
            )
        if n:  # the locator to the largest id, each page's rows pointed at as it goes
            self._reserve(int(ids.max()) + 1)
            back = [
                r
                for r in np.flatnonzero(self._pages[ids] <= -2).tolist()
                if self._put_back(ids.item(r), tuple(c.objects(r, r + 1)[0] for c in columns))
            ]
            if back:  # the rest append
                self._count += len(back)
                rest = np.delete(np.arange(n), back)
                columns = [_Column(_rows_of(c.values, rest)) for c in columns]
                ids, n = ids[rest], len(rest)
        page_id, page, used = self._open_page_id, self._open_page, self._open_bytes
        schema = None if page is None else page.schema
        if n and schema == _PICKLED:
            # a page of bare pickled values takes a record whole -- and so
            # does every page after it, whose schema the records fit
            records = list(zip(*(column.objects(0, n) for column in columns)))
            arity, columns = None, [_Column(records)]
        lo, carried = 0, page is not None
        while lo < n:
            end = _run_end(schema, arity, columns, lo)
            if end == lo:  # no place on the open page: a page of its own schema
                schema, carried = (arity, tuple(c.spec_at(lo) for c in columns)), False
                end = _run_end(schema, arity, columns, lo)
            specs, kinds = schema[1], "".join(spec[0] for spec in schema[1])
            limit = self._limit(schema)
            rows = 1  # each row's bytes: its tombstone and its fields
            for column, spec in zip(columns, specs):
                rows = rows + column.bytes_as(spec, lo, end)
            room = limit - used if carried else None
            for count, nbytes, new in _page_cuts(rows, end - lo, room, limit):
                if new:
                    page_id, page, used = self.pager.allocate(), None, 0
                hi = lo + count
                columns_in = tuple(c.encode(spec, lo, hi) for c, spec in zip(columns, specs))
                fresh = RafPage(arity, kinds, columns_in, bytes(count))
                first = 0 if page is None else len(page)
                page = fresh if page is None else page.joined(fresh)
                self._locate(ids[lo:hi], page_id, np.arange(first, first + count))
                used += nbytes
                self.pager.write(page_id, page)
                lo = hi
            carried = False
        self._open_page_id, self._open_page, self._open_bytes = page_id, page, used
        self._count += n

    def update(self, object_id: int, record: tuple) -> None:
        """Replace an id's record: :meth:`mark_deleted`, then
        :meth:`append` of ``record``, which takes the freed slot when it
        fits there (module docstring) and appends otherwise."""
        self._where(object_id)
        if type(record) is not tuple or record[:1] != (object_id,):
            raise ValueError(f"the record of object {object_id} must start with its id")
        self.mark_deleted(object_id)
        self.append(record)

    def mark_deleted(self, object_id: int) -> Any:
        """Tombstone an id's record (slot positions stay stable), leave the
        id its dead address (``-2 - page``, the slot kept) and return the
        record; KeyError when the id has no live record."""
        page_id, slot = self._where(object_id)
        old = self.pager.read(page_id)
        self._write(page_id, old.with_tombstone(slot))
        self._pages[object_id] = -2 - page_id
        self._count -= 1
        return old.record(slot)

    def _write(self, page_id: int, page: RafPage) -> None:
        """Write ``page`` over the page ``page_id`` (the open one too)."""
        self.pager.write(page_id, page)
        if page_id == self._open_page_id:
            self._open_page = page

    # -- reads ----------------------------------------------------------------------

    def read(self, object_id: int) -> Any:
        """Fetch an id's record (one page access on cache miss)."""
        page_id, slot = self._where(object_id)
        return self.pager.read(page_id).record(slot)

    def read_many(self, ids) -> list[Any]:
        """Fetch a batch of ids' records with each distinct page read once.

        The storage half of the external category's grouped candidate
        fetching: records are resolved page-first through
        :meth:`~repro.storage.pager.Pager.read_many`, so however many
        queries of a batch share a record page, it costs one read (repeats
        are counted as ``grouped_hits``).  Records come back in input order.
        """
        where = [self._where(object_id) for object_id in ids]
        with tracing.span("raf_read_many", records=len(where)):
            pages = self.pager.read_many(page_id for page_id, _ in where)
        return [pages[page_id].record(slot) for page_id, slot in where]

    def read_cached(self, cache, object_id: int) -> Any:
        """Fetch an id's record through a batch-scoped page cache.

        The lazy counterpart of :meth:`read_many` for best-first MkNNQ:
        ``cache`` is a :class:`~repro.storage.pager.BatchReadCache`, so the
        record's page is read at most once per batch no matter how many
        queries pop candidates from it.  ``cache`` None is :meth:`read`.
        """
        if cache is None:
            return self.read(object_id)
        page_id, slot = self._where(object_id)
        return cache.read(page_id).record(slot)
