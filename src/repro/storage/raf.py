"""Random Access File: the separate object store of the Omni / M-index / SPB.

The Omni-family, M-index and SPB-tree keep the real objects (optionally with
their pre-computed pivot distances) out of the index structure, in a
sequential record file addressed by (page, slot) pointers.  Reading a record
costs one page access unless the page is cached -- the paper's duplicate-RAF-
access discussion for MkNNQ is exactly about this.

Records are grouped into pages greedily in insertion order, mirroring the
sequential layout the paper describes; M-index and SPB-tree pass records in
cluster/SFC order so that proximate objects share pages.

Writing has one body, :meth:`RandomAccessFile.append_many`: an index under
construction passes all of its records in one call and every RAF page is
handed to the pager once, when it is full (the last one when the call
ends), so a construction page access is a page of the finished file and
not a record.  :meth:`RandomAccessFile.append` is the one-record view of
the same body -- the insert path -- and costs one write of the open page.

**Page format.**  A page is one :class:`RafPage`: its records stored by
field, a column per field, and one tombstone byte per slot::

    field of the records        column                      bytes a record
    int (fits int64)            int64 array                 8
    ndarray (one dtype, shape)  (slots, *shape) block       nbytes
    str                         UTF-8 blob + int32 ends     encoded length + 4
    anything else               list, pickled with the page its pickled length
    (tombstone)                 bytes mask, 1 = deleted     1

A page holds records of one *schema* -- the same arity (or bare values) and
the same column for each field -- and a record of another schema starts a
new page.  A record's size is that arithmetic over its fields; only a field
with no columnar form (the last row) is sized by pickling it.  A page
pickles each column as raw bytes (``_packed``), so its stored size is its
payload plus a header of ~90 B: what the page's empty form pickles to, plus
3 B for each buffer whose length outgrows a one-byte encoding.  The header
is charged once per page against the ``fill_factor`` budget -- a page takes
records while ``header + payload <= page_size * fill_factor`` -- so a stored
page never spans two pages unless a single record does.  ``read`` /
``read_many`` / ``read_cached`` return ``(id, obj, ...)`` tuples by slot (or
the bare value), an array field as a row view of its block, ``None`` for a
tombstone.

Pages are copy-on-write: ``append`` adds one row to the open page's
columns, ``update`` rewrites one row, ``mark_deleted`` sets one tombstone
byte, each into a new page object, so a node the buffer pool already holds
never changes under it.  Pages written as pickled record lists (the format
before this one) are read as they are and re-encoded on their first write.
"""

from __future__ import annotations

import functools
import pickle
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from ..obs import tracing
from .pager import Pager

__all__ = ["RecordPointer", "RandomAccessFile", "RafPage"]

_PROTOCOL = pickle.HIGHEST_PROTOCOL

# field specs: the column a field value is stored in
_INT = ("i",)  # int64 array
_STR = ("s",)  # UTF-8 blob + int32 end offsets
_OBJ = ("o",)  # list, pickled with the page; ("a", dtype, shape) is a block
_PICKLED = (None, (_OBJ,))  # the schema any records fit
_INT64_MIN, _INT64_END = -(1 << 63), 1 << 63


@dataclass(frozen=True)
class RecordPointer:
    """Stable address of one record: page id + slot within the page."""

    page_id: int
    slot: int


def _field_bytes(spec, value) -> int | None:
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
    if kind == "i":
        if type(value) is int and _INT64_MIN <= value < _INT64_END:
            return 8
        return None
    if kind == "s":
        if type(value) is str:
            try:
                return len(value.encode()) + 4
            except UnicodeEncodeError:  # lone surrogates
                return None
        return None
    return len(pickle.dumps(value, protocol=_PROTOCOL))


def _spec_of(value):
    """The most specific column ``value`` can live in."""
    if type(value) is int:
        spec = _INT
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
    return spec if _field_bytes(spec, value) is not None else _OBJ


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
        nbytes = _field_bytes(spec, value)
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


def _blank(schema):
    """The placeholder record under a tombstone that has no record."""
    values = []
    for spec in schema[1]:
        if spec[0] == "a":
            values.append(np.zeros(spec[2], dtype=spec[1]))
        else:
            values.append({"i": 0, "s": "", "o": None}[spec[0]])
    return tuple(values) if schema[0] is not None else values[0]


def _column(spec, values):
    kind = spec[0]
    if kind == "a":
        return np.array(values, dtype=spec[1]).reshape(len(values), *spec[2])
    if kind == "i":
        return np.array(values, dtype=np.int64)
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
    if kind == "i":
        return int(column[slot])
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


def _packed(kind, column):
    """A column as a page pickles it: raw bytes, not an ndarray (whose
    pickle costs ~100 B of header)."""
    if kind == "a":
        return column.dtype.str, column.shape[1:], column.tobytes()
    if kind == "i":
        return column.tobytes()
    if kind == "s":
        return column[0], column[1].tobytes()
    return column


def _unpacked(kind, packed):
    """The column back from its packed form, arrays as read-only views."""
    if kind == "a":
        dtype, shape, raw = packed
        return np.frombuffer(raw, dtype=dtype).reshape(-1, *shape)
    if kind == "i":
        return np.frombuffer(packed, dtype=np.int64)
    if kind == "s":
        return packed[0], np.frombuffer(packed[1], dtype=np.int32)
    return packed


def _page_from(arity, kinds, packed, dead):
    return RafPage(arity, kinds, tuple(map(_unpacked, kinds, packed)), dead)


class RafPage:
    """One RAF page: a column per record field plus a tombstone mask.

    ``kinds`` names each field's column (``i`` / ``a`` / ``s`` / ``o``, see
    the module docstring), ``arity`` is the records' tuple length (None for
    bare values), ``dead`` has one byte per slot.  Immutable by convention:
    every write builds a new page.
    """

    __slots__ = ("arity", "kinds", "columns", "dead")

    def __init__(self, arity, kinds: str, columns: tuple, dead: bytes):
        self.arity = arity
        self.kinds = kinds
        self.columns = columns
        self.dead = dead

    def __reduce__(self):
        packed = tuple(map(_packed, self.kinds, self.columns))
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
            tuple(_column(spec, values) for spec, values in zip(specs, fields)),
            bytes(len(records)),
        )

    @classmethod
    def from_records(cls, records) -> "RafPage":
        """A page of any records, ``None`` standing for a tombstone (the
        form of a page written as a pickled record list)."""
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
                total += sum(_field_bytes(_OBJ, value) for value in column)
            else:
                total += column.nbytes
        return total

    def record(self, slot: int):
        """The record in ``slot`` (None under a tombstone); IndexError past
        the last slot."""
        if self.dead[slot]:
            return None
        values = [
            _cell(kind, column, slot)
            for kind, column in zip(self.kinds, self.columns)
        ]
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
        """This page with ``record`` in ``slot``: one row rewritten, or --
        a record of another schema -- the page re-encoded to fit it."""
        if record is None:
            return self.with_tombstone(slot)
        if not 0 <= slot < len(self.dead):
            raise IndexError(slot)
        if _record_bytes(self.schema, record) is None:
            records = self.records()
            records[slot] = record
            return RafPage.from_records(records)
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
    a str column) whose length outgrows its one-byte pickle encoding."""
    empty = RafPage.encode([], schema)
    buffers = 1 + sum({"o": 0, "s": 2}.get(spec[0], 1) for spec in schema[1])
    return len(pickle.dumps(empty, protocol=_PROTOCOL)) + 3 * buffers


def _record_at(page, pointer: RecordPointer):
    try:
        if type(page) is list:  # a page of the pickled-list format
            return page[pointer.slot]
        return page.record(pointer.slot)
    except (IndexError, TypeError):
        raise KeyError(f"no record at {pointer}") from None


class RandomAccessFile:
    """Append-organised record file over a :class:`~repro.storage.pager.Pager`.

    Args:
        pager: page allocator/IO with PA counting (shared with the index).
        fill_factor: fraction of the page size a page is filled to, header
            included, before a new page opens; < 1 leaves slack so updated
            records can be rewritten in place without overflowing.
    """

    def __init__(self, pager: Pager, fill_factor: float = 0.9):
        if not 0 < fill_factor <= 1:
            raise ValueError(f"fill_factor must be in (0, 1], got {fill_factor}")
        self.pager = pager
        self.fill_factor = fill_factor
        self._open_page_id: int | None = None
        # the open page as last written (copy-on-write: the pool may hold it)
        self._open_page: RafPage | None = None
        self._open_bytes = 0  # its payload, as sizing charged it
        self._count = 0

    def __setstate__(self, state):
        records = state.pop("_open_records", None)
        self.__dict__.update(state)
        if records is not None:
            # pickled with a list-format open page: the next append
            # re-encodes it with the record it adds
            self._open_page = RafPage.from_records(records) if records else None
            self._open_bytes = self._open_page.payload_bytes() if records else 0

    def _limit(self, schema) -> int:
        """Payload bytes a page of ``schema`` takes (header charged)."""
        budget = int(self.pager.page_size * self.fill_factor)
        # a pickle frame header (9 B) for every 64 KiB of a large page
        return budget - _header_bytes(schema) - 9 * (budget >> 16)

    def append(self, record: Any) -> RecordPointer:
        """Write one record, returning its pointer (one page write)."""
        return self.append_many((record,))[0]

    def append_many(self, records: Iterable[Any]) -> list[RecordPointer]:
        """Write records in order, returning their pointers.

        The one write body of the file.  Records are packed greedily by
        their computed size against the page's limit, continuing the page
        left open by the previous call, and every page is handed to the
        pager once: when the next record no longer fits (or is of another
        schema), or -- the open page -- when the call ends, its new rows
        appended to its columns.  A bulk build therefore costs one write
        per page, a single ``append`` one write.
        """
        pointers: list[RecordPointer] = []
        page_id, page, used = self._open_page_id, self._open_page, self._open_bytes
        schema = page.schema if page is not None else None
        limit = self._limit(schema) if schema is not None else 0
        first = len(page) if page is not None else 0  # slot of rows[0]
        rows: list[Any] = []
        for record in records:
            nbytes = _record_bytes(schema, record) if page_id is not None else None
            if nbytes is None or used + nbytes > limit:
                if rows:
                    # full, and this call put rows there; a page carried
                    # over untouched was written by the call before
                    self.pager.write(page_id, self._grown(page, rows, schema))
                if nbytes is None:
                    schema = _schema_of(record)
                    nbytes = _record_bytes(schema, record)
                    limit = self._limit(schema)
                page_id, page, used, first, rows = self.pager.allocate(), None, 0, 0, []
            pointers.append(RecordPointer(page_id, first + len(rows)))
            rows.append(record)
            used += nbytes
        if rows:
            page = self._grown(page, rows, schema)
            self.pager.write(page_id, page)
        self._open_page_id, self._open_page, self._open_bytes = page_id, page, used
        self._count += len(pointers)
        return pointers

    @staticmethod
    def _grown(page, rows, schema) -> RafPage:
        fresh = RafPage.encode(rows, schema)
        return fresh if page is None else page.joined(fresh)

    def read(self, pointer: RecordPointer) -> Any:
        """Fetch one record (one page access on cache miss)."""
        return _record_at(self.pager.read(pointer.page_id), pointer)

    def read_many(self, pointers) -> list[Any]:
        """Fetch a batch of records with each distinct page read once.

        The storage half of the external category's grouped candidate
        fetching: pointers are resolved page-first through
        :meth:`~repro.storage.pager.Pager.read_many`, so however many
        queries of a batch share a record page, it costs one read (repeats
        are counted as ``grouped_hits``).  Records come back in input order.
        """
        pointers = list(pointers)
        with tracing.span("raf_read_many", records=len(pointers)):
            pages = self.pager.read_many(p.page_id for p in pointers)
        return [_record_at(pages[pointer.page_id], pointer) for pointer in pointers]

    def read_cached(self, cache, pointer: RecordPointer) -> Any:
        """Fetch one record through a batch-scoped page cache.

        The lazy counterpart of :meth:`read_many` for best-first MkNNQ:
        ``cache`` is a :class:`~repro.storage.pager.BatchReadCache`, so the
        record's page is read at most once per batch no matter how many
        queries pop candidates from it.
        """
        return _record_at(cache.read(pointer.page_id), pointer)

    def update(self, pointer: RecordPointer, record: Any) -> None:
        """Rewrite a record in place (one row of the page's columns)."""
        page = self._rewrite(
            pointer, lambda page: page.with_record(pointer.slot, record)
        )
        if pointer.page_id == self._open_page_id:
            self._open_bytes = page.payload_bytes()

    def mark_deleted(self, pointer: RecordPointer) -> None:
        """Tombstone a record (slot positions must stay stable)."""
        self._rewrite(pointer, lambda page: page.with_tombstone(pointer.slot))

    def _rewrite(self, pointer: RecordPointer, change) -> RafPage:
        """Write ``change(page)`` over the pointer's page; returns it."""
        page = self.pager.read(pointer.page_id)
        if type(page) is list:  # the pickled-list format: re-encoded now
            page = RafPage.from_records(page)
        try:
            page = change(page)
        except IndexError:
            raise KeyError(f"no record at {pointer}") from None
        self.pager.write(pointer.page_id, page)
        if pointer.page_id == self._open_page_id:
            self._open_page = page
        return page

    def __len__(self) -> int:
        return self._count
