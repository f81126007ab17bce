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
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Iterable

from ..obs import tracing
from .pager import Pager

__all__ = ["RecordPointer", "RandomAccessFile"]


@dataclass(frozen=True)
class RecordPointer:
    """Stable address of one record: page id + slot within the page."""

    page_id: int
    slot: int


class RandomAccessFile:
    """Append-organised record file over a :class:`~repro.storage.pager.Pager`.

    Args:
        pager: page allocator/IO with PA counting (shared with the index).
        fill_factor: fraction of the page size to fill before opening a new
            page; < 1 leaves slack so updated records can be rewritten in
            place without overflowing.
    """

    def __init__(self, pager: Pager, fill_factor: float = 0.9):
        if not 0 < fill_factor <= 1:
            raise ValueError(f"fill_factor must be in (0, 1], got {fill_factor}")
        self.pager = pager
        self.fill_factor = fill_factor
        self._open_page_id: int | None = None
        self._open_records: list[Any] = []
        self._open_bytes = 0
        self._count = 0

    def _record_bytes(self, record: Any) -> int:
        return len(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))

    def _budget(self) -> int:
        return int(self.pager.page_size * self.fill_factor)

    def append(self, record: Any) -> RecordPointer:
        """Write one record, returning its pointer (one page write)."""
        return self.append_many((record,))[0]

    def append_many(self, records: Iterable[Any]) -> list[RecordPointer]:
        """Write records in order, returning their pointers.

        The one write body of the file.  Records are packed greedily by
        their measured pickled size against the ``fill_factor`` budget,
        continuing the page left open by the previous call, and every page
        is handed to the pager once: when the next record no longer fits,
        or -- the open page -- when the call ends.  A bulk build therefore
        costs one write per page, a single ``append`` one write.
        """
        budget = self._budget()
        pointers: list[RecordPointer] = []
        for record in records:
            nbytes = self._record_bytes(record)
            if self._open_page_id is None or (
                self._open_bytes + nbytes > budget and self._open_records
            ):
                if pointers:
                    # full, and this call put its last record there; a page
                    # carried over untouched was written by the call before
                    self.pager.write(self._open_page_id, self._open_records)
                self._open_page_id = self.pager.allocate()
                self._open_records = []
                self._open_bytes = 0
            self._open_records.append(record)
            self._open_bytes += nbytes
            self._count += 1
            pointers.append(
                RecordPointer(self._open_page_id, len(self._open_records) - 1)
            )
        if pointers:
            # a copy: the open page keeps growing under later calls
            self.pager.write(self._open_page_id, list(self._open_records))
        return pointers

    def read(self, pointer: RecordPointer) -> Any:
        """Fetch one record (one page access on cache miss)."""
        records = self.pager.read(pointer.page_id)
        try:
            return records[pointer.slot]
        except (IndexError, TypeError):
            raise KeyError(f"no record at {pointer}") from None

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
            nodes = self.pager.read_many(p.page_id for p in pointers)
        out = []
        for pointer in pointers:
            try:
                out.append(nodes[pointer.page_id][pointer.slot])
            except (IndexError, TypeError):
                raise KeyError(f"no record at {pointer}") from None
        return out

    def read_cached(self, cache, pointer: RecordPointer) -> Any:
        """Fetch one record through a batch-scoped page cache.

        The lazy counterpart of :meth:`read_many` for best-first MkNNQ:
        ``cache`` is a :class:`~repro.storage.pager.BatchReadCache`, so the
        record's page is read at most once per batch no matter how many
        queries pop candidates from it.
        """
        records = cache.read(pointer.page_id)
        try:
            return records[pointer.slot]
        except (IndexError, TypeError):
            raise KeyError(f"no record at {pointer}") from None

    def update(self, pointer: RecordPointer, record: Any) -> None:
        """Rewrite a record in place."""
        records = self.pager.read(pointer.page_id)
        if pointer.slot >= len(records):
            raise KeyError(f"no record at {pointer}")
        records = list(records)
        records[pointer.slot] = record
        self.pager.write(pointer.page_id, records)
        if pointer.page_id == self._open_page_id:
            self._open_records = records

    def mark_deleted(self, pointer: RecordPointer) -> None:
        """Tombstone a record (slot positions must stay stable)."""
        self.update(pointer, None)

    def __len__(self) -> int:
        return self._count
