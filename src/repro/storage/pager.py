"""Simulated disk: a page store with access counting and a buffer pool.

The paper's external indexes are evaluated by page accesses (PA) on 4 KB
pages (40 KB for CPT / PM-tree on the high-dimensional datasets) with a
128 KB LRU cache for MkNNQ.  We reproduce that substrate:

* :class:`PageStore` keeps pages as pickled bytes ("the disk").  Every read
  or write of a page increments the shared :class:`~repro.core.counters.
  CostCounters`; reads served by the buffer pool are counted separately as
  ``buffer_hits`` so ``page_reads`` stays a cold-I/O count.
* :class:`BufferPool` is an LRU write-back cache in front of the store.
  Its capacity is expressed in bytes, like the paper's 128 KB cache.
* :meth:`Pager.read_many` is the batch read path: each distinct page is
  read once per call, repeats are counted as ``grouped_hits``;
  :func:`page_ordered_chunks` feeds it a batch's candidates in page order,
  ``FETCH_CHUNK`` at a time.

Indexes never touch pickled bytes directly -- they read and write Python
node objects; serialisation happens at the store boundary so that reported
storage sizes are real serialised sizes.  What a node may hold is decided
before it gets here: a B+-tree leaf by one pickled entry's size, an RAF page
(:class:`~repro.storage.raf.RafPage`) by arithmetic -- an int64 column per
int field, one ``(slots, *shape)`` block per array field, a UTF-8 blob and
int32 ends per str field, one tombstone byte a slot, and the page's pickle
header charged once against ``page_size`` -- so a stored RAF page fills
the page and never spans two pages unless one record does.

A page crosses that boundary with **one** pickle.  A pool of capacity 0 (the
construction configuration) writes straight through, so a counted
construction PA is one ``pickle.dumps`` of one page; a read miss is one
``pickle.loads``, and the pool admits the node under the length of the blob
the store has just read instead of pickling it again to measure it.  The
only size probe left is for a dirty node entering a pool that may hold it:
nothing has been stored yet, and the LRU needs its size.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from typing import Any

import numpy as np

from ..core.counters import CostCounters
from ..obs.tracing import add_event

__all__ = [
    "PageStore",
    "BufferPool",
    "Pager",
    "BatchReadCache",
    "DEFAULT_PAGE_SIZE",
    "FETCH_CHUNK",
    "page_ordered_chunks",
]

DEFAULT_PAGE_SIZE = 4096

# candidates resident in memory at once during batch verification; the
# disk indexes' premise is that objects only fit on disk, so the union of
# a big batch's candidates must not be materialised wholesale
FETCH_CHUNK = 1024


def page_ordered_chunks(ids, page_order, fetch):
    """Fetch the distinct ``ids`` in page order, ``FETCH_CHUNK`` at a time.

    ``page_order(distinct)`` sorts the distinct ids by the page holding
    them and ``fetch(chunk)`` returns their objects or records in chunk
    order (through :meth:`Pager.read_many`), so every touched page is read
    at most once per chunk -- only a chunk-boundary page can be read
    twice -- and candidates sharing a page ride along as ``grouped_hits``.
    Yields one ``{id: fetched}`` dict a chunk: the one copy of the bounded,
    page-grouped fetch every eager verification of a batch shares.
    """
    ordered = page_order(list(dict.fromkeys(ids)))
    for start in range(0, len(ordered), FETCH_CHUNK):
        chunk = ordered[start : start + FETCH_CHUNK]
        yield dict(zip(chunk, fetch(chunk)))


def _rebuild_page_store(page_size, next_id, directory, empty_ids, region):
    """Rebuild a :class:`PageStore` from its snapshot-region form.

    ``region`` is one flat uint8 buffer holding every written page's blob
    back to back, ``directory`` maps page id -> (offset, length) into it.
    Restored from a snapshot the buffer arrives as a ``np.memmap``, so
    the store starts with **zero** pages materialised -- blobs fault in
    from the OS page cache on first read.  Counters are rebound by
    ``load_index`` after restore.
    """
    store = PageStore.__new__(PageStore)
    store.page_size = int(page_size)
    store.counters = CostCounters()
    store._pages = {int(pid): b"" for pid in empty_ids}
    store._next_id = int(next_id)
    store._lazy = {int(pid): (int(o), int(n)) for pid, (o, n) in directory.items()}
    store._region = region
    return store


class PageStore:
    """Fixed-page-size backing store with PA counting.

    Args:
        page_size: logical page size in bytes; a node larger than one page
            occupies ``ceil(size / page_size)`` pages and costs that many
            accesses (the paper's large-page configurations are modelled by
            passing 40960).
        counters: shared cost counters (same object as the metric space's).

    Pages live in ``_pages`` (page id -> pickled bytes) or -- after a
    snapshot restore -- in ``_lazy`` (page id -> (offset, length) into the
    shared ``_region`` buffer, usually a memmap).  ``_pages`` always wins:
    the first :meth:`write` to a lazy page moves it there, so the region
    stays an immutable snapshot image while the store stays fully mutable.
    """

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        counters: CostCounters | None = None,
    ):
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        self.page_size = page_size
        self.counters = counters if counters is not None else CostCounters()
        self._pages: dict[int, bytes] = {}
        self._next_id = 0
        self._lazy: dict[int, tuple[int, int]] = {}
        self._region = None

    def allocate(self) -> int:
        """Reserve a new page id (no I/O counted)."""
        page_id = self._next_id
        self._next_id += 1
        self._pages[page_id] = b""
        return page_id

    def write(self, page_id: int, node: Any) -> None:
        """Serialise ``node`` into the page, counting write accesses."""
        if page_id not in self._pages and page_id not in self._lazy:
            raise KeyError(f"page {page_id} was never allocated")
        blob = pickle.dumps(node, protocol=pickle.HIGHEST_PROTOCOL)
        self._pages[page_id] = blob
        self._lazy.pop(page_id, None)
        self.counters.add_page_write(self.pages_spanned(len(blob)))

    def read(self, page_id: int) -> Any:
        """Deserialise the page content, counting read accesses."""
        blob = self._pages.get(page_id)
        if blob is None:
            span = self._lazy.get(page_id)
            if span is None:
                raise KeyError(f"page {page_id} was never allocated")
            offset, length = span
            self.counters.add_page_read(self.pages_spanned(length))
            add_event("page_reads", self.pages_spanned(length))
            # a contiguous uint8 slice satisfies the buffer protocol, so
            # unpickling reads straight out of the mapped snapshot region
            return pickle.loads(self._region[offset : offset + length])
        if not blob:
            raise KeyError(f"page {page_id} was allocated but never written")
        self.counters.add_page_read(self.pages_spanned(len(blob)))
        add_event("page_reads", self.pages_spanned(len(blob)))
        return pickle.loads(blob)

    def free(self, page_id: int) -> None:
        self._pages.pop(page_id, None)
        self._lazy.pop(page_id, None)

    def pages_spanned(self, nbytes: int) -> int:
        """How many physical pages a node of ``nbytes`` occupies (>= 1)."""
        return max(1, -(-nbytes // self.page_size))

    def page_bytes(self, page_id: int) -> int:
        """Serialised size of one page's content."""
        blob = self._pages.get(page_id)
        if blob is not None:
            return len(blob)
        span = self._lazy.get(page_id)
        return span[1] if span is not None else 0

    def _blob_sizes(self):
        for page_id, blob in self._pages.items():
            if blob:
                yield page_id, len(blob)
        for page_id, (_offset, length) in self._lazy.items():
            yield page_id, length

    def total_bytes(self) -> int:
        """Total stored bytes, rounded up to whole pages (disk footprint)."""
        return sum(
            self.pages_spanned(length) * self.page_size
            for _pid, length in self._blob_sizes()
        )

    def __len__(self) -> int:
        return sum(1 for _ in self._blob_sizes())

    def _snapshot_state(self):
        """(directory, empty ids, packed uint8 buffer) for region snapshots.

        Every written page's blob is concatenated into one flat buffer;
        the snapshot pickler hands that buffer to the region writer and
        :func:`_rebuild_page_store` re-wraps it (as a memmap) on load.
        """
        directory: dict[int, tuple[int, int]] = {}
        chunks: list[bytes] = []
        empty: list[int] = []
        offset = 0
        for page_id in sorted(set(self._pages) | set(self._lazy)):
            blob = self._pages.get(page_id)
            if blob is None:
                o, n = self._lazy[page_id]
                blob = bytes(self._region[o : o + n])
            if not blob:
                empty.append(page_id)
                continue
            directory[page_id] = (offset, len(blob))
            chunks.append(blob)
            offset += len(blob)
        packed = np.frombuffer(b"".join(chunks), dtype=np.uint8)
        return directory, empty, packed


class BufferPool:
    """Byte-budgeted LRU write-back cache over a :class:`PageStore`.

    Reads served from the pool cost no page access (``page_reads`` stays a
    *cold* count); each hit is recorded as ``buffer_hits`` on the shared
    counters so measurements can tell real I/O from cache service.  Misses
    read through.  Writes are buffered (dirty) and flushed on eviction or
    :meth:`flush`.  A ``capacity_bytes`` of 0 disables caching entirely
    (every access goes to the store, with no size probe on the way), which
    is how construction-time PA is measured.
    """

    def __init__(self, store: PageStore, capacity_bytes: int = 128 * 1024):
        self.store = store
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[int, tuple[Any, int, bool]] = OrderedDict()
        self._used_bytes = 0
        self.hits = 0
        self.misses = 0

    def _node_bytes(self, node: Any) -> int:
        return len(pickle.dumps(node, protocol=pickle.HIGHEST_PROTOCOL))

    def read(self, page_id: int) -> Any:
        if page_id in self._entries:
            node, nbytes, dirty = self._entries.pop(page_id)
            self._entries[page_id] = (node, nbytes, dirty)
            self.hits += 1
            # the hit stands in for this many cold page reads
            self.store.counters.add_buffer_hit(self.store.pages_spanned(nbytes))
            add_event("buffer_hits", self.store.pages_spanned(nbytes))
            return node
        self.misses += 1
        node = self.store.read(page_id)
        # the store knows the length of the blob it has just unpickled
        self._admit(page_id, node, self.store.page_bytes(page_id), dirty=False)
        return node

    def write(self, page_id: int, node: Any) -> None:
        if page_id in self._entries:
            _, old_bytes, _ = self._entries.pop(page_id)
            self._used_bytes -= old_bytes
        if self.capacity_bytes <= 0:
            # write-through: the store's pickle is the only one
            self.store.write(page_id, node)
            return
        self._admit(page_id, node, self._node_bytes(node), dirty=True)

    def _admit(self, page_id: int, node: Any, nbytes: int, dirty: bool) -> None:
        if nbytes > self.capacity_bytes:
            # cannot hold it (never, at capacity 0): write / serve through
            if dirty:
                self.store.write(page_id, node)
            return
        self._entries[page_id] = (node, nbytes, dirty)
        self._used_bytes += nbytes
        while self._used_bytes > self.capacity_bytes and self._entries:
            victim_id, (victim, victim_bytes, victim_dirty) = self._entries.popitem(
                last=False
            )
            self._used_bytes -= victim_bytes
            if victim_dirty:
                self.store.write(victim_id, victim)

    def resident_bytes(self, page_id: int) -> int | None:
        """Serialised size of a pooled page's node, or None when absent.

        For a dirty (or never-flushed) page the pool's copy is the
        authoritative content -- the store still holds the previous blob
        (or nothing at all) -- so size-weighted accounting must prefer this
        over :meth:`PageStore.page_bytes`.  Does not touch the LRU order.
        """
        entry = self._entries.get(page_id)
        return entry[1] if entry is not None else None

    def flush(self) -> None:
        """Write all dirty pages back to the store (keeps them cached)."""
        for page_id, (node, nbytes, dirty) in list(self._entries.items()):
            if dirty:
                self.store.write(page_id, node)
                self._entries[page_id] = (node, nbytes, False)

    def drop(self) -> None:
        """Flush, then empty the pool (used between benchmark phases)."""
        self.flush()
        self._entries.clear()
        self._used_bytes = 0

    def invalidate(self, page_id: int) -> None:
        """Forget a cached page without writing it back (after free)."""
        entry = self._entries.pop(page_id, None)
        if entry is not None:
            self._used_bytes -= entry[1]


class Pager:
    """Store + buffer pool facade handed to disk-based indexes.

    One pager per index.  ``set_cache_bytes`` switches between the paper's
    configurations: 0 during construction (all accesses hit "disk") and
    128 KB during MkNNQ batches.
    """

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        counters: CostCounters | None = None,
        cache_bytes: int = 0,
    ):
        self.store = PageStore(page_size=page_size, counters=counters)
        self.pool = BufferPool(self.store, capacity_bytes=cache_bytes)

    @property
    def page_size(self) -> int:
        return self.store.page_size

    @property
    def counters(self) -> CostCounters:
        return self.store.counters

    def set_cache_bytes(self, capacity_bytes: int) -> None:
        """Resize the buffer pool (flushes and drops current contents)."""
        self.pool.drop()
        self.pool.capacity_bytes = capacity_bytes

    def allocate(self) -> int:
        return self.store.allocate()

    def read(self, page_id: int) -> Any:
        return self.pool.read(page_id)

    def read_many(self, page_ids) -> dict[int, Any]:
        """Batch read: each distinct page is read once, duplicates are free.

        Returns ``{page_id: node}`` for the distinct ids.  Requests beyond
        the first for the same page are counted as ``grouped_hits`` -- the
        I/O the batch saved over one :meth:`read` per request, weighted by
        the physical pages the node spans (the same weighting as
        ``buffer_hits`` and cold ``page_reads``) -- while the single real
        read per page is counted as usual (a cold ``page_read`` or a
        ``buffer_hit``).  This is the storage half of leaf-grouped candidate
        fetching (:meth:`repro.mtree.mtree.MTree.fetch_objects_many`).
        """
        nodes: dict[int, Any] = {}
        grouped = 0
        for page_id in page_ids:
            if page_id in nodes:
                grouped += self.grouped_weight(page_id)
                continue
            nodes[page_id] = self.pool.read(page_id)
        if grouped:
            self.counters.add_grouped_hit(grouped)
            add_event("grouped_hits", grouped)
        return nodes

    def write(self, page_id: int, node: Any) -> None:
        self.pool.write(page_id, node)

    def batch_reader(self) -> "BatchReadCache":
        """A batch-scoped read cache over this pager (see BatchReadCache)."""
        return BatchReadCache(self)

    def grouped_weight(self, page_id: int) -> int:
        """Spanned-page weight of one avoided re-read of ``page_id``.

        The shared accounting rule of :meth:`read_many` and
        :class:`BatchReadCache`: weight by the pooled node's serialised
        size when resident -- for a dirty or never-flushed page the
        store's blob is stale (or empty, which would flatten a multi-page
        node to 1) -- falling back to the store's blob size.
        """
        nbytes = self.pool.resident_bytes(page_id)
        if nbytes is None:
            nbytes = self.store.page_bytes(page_id)
        return self.store.pages_spanned(nbytes)

    def free(self, page_id: int) -> None:
        self.pool.invalidate(page_id)
        self.store.free(page_id)

    def flush(self) -> None:
        self.pool.flush()

    def prepare_snapshot(self) -> None:
        """Make the page store authoritative before serialisation.

        Dirty pages are written back and the buffer pool is emptied, so a
        snapshot carries exactly one copy of each page and a restored index
        starts with a cold cache -- the same state a process restart would
        leave a real disk-backed index in.
        """
        self.pool.drop()

    def disk_bytes(self) -> int:
        self.pool.flush()
        return self.store.total_bytes()


class BatchReadCache:
    """Read-through page cache scoped to one batch of queries.

    The lazy batch paths (best-first MkNNQ over RAF-backed indexes) cannot
    know their full page working set up front the way
    :meth:`Pager.read_many` requires, yet must still read each touched page
    at most once per batch.  A ``BatchReadCache`` memoises nodes for the
    duration of one ``*_query_many`` call: the first read of a page goes
    through the pager (a cold ``page_read`` or a ``buffer_hit``, as usual);
    every repeat is served from the memo and counted as a ``grouped_hit``
    with the same spanned-page weighting ``read_many`` uses -- the I/O the
    batch saved over the sequential loop's re-reads.

    The cache holds deserialised nodes, so it must not outlive the batch
    (drop it when the call returns) and must never be used across writes to
    the cached pages.
    """

    def __init__(self, pager: Pager):
        self.pager = pager
        self._nodes: dict[int, Any] = {}

    def read(self, page_id: int) -> Any:
        if page_id in self._nodes:
            weight = self.pager.grouped_weight(page_id)
            self.pager.counters.add_grouped_hit(weight)
            add_event("grouped_hits", weight)
            return self._nodes[page_id]
        node = self.pager.read(page_id)
        self._nodes[page_id] = node
        return node
