"""Storage substrate: page store, buffer pool, pager, RAF."""

from __future__ import annotations

import io
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counters import CostCounters
from repro.service.migrate import _MigrationUnpickler
from repro.storage import BufferPool, Pager, PageStore, RandomAccessFile
from repro.storage import pager as pager_module
from repro.storage.raf import IdOutOfBounds, RafPage, _record_bytes, _schema_of


@pytest.fixture
def dumps_calls(monkeypatch):
    """Every ``pickle.dumps`` the pager module makes, as a growing list."""
    calls = []

    class CountingPickle:
        HIGHEST_PROTOCOL = pickle.HIGHEST_PROTOCOL
        loads = staticmethod(pickle.loads)

        @staticmethod
        def dumps(obj, protocol=None):
            calls.append(obj)
            return pickle.dumps(obj, protocol=protocol)

    monkeypatch.setattr(pager_module, "pickle", CountingPickle)
    return calls


class TestPageStore:
    def test_write_read_roundtrip(self):
        store = PageStore(page_size=256)
        page = store.allocate()
        store.write(page, {"a": [1, 2, 3]})
        assert store.read(page) == {"a": [1, 2, 3]}

    def test_counts_accesses(self):
        counters = CostCounters()
        store = PageStore(page_size=256, counters=counters)
        page = store.allocate()
        store.write(page, "x")
        store.read(page)
        assert counters.page_writes == 1
        assert counters.page_reads == 1

    def test_oversized_node_spans_pages(self):
        counters = CostCounters()
        store = PageStore(page_size=64, counters=counters)
        page = store.allocate()
        store.write(page, list(range(200)))  # pickles to > 64 bytes
        assert counters.page_writes > 1
        counters.reset()
        store.read(page)
        assert counters.page_reads == store.pages_spanned(store.page_bytes(page))

    def test_read_unallocated(self):
        store = PageStore()
        with pytest.raises(KeyError):
            store.read(42)

    def test_read_unwritten(self):
        store = PageStore()
        page = store.allocate()
        with pytest.raises(KeyError):
            store.read(page)

    def test_free(self):
        store = PageStore()
        page = store.allocate()
        store.write(page, "x")
        store.free(page)
        with pytest.raises(KeyError):
            store.read(page)

    def test_total_bytes_rounds_to_pages(self):
        store = PageStore(page_size=100)
        page = store.allocate()
        store.write(page, "tiny")
        assert store.total_bytes() == 100

    def test_invalid_page_size(self):
        with pytest.raises(ValueError):
            PageStore(page_size=0)


class TestBufferPool:
    def _store(self):
        counters = CostCounters()
        return PageStore(page_size=256, counters=counters), counters

    def test_read_hit_costs_nothing(self):
        store, counters = self._store()
        pool = BufferPool(store, capacity_bytes=4096)
        page = store.allocate()
        pool.write(page, "data")
        counters.reset()
        assert pool.read(page) == "data"
        assert counters.page_reads == 0
        assert pool.hits == 1

    def test_miss_reads_through(self):
        store, counters = self._store()
        page = store.allocate()
        store.write(page, "cold")
        pool = BufferPool(store, capacity_bytes=4096)
        counters.reset()
        assert pool.read(page) == "cold"
        assert counters.page_reads == 1
        assert pool.misses == 1

    def test_lru_eviction_writes_dirty(self):
        store, counters = self._store()
        pool = BufferPool(store, capacity_bytes=80)
        pages = [store.allocate() for _ in range(6)]
        counters.reset()
        for i, page in enumerate(pages):
            pool.write(page, f"value-{i}")
        # small capacity: early pages evicted and flushed
        assert counters.page_writes > 0
        pool.flush()
        for i, page in enumerate(pages):
            assert store.read(page) == f"value-{i}"

    def test_zero_capacity_is_write_through(self):
        store, counters = self._store()
        pool = BufferPool(store, capacity_bytes=0)
        page = store.allocate()
        counters.reset()
        pool.write(page, "x")
        assert counters.page_writes == 1
        pool.read(page)
        assert counters.page_reads == 1

    def test_lru_order(self):
        store, counters = self._store()
        pool = BufferPool(store, capacity_bytes=2 * 30)
        a, b, c = (store.allocate() for _ in range(3))
        pool.write(a, "aaaa")
        pool.write(b, "bbbb")
        pool.read(a)  # a most recent
        pool.write(c, "cccc")  # evicts b (least recent)
        counters.reset()
        pool.read(a)
        assert counters.page_reads == 0

    def test_invalidate(self):
        store, counters = self._store()
        pool = BufferPool(store, capacity_bytes=4096)
        page = store.allocate()
        store.write(page, "disk")
        pool.write(page, "cached")
        pool.invalidate(page)
        assert pool.read(page) == "disk"  # dirty version dropped


class TestOnePicklePerPage:
    """A page crosses the store boundary with one pickle, in either direction."""

    def test_read_miss_pickles_nothing(self, dumps_calls):
        counters = CostCounters()
        pager = Pager(page_size=256, counters=counters, cache_bytes=4096)
        page = pager.allocate()
        pager.store.write(page, list(range(40)))
        del dumps_calls[:]
        assert pager.read(page) == list(range(40))
        assert pager.pool.misses == 1 and counters.page_reads == 1
        assert dumps_calls == []
        assert pager.read(page) == list(range(40))  # now a hit
        assert pager.pool.hits == 1 and dumps_calls == []

    def test_write_through_pickles_once(self, dumps_calls):
        counters = CostCounters()
        pager = Pager(page_size=256, counters=counters, cache_bytes=0)
        pages = [pager.allocate() for _ in range(5)]
        for i, page in enumerate(pages):
            pager.write(page, ("node", i))
        assert len(dumps_calls) == 5
        assert counters.page_writes == 5
        assert [pager.read(page) for page in pages] == [("node", i) for i in range(5)]
        assert len(dumps_calls) == 5  # capacity 0: reads admit nothing, probe nothing

    def test_miss_is_accounted_under_the_stored_length(self):
        store = PageStore(page_size=256)
        pool = BufferPool(store, capacity_bytes=4096)
        sizes = {}
        for i in range(4):
            page = store.allocate()
            store.write(page, ["x" * (20 * (i + 1))] * 3)
            sizes[page] = store.page_bytes(page)
        for page in sizes:
            pool.read(page)
            assert pool.resident_bytes(page) == sizes[page]
        assert pool._used_bytes == sum(sizes.values())
        # ... which is what probing the unpickled node would have said
        for page, nbytes in sizes.items():
            assert pool._node_bytes(pool.read(page)) == nbytes

    def test_eviction_after_misses_follows_stored_lengths(self):
        store = PageStore(page_size=256)
        pages = [store.allocate() for _ in range(3)]
        for page in pages:
            store.write(page, "y" * 50)
        each = store.page_bytes(pages[0])
        pool = BufferPool(store, capacity_bytes=2 * each)
        for page in pages:
            pool.read(page)
        assert pool.resident_bytes(pages[0]) is None  # least recent, evicted
        assert pool._used_bytes == 2 * each

    def test_dirty_admit_still_measures_the_node(self, dumps_calls):
        pager = Pager(page_size=256, cache_bytes=4096)
        page = pager.allocate()
        pager.write(page, "buffered")
        assert len(dumps_calls) == 1  # the size probe; nothing stored yet
        assert pager.store.page_bytes(page) == 0
        assert pager.pool.resident_bytes(page) == len(
            pickle.dumps("buffered", protocol=pickle.HIGHEST_PROTOCOL)
        )


class TestPager:
    def test_facade(self):
        counters = CostCounters()
        pager = Pager(page_size=256, counters=counters, cache_bytes=0)
        page = pager.allocate()
        pager.write(page, [1, 2])
        assert pager.read(page) == [1, 2]
        assert pager.disk_bytes() == 256

    def test_set_cache_bytes_flushes(self):
        pager = Pager(page_size=256, cache_bytes=4096)
        page = pager.allocate()
        pager.write(page, "buffered")
        pager.set_cache_bytes(0)
        assert pager.store.read(page) == "buffered"

    def test_free_invalidates(self):
        pager = Pager(page_size=256, cache_bytes=4096)
        page = pager.allocate()
        pager.write(page, "x")
        pager.free(page)
        with pytest.raises(KeyError):
            pager.read(page)

    def test_read_many_weights_never_flushed_page_by_pooled_size(self):
        """Grouped hits on a buffered, never-flushed multi-page node must be
        weighted by the pooled node's serialised size.  (Reproduces the
        defect: the store still holds b"" for such a page, so the old
        weighting collapsed every repeat to 1 page.)"""
        import pickle

        counters = CostCounters()
        pager = Pager(page_size=64, counters=counters, cache_bytes=64 * 1024)
        page = pager.allocate()
        node = {"payload": list(range(200))}  # pickles to several 64B pages
        span = pager.store.pages_spanned(
            len(pickle.dumps(node, protocol=pickle.HIGHEST_PROTOCOL))
        )
        assert span > 1
        pager.write(page, node)  # dirty in the pool, never flushed
        assert pager.store.page_bytes(page) == 0  # the stale source of truth
        counters.reset()
        nodes = pager.read_many([page, page, page])
        assert nodes == {page: node}
        assert counters.grouped_hits == 2 * span  # not 2 * 1
        assert counters.page_reads == 0  # served by the pool throughout
        assert counters.buffer_hits == span

    def test_read_many_weights_rewritten_page_by_current_size(self):
        """A page rewritten (dirty) with bigger content must weight grouped
        hits by the pool's current node, not the store's stale blob."""
        counters = CostCounters()
        pager = Pager(page_size=64, counters=counters, cache_bytes=64 * 1024)
        page = pager.allocate()
        pager.write(page, "tiny")
        pager.flush()  # the store now holds the small (soon stale) blob
        big = {"payload": list(range(200))}
        pager.write(page, big)  # dirty rewrite: pool and store now disagree
        span = pager.store.pages_spanned(pager.pool.resident_bytes(page))
        assert span > 1
        assert pager.store.pages_spanned(pager.store.page_bytes(page)) == 1
        counters.reset()
        pager.read_many([page, page])
        assert counters.grouped_hits == span

    def test_read_many_falls_back_to_store_bytes_without_pool(self):
        """With the pool disabled the store is authoritative -- the old
        weighting path still holds for cold multi-page reads."""
        counters = CostCounters()
        pager = Pager(page_size=64, counters=counters, cache_bytes=0)
        page = pager.allocate()
        node = list(range(200))
        pager.write(page, node)  # write-through: the store blob is current
        span = pager.store.pages_spanned(pager.store.page_bytes(page))
        assert span > 1
        counters.reset()
        pager.read_many([page, page])
        assert counters.grouped_hits == span
        assert counters.page_reads == span  # one real multi-page read


class TestRandomAccessFile:
    def test_append_read(self):
        raf = RandomAccessFile(Pager(page_size=256))
        for i in range(20):
            raf.append((i, "obj"))
        for i in range(20):
            assert i in raf and raf.read(i) == (i, "obj")
        assert len(raf) == 20 and 20 not in raf and -1 not in raf

    def test_records_grouped_into_pages(self):
        pager = Pager(page_size=256)
        raf = RandomAccessFile(pager)
        for i in range(50):
            raf.append((i, i))
        pages = {raf._where(i)[0] for i in range(50)}
        assert 1 < len(pages) < 50  # grouped, but more than one page

    def test_sequential_reads_share_page_accesses(self):
        counters = CostCounters()
        pager = Pager(page_size=512, counters=counters, cache_bytes=4096)
        raf = RandomAccessFile(pager)
        for i in range(30):
            raf.append((i, i))
        pager.set_cache_bytes(4096)  # warm cache cleared, fresh start
        counters.reset()
        for i in range(30):
            raf.read(i)
        pages = {raf._where(i)[0] for i in range(30)}
        assert counters.page_reads == len(pages)

    def test_put_back_and_tombstone(self):
        raf = RandomAccessFile(Pager(page_size=256))
        raf.append((0, "old"))
        raf.append((1, "next"))
        page, slot = raf._where(0)
        raf.mark_deleted(0)
        assert 0 not in raf and len(raf) == 1 and not raf.live([0]).any()
        assert raf.pager.read(page).record(slot) is None
        assert (raf._pages[0], raf._slots[0]) == (-2 - page, slot)  # its dead address
        with pytest.raises(KeyError):
            raf.read(0)
        with pytest.raises(KeyError):
            raf.mark_deleted(0)  # a second delete
        writes = raf.pager.counters.page_writes
        raf.append((0, "new"))  # the bytes it took: put back into its own slot
        assert raf._where(0) == (page, slot) and raf.read(0) == (0, "new")
        assert raf.pager.counters.page_writes == writes + 1 and len(raf) == 2
        assert raf.pager.read(page).records() == [(0, "new"), (1, "next")]
        raf.mark_deleted(0)
        raf.append((0, "again"))  # another size: the id takes a new slot
        assert raf._where(0) == (page, 2) and raf.read(0) == (0, "again")
        assert raf.pager.read(page).record(slot) is None  # the freed slot stays freed
        raf.append((2, "fresh"))  # a new id: the open page's next slot
        assert raf._where(2) == (page, 3) and raf.read(1) == (1, "next")
        raf.update(1, (1, "then"))  # a delete and a put-back
        assert raf._where(1) == (page, 1) and raf.read(1) == (1, "then")
        raf.update(1, (1, "longer"))
        assert raf._where(1) == (page, 4) and len(raf) == 3
        with pytest.raises(KeyError):
            raf.update(9, (9, "none"))
        with pytest.raises(ValueError, match="id"):
            raf.update(1, (2, "another id"))

    def test_a_record_that_does_not_fit_its_freed_slot_appends(self):
        """Put back under its id, a record of another size or schema is
        appended, and the slot its delete freed is not written."""
        for other in ("a longer word", np.zeros(2), 7):
            raf = RandomAccessFile(Pager(page_size=4096))
            raf.append_many((np.arange(4), ["word"] * 4))
            page_id, slot = raf._where(1)
            raf.mark_deleted(1)
            freed = raf.pager.read(page_id)
            raf.append((1, other))
            assert raf._where(1) != (page_id, slot) and _same(raf.read(1), (1, other))
            now = raf.pager.read(page_id)
            assert now.record(slot) is None and now.cells(slot) == (1, "word")
            assert all(now.record(i) == freed.record(i) for i in range(len(freed)))
            assert len(raf) == 4

    def test_a_dead_address_on_a_live_slot_is_not_written(self):
        """A put-back writes a slot only while it is a tombstone: an id
        whose dead address names a live record's slot appends."""
        raf = RandomAccessFile(Pager(page_size=4096))
        raf.append_many((np.arange(3), ["word"] * 3))
        page_id, _ = raf._where(0)
        raf.mark_deleted(0)
        raf._slots[0] = raf._where(2)[1]  # a locator that no longer matches its page
        raf.append((0, "mine"))
        assert raf.read(2) == (2, "word") and raf.read(0) == (0, "mine")
        assert raf._where(0) == (page_id, 3)

    def test_bad_pointer(self):
        """Ids with no live record raise ``KeyError``; an append under a
        live id (or of no int id) raises ``ValueError``."""
        raf = RandomAccessFile(Pager(page_size=256))
        raf.append((0, "x"))
        for missing in (1, 99, -1):
            with pytest.raises(KeyError):
                raf.read(missing)
            with pytest.raises(KeyError):
                raf.mark_deleted(missing)
        with pytest.raises(KeyError):
            raf.read_many([0, 1])
        writes = raf.pager.counters.page_writes
        for ids in ([0], [-1], ["a"], [2**64]):
            with pytest.raises(ValueError):
                raf.append_many((ids, ["y"]))
        assert raf.pager.counters.page_writes == writes and raf.read(0) == (0, "x")

    def test_oversized_record_gets_own_page(self):
        pager = Pager(page_size=128)
        raf = RandomAccessFile(pager)
        raf.append((0, "s"))
        raf.append((1, "B" * 1000))
        assert raf._where(1)[0] != raf._where(0)[0]
        assert raf.read(1) == (1, "B" * 1000)


def _columns(records):
    """``records`` (``(id, ...)`` tuples of one length) as ``append_many``
    takes them: a list a field."""
    return tuple(map(list, zip(*records))) if records else ([],)


def _append_all(raf, records) -> list[tuple[int, int]]:
    """``append_many`` of ``records``; where the locator puts each."""
    raf.append_many(_columns(records))
    return [raf._where(record[0]) for record in records]


class TestAppendMany:
    """``append_many`` is the write body; ``append`` is its one-record view."""

    def _raf(self, page_size=1024, cache_bytes=0):
        counters = CostCounters()
        pager = Pager(page_size=page_size, counters=counters, cache_bytes=cache_bytes)
        return RandomAccessFile(pager), pager, counters

    def test_single_appends_cost_one_write_each(self):
        raf, _, counters = self._raf()
        for i in range(200):
            raf.append((i, "record"))
        assert len({raf._where(i)[0] for i in range(200)}) > 3
        # a page that fills is not written again when it is sealed
        assert counters.page_writes == 200

    def test_bulk_append_writes_each_page_once(self):
        raf, pager, counters = self._raf()
        order = np.arange(200)[::-1].copy()
        assert raf.append_many((order, ["record"] * 200)) is None
        # a 4-byte page and a slot below the 1 KB page size: 6 B an id
        assert (raf._pages.dtype, raf._slots.dtype) == (np.int32, np.uint16)
        assert counters.page_writes == len(set(raf._pages.tolist())) == len(pager.store)
        # written in the given order: id 199 first
        assert raf._where(199) == (raf._pages.min(), 0)
        assert raf.read_many(range(200)) == [(i, "record") for i in range(200)]
        assert all(type(raf.read(i)[0]) is int for i in range(200))  # int32 ids read as ints
        assert len(raf) == 200 and raf.locator_bytes() == 200 * 6

    def test_same_layout_as_single_appends(self):
        records = [(i, "r" * (i % 17)) for i in range(150)]
        one, one_pager, _ = self._raf()
        many, many_pager, _ = self._raf()
        for record in records:
            one.append(record)
        assert _append_all(many, records) == [one._where(i) for i in range(150)]
        # stored bytes, page by page: rows appended one at a time to the
        # open page's columns encode exactly as the page encoded whole
        assert many_pager.store._pages == one_pager.store._pages
        assert many_pager.disk_bytes() == one_pager.disk_bytes()

    def test_open_page_is_carried_across_calls(self):
        records = [(i, "record") for i in range(120)]
        ref, ref_pager, _ = self._raf()
        for record in records:
            ref.append(record)
        expected = [ref._where(i) for i in range(120)]
        raf, pager, _ = self._raf()
        got = _append_all(raf, records[:50])
        raf.append(records[50])  # continues the page left open
        got.append(raf._where(50))
        assert got[-1][0] == got[-2][0]
        assert got[-1][1] == got[-2][1] + 1
        got += _append_all(raf, records[51:90])
        got += _append_all(raf, records[90:])
        assert got == expected
        assert pager.store._pages == ref_pager.store._pages

    def test_empty_iterable_writes_nothing(self):
        raf, pager, counters = self._raf()
        for nothing in (([],), (np.zeros(0, np.int64), []), ([], np.zeros((0, 3)))):
            assert raf.append_many(nothing) is None
        assert counters.page_writes == 0 and len(pager.store) == 0 and len(raf) == 0
        raf.append((0, "x"))
        counters.reset()
        raf.append_many(([],))
        assert counters.page_writes == 0 and len(raf) == 1

    def test_columns_of_one_length(self):
        raf, pager, counters = self._raf()
        with pytest.raises(ValueError, match="length"):
            raf.append_many((np.arange(3), ["a", "b"]))
        with pytest.raises(ValueError, match="row"):
            raf.append_many((np.int64(1), ["a"]))
        with pytest.raises(ValueError, match="ids first"):
            raf.append_many(np.arange(3))
        assert counters.page_writes == 0 and len(pager.store) == 0

    def test_oversized_record_pays_the_multi_page_write(self):
        raf, pager, counters = self._raf()
        small, big, after = _append_all(raf, [(0, "s"), (1, "B" * 3000), (2, "t")])
        assert len({small[0], big[0], after[0]}) == 3
        span = pager.store.pages_spanned(pager.store.page_bytes(big[0]))
        assert span > 1
        assert counters.page_writes == 2 + span
        assert raf.read(1) == (1, "B" * 3000)

    def test_pooled_open_page_is_not_aliased(self):
        raf, pager, _ = self._raf(cache_bytes=4096)
        raf.append((0, "a"))
        cached = pager.read(raf._where(0)[0])
        raf.append((1, "b"))
        assert cached.records() == [(0, "a")]  # the pool's earlier node did not grow
        assert pager.read(raf._where(0)[0]).records() == [(0, "a"), (1, "b")]


def _per_record_append(raf, records) -> None:
    """The greedy packer a record at a time -- the loop ``append_many`` was
    before it took columns -- kept here as the oracle of the column body."""
    where = []
    page_id, page, used = raf._open_page_id, raf._open_page, raf._open_bytes
    schema = page.schema if page is not None else None
    limit = raf._limit(schema) if schema is not None else 0
    first = len(page) if page is not None else 0
    rows = []

    def grown():
        fresh = RafPage.encode(rows, schema)
        return fresh if page is None else page.joined(fresh)

    for record in records:
        nbytes = _record_bytes(schema, record) if page_id is not None else None
        if nbytes is None or used + nbytes > limit:
            if rows:
                raf.pager.write(page_id, grown())
            if nbytes is None:
                schema = _schema_of(record)
                nbytes = _record_bytes(schema, record)
                limit = raf._limit(schema)
            page_id, page, used, first, rows = raf.pager.allocate(), None, 0, 0, []
        where.append((page_id, first + len(rows)))
        rows.append(record)
        used += nbytes
    if rows:
        page = grown()
        raf.pager.write(page_id, page)
    raf._open_page_id, raf._open_page, raf._open_bytes = page_id, page, used
    if records:
        pages, slots = np.array(where, dtype=np.int64).T
        raf._locate(np.array([r[0] for r in records], dtype=np.int64), pages, slots)
    raf._count += len(records)


# non-ASCII words, oversized ones, and lone surrogates (no UTF-8 form: pickled)
_words = st.text(max_size=12) | st.text(max_size=1500) | st.sampled_from(["\ud800", "é\udfffx"])
# pickled values, and ints / floats that open columns of their own
_objects = (
    st.none()
    | st.dictionaries(st.text(max_size=3), st.integers())
    | st.lists(st.integers(), max_size=40)
    | st.integers()
    | st.floats()
)


@st.composite
def _call(draw, first_id: int):
    """One ``append_many`` call: ``(records, columns)`` of one schema, its
    ids distinct ones from ``first_id`` on."""
    n = draw(st.integers(0, 60))
    schema = draw(st.sampled_from(["id, array", "id, word", "id, object", "id, wide int"]))
    ids = draw(st.permutations(range(first_id, first_id + n)))
    if schema == "id, array":
        dtype, width = draw(st.sampled_from([(np.float64, 2), (np.float32, 7), (np.uint8, 40)]))
        block = np.arange(n * width, dtype=np.float64).reshape(n, width).astype(dtype)
        return [(i, block[r]) for r, i in enumerate(ids)], (np.array(ids, np.int64), block)
    if schema == "id, wide int":  # past int64: a pickled column
        wide = [i + 2**64 for i in ids]
        return list(zip(ids, wide)), (list(ids), wide)
    values = draw(st.lists(_words if schema == "id, word" else _objects, min_size=n, max_size=n))
    return list(zip(ids, values)), (np.array(ids, np.int64), values)


class TestAppendManyOracle:
    """``append_many`` on columns lays out what the per-record packer did."""

    @given(
        calls=st.tuples(*(_call(100 * c) for c in range(5))).flatmap(
            lambda calls: st.integers(1, 5).map(lambda k: calls[:k])
        ),
        page_size=st.sampled_from([128, 512, 1024, 4096]),
    )
    @settings(max_examples=120, deadline=None)
    def test_pointers_and_every_blob_equal_the_per_record_packer(self, calls, page_size):
        ref = RandomAccessFile(Pager(page_size=page_size))
        raf = RandomAccessFile(Pager(page_size=page_size))
        for records, columns in calls:  # each call continues the page left open
            _per_record_append(ref, records)
            raf.append_many(columns)
            assert [raf._where(r[0]) for r in records] == [ref._where(r[0]) for r in records]
        assert raf.pager.store._pages == ref.pager.store._pages
        assert raf.pager.counters.page_writes == ref.pager.counters.page_writes
        assert (raf._open_page_id, raf._open_bytes, len(raf)) == (
            ref._open_page_id,
            ref._open_bytes,
            len(ref),
        )

    def test_words_that_fill_a_page_exactly_stay_on_it(self):
        """Variable-width rows whose bytes end exactly at the limit, on the
        page left open and on a new one, pack as the per-record packer does."""
        ref = RandomAccessFile(Pager(page_size=512))
        raf = RandomAccessFile(Pager(page_size=512))
        _per_record_append(ref, [(0, "a")])
        opened = ref._where(0)[0]
        raf.append_many(([0], ["a"]))
        limit = raf._limit(raf._open_page.schema)
        room = limit - raf._open_bytes
        # an (id, word) row takes 4 B, the word's UTF-8 bytes, a 4 B end
        # offset and a tombstone byte
        words = ["b" * (room - 25), "c" * 7, "d" * (limit - 25), "e" * 7, "f"]
        records = list(enumerate(words, start=1))
        _per_record_append(ref, records)
        raf.append_many(_columns(records))
        got = [raf._where(i) for i, _ in records]
        assert got == [ref._where(i) for i, _ in records]
        assert [page for page, _ in got] == [opened, opened, opened + 1, opened + 1, opened + 2]
        assert raf.pager.store._pages == ref.pager.store._pages


# -- the columnar page format ---------------------------------------------------


def _same(got, want) -> bool:
    """Equal and of the same type, arrays by dtype, shape and values."""
    if isinstance(want, tuple):
        return (
            type(got) is tuple
            and len(got) == len(want)
            and all(_same(g, w) for g, w in zip(got, want))
        )
    if isinstance(want, np.ndarray):
        return (
            type(got) is np.ndarray
            and got.dtype == want.dtype
            and got.shape == want.shape
            and np.array_equal(got, want)
        )
    return type(got) is type(want) and got == want


def _records(n=40):
    """Every record shape ``src/`` writes, and the ones it might: the object
    id, then the fields."""
    rows = np.arange(2 * n, dtype=np.float64).reshape(n, 2)
    return {
        # SPB-tree / Omni / D-EPT on vectors, on words; M-index
        "id, vector": [(i, rows[i]) for i in range(n)],
        "id, word": [(i, "wörd" * (i % 5)) for i in range(n)],
        "id, vector, mapped": [(i, rows[i], rows[i] * 3.5) for i in range(n)],
        # non-float64 dtypes and shapes
        "float32": [(i, rows[i].astype(np.float32)) for i in range(n)],
        "uint8 matrix": [(i, np.full((2, 3), i % 256, dtype=np.uint8)) for i in range(n)],
        "int32": [(i, np.arange(i % 4 + 1, dtype=np.int32)[:1]) for i in range(n)],
        # plain values
        "ints": [(i, i * 7) for i in range(n)],
        "strings": [(i, f"value-{i}") for i in range(n)],
        "str, int": [(i, "obj", i) for i in range(n)],
        # fields with no column of their own: pickled in a list
        "beyond int64": [(i, 2**70 + i) for i in range(n)],
        "bool, dict": [(i, bool(i % 2), {"k": i}) for i in range(n)],
        "0-d array": [(i, np.array(float(i))) for i in range(n)],
        "structured, empty": [
            (i, np.array([(i, 0.5)], dtype=[("a", "<i4"), ("b", "<f8")]), np.zeros(0))
            for i in range(n)
        ],
        "lone surrogate": [(i, "\ud800" * (i % 3)) for i in range(n)],
        "empty tuples": [(i,) for i in range(n)],  # the id alone
    }


# the columns each shape is stored in (a lone surrogate has no UTF-8 form,
# so the first such word starts a page whose word column is pickled)
_KINDS = {
    "id, vector": {"ja"},
    "id, word": {"js"},
    "id, vector, mapped": {"jaa"},
    "float32": {"ja"},
    "uint8 matrix": {"ja"},
    "int32": {"ja"},
    "ints": {"jj"},
    "strings": {"js"},
    "str, int": {"jsj"},
    "beyond int64": {"jo"},
    "bool, dict": {"joo"},
    "0-d array": {"jo"},
    "structured, empty": {"joo"},
    "lone surrogate": {"js", "jo"},
    "empty tuples": {"j"},
}


class TestRafPageCodec:
    def _raf(self, cache_bytes=0):
        return RandomAccessFile(Pager(page_size=1024, cache_bytes=cache_bytes))

    @pytest.mark.parametrize("shape", list(_records()))
    def test_every_record_shape_round_trips_through_stored_pages(self, shape):
        records = _records()[shape]
        raf = self._raf()
        where = _append_all(raf, records)
        ids = [record[0] for record in records]
        # capacity 0: every read unpickles the stored blob
        for object_id, record in zip(ids, records):
            assert _same(raf.read(object_id), record), record
        assert all(_same(got, want) for got, want in zip(raf.read_many(ids), records))
        stored = [raf.pager.store.read(page) for page in {page for page, _ in where}]
        assert all(type(page) is RafPage for page in stored)
        assert {page.kinds for page in stored} == _KINDS[shape]
        # and a page of bare values: the form mixed records re-encode to
        bare = [record[1:] if len(record) > 2 else record[-1] for record in records]
        page = pickle.loads(pickle.dumps(RafPage.from_records(bare)))
        assert all(_same(got, want) for got, want in zip(page.records(), bare))

    def test_columns_are_what_the_fields_are(self):
        page = RafPage.encode(
            [(1, np.arange(3.0), "ab"), (2, np.arange(3.0), "c")],
            _schema_of((1, np.arange(3.0), "ab")),
        )
        ids, block, (blob, ends) = page.columns
        assert page.kinds == "jas" and page.arity == 3
        assert ids.dtype == np.int32 and list(ids) == [1, 2]
        assert block.shape == (2, 3) and block.dtype == np.float64
        assert blob == b"abc" and ends.dtype == np.int32 and list(ends) == [2, 3]
        assert page.dead == bytes(2)
        # the sizing rule: 4 + nbytes + (encoded length + 4) + 1 a record
        assert page.payload_bytes() == (4 + 24 + 2 + 4 + 1) + (4 + 24 + 1 + 4 + 1)
        a_row = page.record(0)[1]
        assert np.shares_memory(a_row, block)  # a row view, not a copy

    @pytest.mark.parametrize("slots", [(0,), (20,), (39,), (0, 20, 39)])
    def test_tombstones_at_any_slot(self, slots):
        records = _records()["id, vector"]
        raf = RandomAccessFile(Pager(page_size=4096))
        where = _append_all(raf, records)
        assert len({page for page, _ in where}) == 1
        assert [slot for _, slot in where] == list(range(len(records)))
        for slot in slots:
            raf.mark_deleted(slot)  # id i lies in slot i
        stored = raf.pager.read(where[0][0])
        for slot, record in enumerate(records):
            if slot in slots:
                assert slot not in raf and stored.record(slot) is None
            else:
                assert _same(raf.read(slot), record)
        assert len(raf) == len(records) - len(slots)
        # the same page from its records, None in those slots
        listed = [None if i in slots else r for i, r in enumerate(records)]
        page = RafPage.from_records(listed)
        assert page.dead == bytes(int(i in slots) for i in range(len(records)))
        assert stored.dead == page.dead and stored.kinds == page.kinds == "ja"
        assert all(_same(a, b) for a, b in zip(stored.records(), page.records()))

    def test_an_all_tombstone_page(self):
        records = _records()["id, word"][:10]
        raf = RandomAccessFile(Pager(page_size=4096))
        where = _append_all(raf, records)
        for object_id in range(10):
            raf.mark_deleted(object_id)
        assert len(raf) == 0 and not raf.live(range(10)).any()
        assert raf.pager.read(where[0][0]).records() == [None] * 10
        assert RafPage.from_records([None] * 3).records() == [None] * 3
        # the open page keeps taking records after its tombstones
        raf.append((10, "new"))
        assert raf._where(10) == (where[0][0], 10) and raf.read(10) == (10, "new")

    def test_a_record_of_another_schema_starts_a_page(self):
        raf = self._raf()
        a, b = _append_all(raf, [(0, np.zeros(2)), (1, np.zeros(2))])
        raf.append((2, "word"))
        raf.append((3, np.zeros(2, dtype=np.float32)))
        c, d = raf._where(2), raf._where(3)
        assert a[0] == b[0]
        assert len({b[0], c[0], d[0]}) == 3
        assert raf.read(2) == (2, "word")
        assert raf.read(3)[1].dtype == np.float32

    def test_records_of_two_schemas_re_encode_to_a_page_of_bare_values(self):
        """``from_records`` (the one re-encoding, which ``repro migrate``
        uses for a record-list page): a page of vectors with a word among
        them is one of records pickled whole, tombstones kept."""
        records = [(i, np.full(2, float(i))) for i in range(5)]
        records[2], records[3] = (2, "now a word"), None
        page = pickle.loads(pickle.dumps(RafPage.from_records(records)))
        assert (page.arity, page.kinds, page.dead) == (None, "o", bytes([0, 0, 0, 1, 0]))
        assert all(_same(got, want) for got, want in zip(page.records(), records))
        # a RAF whose open page is such a page takes records whole after it
        raf = RandomAccessFile(Pager(page_size=4096))
        raf.append((0, "x"))
        raf._open_page = page
        raf.pager.write(raf._open_page_id, page)
        raf.append((5, np.zeros(2)))
        assert raf._where(5) == (raf._open_page_id, 5) and _same(raf.read(5), (5, np.zeros(2)))

    def test_writes_change_one_row_never_the_page_record_by_record(self, monkeypatch):
        raf = self._raf(cache_bytes=64 * 1024)
        where = _append_all(raf, [(i, np.full(2, float(i))) for i in range(20)])
        page_id = where[0][0]
        before = raf.pager.read(page_id)
        record, decoded = RafPage.record, []

        def counted(page, slot):
            decoded.append(slot)
            return record(page, slot)

        monkeypatch.setattr(RafPage, "record", counted)
        # the record a delete returns is the one it decodes
        tombstoned = raf.mark_deleted(3)
        assert decoded == [3] and tombstoned[0] == 3 and tombstoned[1][0] == 3.0
        deleted = raf.pager.read(page_id)
        assert deleted.columns is before.columns  # one tombstone byte
        raf.append((3, np.full(2, 30.0)))  # put back: the row under its tombstone
        put_back = raf.pager.read(page_id)
        assert raf._where(3) == (page_id, 3) and put_back.dead == bytes(20)
        assert put_back.columns[1] is not deleted.columns[1]
        assert np.array_equal(
            np.delete(put_back.columns[1], 3, axis=0),
            np.delete(deleted.columns[1], 3, axis=0),
        )
        raf.append((20, np.full(2, 20.0)))
        appended = raf.pager.read(page_id)
        assert len(appended) == 21 and len(put_back) == 20
        assert decoded == [3]  # put-back and append decoded no record
        monkeypatch.undo()
        # copy-on-write: each pooled node kept what it held
        assert before.dead == bytes(20)
        assert deleted.record(3) is None and deleted.cells(3)[1][0] == 3.0
        assert put_back.record(3)[1][0] == 30.0 and appended.record(20)[0] == 20

    def test_pages_fill_to_the_budget_header_included(self):
        """Fixed-size records: the page count is the arithmetic minimum,
        each page filled to the page size, its header included."""
        records = _records(1000)["id, vector, mapped"]
        for page_size in (1024, 4096):
            raf = RandomAccessFile(Pager(page_size=page_size))
            where = _append_all(raf, records)
            schema = _schema_of(records[0])
            empty = RafPage.encode([], schema)
            # the empty page's pickle, 3 B for each of its 4 buffers and 1
            # for each but the first (the empty page pickles a reference)
            header = len(pickle.dumps(empty, protocol=pickle.HIGHEST_PROTOCOL)) + 4 * 4 - 1
            per_page = (page_size - header) // (4 + 16 + 16 + 1)
            pages = {page for page, _ in where}
            assert len(pages) == -(-len(records) // per_page)
            sizes = [raf.pager.store.page_bytes(p) for p in pages]
            assert max(sizes) <= page_size < max(sizes) + 4 + 16 + 16 + 1


# -- id and slot widths ---------------------------------------------------------


class TestIdWidths:
    """An int takes the int32 column when it fits int32, the int64 one when
    it fits int64 only; a slot is as wide as the page size needs."""

    def test_an_id_past_int32_is_stored_in_an_int64_column(self):
        # the page level: a RAF locator is dense in the object id, so a
        # file holding id 1 << 31 would allocate 2**31 locator rows
        record = (1 << 31, "wide")
        schema = _schema_of(record)
        assert schema == (2, (("i",), ("s",)))
        assert _record_bytes(schema, (5, "x")) is None  # an int32 id: another schema
        page = pickle.loads(pickle.dumps(RafPage.encode([record], schema)))
        assert page.kinds == "is" and page.columns[0].dtype == np.int64
        assert page.record(0) == record and type(page.record(0)[0]) is int
        assert page.payload_bytes() == 8 + 4 + 4 + 1
        assert page.with_tombstone(0).record(0) is None
        # a page of both is re-encoded whole: one schema holds neither
        both = RafPage.from_records([(5, "x"), record])
        assert (both.arity, both.kinds) == (None, "o") and both.records() == [(5, "x"), record]

    def test_an_int_past_int32_starts_a_page_of_its_own_schema(self):
        raf = RandomAccessFile(Pager(page_size=4096))
        raf.append_many((np.arange(3), np.array([7, 8, 9])))
        raf.append_many((np.arange(3, 6), np.array([10, 1 << 31, 11])))
        where = [raf._where(i) for i in range(6)]
        pages = [raf.pager.read(page_id) for page_id, _ in where]
        assert [page.kinds for page in pages] == ["jj"] * 4 + ["ji", "jj"]
        assert [page_id for page_id, _ in where] == [0, 0, 0, 0, 1, 2]
        assert [raf.read(i) for i in range(6)] == [
            (0, 7), (1, 8), (2, 9), (3, 10), (4, 1 << 31), (5, 11)
        ]
        raf.mark_deleted(4)
        assert 4 not in raf and raf.read(5) == (5, 11) and len(raf) == 5
        assert (raf._pages[4], raf._slots[4]) == (-2 - 1, 0)  # its dead address

    def test_an_id_past_the_locator_bound_is_refused_before_any_allocation(self):
        """The locator is dense in the id: a write may take it to twice its
        length with its records, or to 65 536 ids.  Id ``1 << 31`` would ask
        for 2**31 rows (~13 GB); it is refused with the named error and the
        file is as it was -- asserted, not allocated."""
        pager = Pager(page_size=4096)
        raf = RandomAccessFile(pager)
        for ids in ([1 << 31], [0, 1 << 31], [1 << 16]):
            with pytest.raises(IdOutOfBounds, match="dense"):
                raf.append_many((np.asarray(ids), ["x"] * len(ids)))
        with pytest.raises(IdOutOfBounds):
            raf.append((1 << 31, "x"))
        assert len(raf._pages) == 0 and len(raf) == 0 and len(pager.store) == 0
        # the floor, then twice the locator with the records written
        raf.append(((1 << 16) - 1, "x"))
        assert len(raf._pages) == 1 << 16
        raf.append(((1 << 17) - 2, "y"))
        with pytest.raises(IdOutOfBounds):
            raf.append_many((np.array([4 * len(raf._pages)]), ["z"]))
        assert [raf.read((1 << 16) - 1), len(raf)] == [((1 << 16) - 1, "x"), 2]

    def test_an_id_column_of_either_width(self):
        """int32 and int64 id arrays and a list of ints write one layout."""
        blobs = []
        for ids in (np.arange(50, dtype=np.int32), np.arange(50), list(range(50))):
            raf = RandomAccessFile(Pager(page_size=512))
            raf.append_many((ids, np.ones((50, 2))))
            assert raf.read(49)[0] == 49 and len(raf) == 50
            blobs.append(raf.pager.store._pages)
        assert blobs[0] == blobs[1] == blobs[2]

    def test_a_large_page_takes_uint32_slots(self):
        page_size = 1 << 19
        raf = RandomAccessFile(Pager(page_size=page_size))
        n = 70_000  # (id,) records: 4 B and a tombstone byte, one page
        raf.append_many((np.arange(n),))
        assert raf._slots.dtype == np.uint32 and raf._pages.dtype == np.int32
        assert raf.locator_bytes() == 8 * n
        assert raf._where(n - 1) == (raf._where(0)[0], n - 1) and n - 1 > 65_535
        assert raf.read(n - 1) == (n - 1,) and raf.read(65_536) == (65_536,)
        assert raf.pager.store.page_bytes(raf._where(0)[0]) <= page_size

    def test_a_locator_of_int64_arrays_narrows_as_it_loads(self):
        """A RAF pickled when both locator arrays were int64 (page and slot
        -1 for a deleted id, which kept no dead address) loads through
        ``repro migrate``'s unpickler with today's locator."""
        raf = RandomAccessFile(Pager(page_size=4096))
        raf.append_many((np.arange(10), ["r"] * 10))
        raf.mark_deleted(3)
        live = raf._pages >= 0
        written = RandomAccessFile.__new__(RandomAccessFile)
        vars(written).update(
            vars(raf),
            _pages=np.where(live, raf._pages, -1).astype(np.int64),
            _slots=np.where(live, raf._slots, -1).astype(np.int64),
            fill_factor=0.9,
        )
        old = _MigrationUnpickler(io.BytesIO(pickle.dumps(written)), "raf", [], 0).load()
        assert (old._pages.dtype, old._slots.dtype) == (np.int32, np.uint16)
        assert np.array_equal(old._pages, np.where(live, raf._pages, -1))
        assert np.array_equal(old._slots, np.where(live, raf._slots, 0))
        assert "fill_factor" not in vars(old)
        assert old.locator_bytes() == raf.locator_bytes() == 6 * len(raf._pages)
        assert [old.read(i) for i in (0, 9)] == [(0, "r"), (9, "r")] and 3 not in old
        old.append((3, "r"))  # no dead address: it appends
        assert old._where(3) == (old._where(0)[0], 10)
