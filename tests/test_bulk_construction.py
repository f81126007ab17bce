"""Bulk construction of the RAF-backed indexes: same layout, fewer writes.

Every RAF-backed ``build`` hands its ordered records to one
``RandomAccessFile.append_many`` call, and the SPB-tree discretises, encodes
and summarises the whole dataset in array form.  This file holds those bulk
paths to a per-object reference kept here, in the tests: one ``append`` per
record (one pager write of the open page, its columns grown by a row),
scalar curve ``encode`` per object, B+-tree cells recovered by scalar
``decode``.  The two must produce the same index byte for byte -- only the
construction cost may differ, and that cost is pinned: the same distance
computations, and one page write per page.  The RAF's pages themselves are
held to the sizing rule of :mod:`repro.storage.raf` on every fixture.
"""

from __future__ import annotations

import gc
import pickle
import tracemalloc

import numpy as np
import pytest

from repro import (
    CostCounters,
    MetricSpace,
    brute_force_knn,
    brute_force_range,
    load_index,
    make_la,
    save_index,
    select_pivots,
)
from repro.core.mapping import PivotMapping
from repro.external import (
    DEPT,
    MIndex,
    MIndexStar,
    OmniBPlusTree,
    OmniRTree,
    OmniSequentialFile,
    SPBTree,
)
from repro.external import dept as dept_module
from repro.external import mindex as mindex_module
from repro.external import omni as omni_module
from repro.sfc import HilbertCurve, ZOrderCurve
from repro.storage.pager import Pager, PageStore
from repro.storage.raf import RafPage, RandomAccessFile

from conftest import DATASET_MAKERS, N_SMALL, RADIUS

PAGE_SIZE = 1024  # small pages: several RAF pages and two B+-tree levels at n = 400


class PerRecordRAF(RandomAccessFile):
    """The reference write path: every record is its own one-row write."""

    def append_many(self, fields):
        columns = [c.tolist() if isinstance(c, np.ndarray) and c.ndim == 1 else c for c in fields]
        for record in zip(*columns):
            RandomAccessFile.append_many(self, tuple([v] for v in record))


def reference_spbtree(space, pivot_ids, curve_cls):
    """The per-object SPB-tree build the bulk path replaced."""
    mapping = PivotMapping(space, pivot_ids)
    pager = Pager(page_size=PAGE_SIZE, counters=space.counters)
    index = SPBTree(space, mapping, pager, 8, curve_cls)
    index.raf = PerRecordRAF(pager)
    keyed = []
    for object_id in range(mapping.n_objects):
        # the floor-division grid the SPB-tree keyed by before its shared frame
        cell = np.floor(mapping.vector(object_id) / index.frame.width).astype(np.int64)
        cell = np.clip(cell, 0, index.curve.max_coordinate)
        keyed.append((index.curve.encode(cell), object_id))
    keyed.sort()
    for _, object_id in keyed:
        index.raf.append((object_id, space.dataset[object_id]))
    # cells by scalar decode of every key
    cells = [index.curve.decode(key) for key, _ in keyed]
    columns = ([key for key, _ in keyed], [object_id for _, object_id in keyed])
    index.btree.bulk_load(columns, cells=np.asarray(cells, dtype=np.uint8))
    return index


def _spb(curve_cls):
    def build(space, pivot_ids, reference):
        if reference:
            return reference_spbtree(space, pivot_ids, curve_cls)
        return SPBTree.build(space, pivot_ids, page_size=PAGE_SIZE, curve_cls=curve_cls)

    return build


def _on_reference_raf(module, build):
    """``build`` as is, and with the module's RAF swapped for the reference."""

    def wrapped(space, pivot_ids, reference):
        if not reference:
            return build(space, pivot_ids)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, "RandomAccessFile", PerRecordRAF)
            return build(space, pivot_ids)

    return wrapped


# name -> (number of pivots, build(space, pivot_ids, reference))
BUILDERS = {
    "SPB-tree l=5": (5, _spb(HilbertCurve)),
    "SPB-tree l=9": (9, _spb(HilbertCurve)),  # 72-bit keys: the limb path
    "SPB-tree Z-order l=5": (5, _spb(ZOrderCurve)),
    "SPB-tree Z-order l=9": (9, _spb(ZOrderCurve)),
    "Omni-seq": (
        4,
        _on_reference_raf(
            omni_module,
            lambda s, p: OmniSequentialFile.build(s, p, page_size=PAGE_SIZE),
        ),
    ),
    "OmniB+": (
        4,
        _on_reference_raf(
            omni_module, lambda s, p: OmniBPlusTree.build(s, p, page_size=PAGE_SIZE)
        ),
    ),
    "OmniR-tree": (
        4,
        _on_reference_raf(
            omni_module, lambda s, p: OmniRTree.build(s, p, page_size=PAGE_SIZE)
        ),
    ),
    "M-index": (
        4,
        _on_reference_raf(
            mindex_module,
            lambda s, p: MIndex.build(s, p, page_size=PAGE_SIZE, maxnum=64),
        ),
    ),
    "M-index*": (
        4,
        _on_reference_raf(
            mindex_module,
            lambda s, p: MIndexStar.build(s, p, page_size=PAGE_SIZE, maxnum=64),
        ),
    ),
    "DEPT": (
        4,
        _on_reference_raf(
            dept_module,
            lambda s, p: DEPT.build(
                s, n_pivots_per_object=len(p), page_size=PAGE_SIZE, seed=5
            ),
        ),
    ),
}

CASES = [(d, name) for d in ("LA", "Words") for name in BUILDERS]


@pytest.fixture(scope="module")
def pivots_by_count(datasets):
    cache = {}

    def get(dataset_name, count):
        if (dataset_name, count) not in cache:
            cache[dataset_name, count] = select_pivots(
                MetricSpace(datasets[dataset_name]), count, strategy="hfi", seed=3
            )
        return cache[dataset_name, count]

    return get


@pytest.fixture
def store_writes(monkeypatch):
    """Every ``PageStore.write``: (store, page id, physical pages written)."""
    log = []
    original = PageStore.write

    def write(self, page_id, node):
        original(self, page_id, node)
        log.append((self, page_id, self.pages_spanned(self.page_bytes(page_id))))

    monkeypatch.setattr(PageStore, "write", write)
    return log


def _trees(index):
    if hasattr(index, "btree"):
        return [index.btree]
    return list(getattr(index, "trees", []))


@pytest.mark.parametrize("dataset_name,name", CASES)
def test_bulk_build_lays_out_what_the_per_object_build_did(
    pivots_by_count, store_writes, dataset_name, name
):
    dataset = DATASET_MAKERS[dataset_name]()  # private: the test inserts
    count, build = BUILDERS[name]
    pivot_ids = pivots_by_count(dataset_name, count)

    ref_space = MetricSpace(dataset, CostCounters())
    ref = build(ref_space, pivot_ids, reference=True)
    ref_cost = ref_space.counters.snapshot()
    del store_writes[:]
    space = MetricSpace(dataset, CostCounters())
    bulk = build(space, pivot_ids, reference=False)
    cost = space.counters.snapshot()
    writes = list(store_writes)

    # -- the same index ------------------------------------------------------
    assert type(bulk.raf) is RandomAccessFile and type(ref.raf) is PerRecordRAF
    # the same locator (the reference's grew an eighth at a time past it)
    n = len(dataset)
    assert len(bulk.raf._pages) == len(bulk.raf) == len(ref.raf) == n
    assert np.array_equal(bulk.raf._pages, ref.raf._pages[:n])
    assert np.array_equal(bulk.raf._slots, ref.raf._slots[:n])
    assert (ref.raf._pages[n:] == -1).all()
    assert [list(t.items()) for t in _trees(bulk)] == [
        list(t.items()) for t in _trees(ref)
    ]
    # page by page, as stored bytes: the RAF, the B+-tree(s), everything
    assert bulk.pager.store._pages == ref.pager.store._pages
    raf_pages = set(bulk.raf._pages.tolist())
    assert len(raf_pages) > 3
    memory = bulk.storage_bytes()["memory"] - bulk.raf.locator_bytes()
    assert memory == ref.storage_bytes()["memory"] - ref.raf.locator_bytes()
    assert bulk.storage_bytes()["disk"] == ref.storage_bytes()["disk"]
    assert bulk.raf.locator_bytes() == 6 * n  # an int32 page, a uint16 slot
    # the RAF keeps appending where the build stopped, on both
    assert (bulk.raf._open_page_id, bulk.raf._open_bytes) == (
        ref.raf._open_page_id,
        ref.raf._open_bytes,
    )
    assert pickle.dumps(bulk.raf._open_page) == pickle.dumps(ref.raf._open_page)

    # -- at the construction cost the contract names ---------------------------
    assert cost.distance_computations == ref_cost.distance_computations
    if isinstance(bulk, SPBTree):
        assert cost.distance_computations == len(dataset) * count
    # one write per page: no page id twice, and the counter saw nothing else
    assert all(store is bulk.pager.store for store, _, _ in writes)
    written = [page_id for _, page_id, _ in writes]
    assert len(written) == len(set(written))
    assert cost.page_writes == sum(span for _, _, span in writes)
    assert raf_pages <= set(written)
    # the reference pays a write per record, the bulk build one per page
    assert ref_cost.page_writes == cost.page_writes + len(dataset) - len(raf_pages)
    assert cost.page_reads == ref_cost.page_reads

    # -- and it is a working index: delete three objects, insert them anew -----
    # (under fresh ids, so the deleted ones must stay out of every answer;
    # ids that come back are tests/test_updates_all.py's round trip)
    victims = (5, 17, 250)
    for object_id in victims:
        bulk.delete(object_id)
    for object_id in victims:
        assert bulk.insert(dataset[object_id]) >= N_SMALL
    oracle = MetricSpace(dataset, CostCounters())
    radius = RADIUS[dataset_name]
    for q in (dataset[2], dataset[5]):
        want = [i for i in brute_force_range(oracle, q, radius) if i not in victims]
        assert bulk.range_query(q, radius) == want
        nearest = brute_force_knn(oracle, q, 7 + len(victims))
        want = [n for n in nearest if n.object_id not in victims][:7]
        assert bulk.knn_query(q, 7) == want

    # a read miss is admitted under the stored blob's length: for every kind
    # of page this index keeps, that is what re-pickling the node would say
    store = bulk.pager.store
    bulk.pager.flush()
    for page_id, nbytes in store._blob_sizes():
        node = pickle.loads(store._pages[page_id])
        assert len(pickle.dumps(node, protocol=pickle.HIGHEST_PROTOCOL)) == nbytes


@pytest.mark.parametrize("curve_cls", [HilbertCurve, ZOrderCurve])
@pytest.mark.parametrize("count", [5, 9])
@pytest.mark.parametrize("dataset_name", ["LA", "Words"])
def test_spbtree_boxes_cover_exactly_the_cells_beneath_them(
    datasets, pivots_by_count, dataset_name, count, curve_cls
):
    """Cells handed to ``bulk_load`` are what decoding would have found, and
    each box is exactly the column-wise min / max of the cells beneath it."""
    dataset = datasets[dataset_name]
    index = SPBTree.build(
        MetricSpace(dataset, CostCounters()),
        pivots_by_count(dataset_name, count),
        page_size=PAGE_SIZE // 2,  # three B+-tree levels at n = 400
        curve_cls=curve_cls,
    )
    assert index.btree.height >= 3
    index.btree.check_invariants(cells_of=index.cells_of, tight=True)
    internal_nodes = 0

    def cells_under(page_id):
        nonlocal internal_nodes
        node = index.btree.read_node(page_id)
        if node.is_leaf:
            decoded = np.asarray([index.curve.decode(key) for key in node.keys])
            assert np.array_equal(node.cells, decoded)
            assert node.cells.dtype == np.uint8
            return decoded
        internal_nodes += 1
        below = []
        for child, low, high in zip(node.children, node.lows, node.highs):
            cells = cells_under(child)
            assert np.array_equal(low, cells.min(axis=0))
            assert np.array_equal(high, cells.max(axis=0))
            below.append(cells)
        return np.concatenate(below)

    assert len(cells_under(index.btree.root_page)) == len(dataset)
    assert internal_nodes > 1


@pytest.mark.parametrize("dataset_name", ["LA", "Words"])
@pytest.mark.parametrize("name", ["SPB-tree l=5", "SPB-tree l=9", "M-index*"])
def test_bulk_built_index_survives_a_snapshot_and_takes_an_insert(
    pivots_by_count, tmp_path, dataset_name, name
):
    """save -> load costs nothing, answers exactly, and the file stays open.

    The insert on the restored index adds a row and its cell to a leaf the
    bulk load wrote, and appends to the RAF page the build left open.
    """
    dataset = DATASET_MAKERS[dataset_name]()
    count, build = BUILDERS[name]
    index = build(
        MetricSpace(dataset, CostCounters()),
        pivots_by_count(dataset_name, count),
        reference=False,
    )
    open_page, open_slots = index.raf._open_page_id, len(index.raf._open_page)
    path = tmp_path / "bulk.snap"
    save_index(index, path)
    counters = CostCounters()
    restored = load_index(path, counters=counters)
    assert counters.distance_computations == 0
    assert counters.page_writes == 0

    radius = RADIUS[dataset_name]
    oracle = MetricSpace(restored.space.dataset, CostCounters())
    queries = [dataset[2], dataset[321]]
    for q in queries:
        assert restored.range_query(q, radius) == brute_force_range(oracle, q, radius)
        assert restored.knn_query(q, 7) == brute_force_knn(oracle, q, 7)

    new_id = restored.insert(dataset[2])
    assert new_id == N_SMALL
    # next slot of the page the build left open, or -- full -- a new page
    assert restored.raf._where(new_id) in (
        (open_page, open_slots),
        (restored.raf._open_page_id, 0),
    )
    assert restored.raf.read(new_id)[0] == new_id
    for q in queries:
        got = restored.range_query(q, radius)
        assert got == brute_force_range(oracle, q, radius)
        assert restored.knn_query(q, 7) == brute_force_knn(oracle, q, 7)
    assert new_id in restored.range_query(dataset[2], 0.0)


def test_spbtree_build_generates_its_entries_instead_of_listing_them():
    """What the build allocates beyond what it keeps stays well below it.

    The RAF and the B+-tree load take the build's columns, and a leaf's
    rows are listed from them one leaf at a time.  Entries listed whole as
    ``(key, (id, pointer))`` tuples were more than the finished index
    keeps (transient 1.09 x kept at any n), and which allocator arenas
    emptied when they were freed differed from run to run: the
    benchmark's SPB-tree set-up read 8.2, 8.5 or 9.1 MB resident for the
    same index.  The ``n x l`` ``float64`` mapping table is allocated by
    the build and, since the tree keeps its grid cells alone, let go at its
    end: it is counted as kept, as it was while the tree held it, so the
    bound is the one the build met then.
    """
    space = MetricSpace(make_la(5_000, seed=1), CostCounters())
    pivot_ids = select_pivots(space, 5, strategy="hfi", seed=3)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = SPBTree.build(space, pivot_ids, page_size=4096)
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(index.raf) == 5_000 and "matrix" not in vars(index.mapping)
    kept += 5_000 * 5 * 8
    assert peak - kept < 0.6 * (kept - before)


# -- the RAF's pages: the sizing rule on every fixture ------------------------------


def _raf_pages(index):
    """The index's RAF pages in file order, as stored."""
    page_ids = sorted(set(index.raf._pages.tolist()))
    return page_ids, [index.pager.store.read(page_id) for page_id in page_ids]


def _page_limit(schema, page_size, fill_factor=0.9):
    """Payload a page of ``schema`` takes: the budget less the header (the
    empty page's pickle, and 3 B for each raw buffer: the mask, one an int
    or array column, two a str column)."""
    buffers = 1 + sum(2 if spec == ("s",) else 1 for spec in schema[1])
    empty = pickle.dumps(RafPage.encode([], schema), protocol=pickle.HIGHEST_PROTOCOL)
    return int(page_size * fill_factor) - len(empty) - 3 * buffers


RAF_FIXTURE_BUILDERS = {
    "SPB-tree": lambda space, pivots: SPBTree.build(space, pivots),
    "M-index*": lambda space, pivots: MIndexStar.build(space, pivots, maxnum=64),
}


@pytest.mark.parametrize("name", list(RAF_FIXTURE_BUILDERS))
@pytest.mark.parametrize("dataset_name", ["LA", "Words", "Color", "Synthetic"])
def test_raf_pages_are_the_fewest_the_budget_allows(datasets, pivots, dataset_name, name):
    """Every stored RAF page fits its page, and no page could have taken
    the record that opened the next one -- for fixed-size records, the
    page count is ``ceil(n / (limit // record bytes))``."""
    dataset = datasets[dataset_name]
    index = RAF_FIXTURE_BUILDERS[name](
        MetricSpace(dataset, CostCounters()), pivots[dataset_name]
    )
    page_size = index.pager.page_size
    page_ids, pages = _raf_pages(index)
    assert all(type(page) is RafPage and not any(page.dead) for page in pages)
    assert sum(map(len, pages)) == len(dataset)
    assert all(index.pager.store.page_bytes(p) <= page_size for p in page_ids)
    schema = pages[0].schema
    limit = _page_limit(schema, page_size)
    for page, following in zip(pages, pages[1:]):
        assert page.schema == schema
        opener = RafPage.encode([following.record(0)], schema).payload_bytes()
        assert page.payload_bytes() + opener > limit
        assert page.payload_bytes() <= limit or len(page) == 1
    if dataset_name != "Words":  # fixed-size records: int32 id, arrays, tombstone
        per_record = 4 + sum(field.nbytes for field in pages[0].record(0)[1:]) + 1
        per_page = max(1, limit // per_record)
        assert len(pages) == -(-len(dataset) // per_page)
    if dataset_name == "Color":  # 282 float64s a record: one a page
        assert len(pages) == len(dataset)


# SPB-tree disk bytes per object on the fixture below when the RAF stored
# each page as a pickled record list, sized by a pickle per record
LIST_PAGE_DISK_BYTES_PER_OBJECT = 288.768


def test_columnar_raf_halves_the_spbtree_on_disk(store_writes):
    """The count behind ``la_disk_mixed_rw``'s set-up and index bytes: on LA
    n = 2 000 the SPB-tree's disk bytes per object are at most 0.6 x what
    the list-page RAF stored, and its construction writes each page of the
    finished index once (plus the empty root the B+-tree starts from, which
    the bulk load frees)."""
    space = MetricSpace(make_la(2_000, seed=1), CostCounters())
    pivot_ids = select_pivots(space, 5, strategy="hfi", seed=3)
    space.counters.reset()
    del store_writes[:]
    index = SPBTree.build(space, pivot_ids)
    writes = space.counters.page_writes
    written = [page_id for _, page_id, _ in store_writes]
    disk = index.storage_bytes()["disk"]
    assert disk / 2_000 <= 0.6 * LIST_PAGE_DISK_BYTES_PER_OBJECT
    page_ids, _ = _raf_pages(index)
    assert sorted(p for p in written if p in set(page_ids)) == page_ids
    assert writes == len(written) == len(index.pager.store) + 1
    assert disk == len(index.pager.store) * index.pager.page_size
