"""The columnar B+-tree node layout the SPB-tree, M-index* and OmniB+ share.

Fan-out is arithmetic over the node format of :mod:`repro.btree.bptree`
(``(page_size - header) // row bytes``); no stored node outgrows its page,
through a build and a round of churn; every node's columns have one
length, an SPB-tree leaf's cells are what its keys decode to and each box
holds the cells beneath it; the SPB-tree answers and updates without
decoding a key; and a batch call reads each B+-tree page once.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro import CostCounters, MetricSpace, brute_force_knn, brute_force_range
from repro.btree import BPlusTree, LeafNode
from repro.external import MIndexStar, OmniBPlusTree, SPBTree
from repro.sfc.curve import GridCurve
from repro.sfc.hilbert import HilbertCurve
from repro.storage.pager import PageStore

from conftest import DATASET_MAKERS, RADIUS

PAGE_SIZE = 4096

BUILDERS = {
    "SPB-tree": lambda space, pivots, **kw: SPBTree.build(space, pivots, page_size=PAGE_SIZE),
    "M-index*": lambda space, pivots, **kw: MIndexStar.build(
        space, pivots, page_size=PAGE_SIZE, **kw
    ),
    "OmniB+": lambda space, pivots, **kw: OmniBPlusTree.build(space, pivots, page_size=PAGE_SIZE),
}

# (leaf header, leaf row, internal header, internal row) in bytes, 4 pivots.
# SPB-tree: int64 key, id, page, slot + 4 uint8 cell bytes; separator, child
# and two box corners.  M-index* (one cluster level at n = 400): the
# ((pivot,), distance) key pickled (27 B), id, page, slot; separator and
# child.  OmniB+: float64 key, int64 id; separator and child.
LAYOUT = {
    "SPB-tree": (110, 8 + 8 + 8 + 8 + 4, 109, 8 + 8 + 2 * 4),
    "M-index*": (89, 27 + 8 + 8 + 8, 71, 27 + 8),
    "OmniB+": (78, 8 + 8, 75, 8 + 8),
}
CAPACITIES = {"SPB-tree": (110, 166), "M-index*": (78, 115), "OmniB+": (251, 251)}


def _trees(index) -> list[BPlusTree]:
    return getattr(index, "trees", None) or [index.btree]


def _nodes(tree):
    stack = [tree.root_page]
    while stack:
        page_id = stack.pop()
        node = tree.read_node(page_id)
        yield page_id, node
        if not node.is_leaf:
            stack.extend(node.children)


def _decoded(index):
    """``cells_of`` for ``check_invariants``: a key's cell by ``decode``."""
    dtype = np.min_scalar_type(index.frame.cells - 1)
    return lambda keys: np.asarray(
        [index.curve.decode(key) for key in keys], dtype=dtype
    ).reshape(len(keys), index.curve.dims)


def _build(name, dataset_name, pivots, **kwargs):
    dataset = DATASET_MAKERS[dataset_name]()  # private: churn grows it
    space = MetricSpace(dataset, CostCounters())
    return BUILDERS[name](space, pivots[dataset_name], **kwargs)


@pytest.mark.parametrize("name", list(BUILDERS))
@pytest.mark.parametrize("dataset_name", list(DATASET_MAKERS))
def test_capacities_are_the_arithmetic(pivots, dataset_name, name):
    """The same on every dataset: a leaf row holds a key, an id and a
    pointer (and cells), never the object."""
    index = _build(name, dataset_name, pivots)
    leaf_header, leaf_row, internal_header, internal_row = LAYOUT[name]
    assert CAPACITIES[name] == (
        (PAGE_SIZE - leaf_header) // leaf_row,
        (PAGE_SIZE - internal_header) // internal_row,
    )
    for tree in _trees(index):
        assert (tree.leaf_capacity, tree.internal_capacity) == CAPACITIES[name]
        for page_id, node in _nodes(tree):
            nbytes = tree.pager.store.page_bytes(page_id)
            if node.is_leaf:
                # fixed-size rows whose every buffer outgrows a one-byte
                # length: the blob is the arithmetic to the byte, but for
                # the next page's id (the header holds the longest, 4 B
                # more than None)
                rows = nbytes - len(node) * leaf_row
                if name != "M-index*" and len(node) * 4 >= 256:
                    assert leaf_header - 4 <= rows
                assert rows <= leaf_header
            else:
                assert nbytes <= internal_header + len(node) * internal_row


def _churn(index, dataset_name, rng):
    """Delete a third of the objects, put half of them back under their
    ids, insert copies under new ids and (on vectors) objects far past the
    build-time range."""
    dataset = index.space.dataset
    n = len(dataset)
    gone = rng.sample(range(n), n // 3)
    for object_id in gone:
        index.delete(object_id)
    for object_id in gone[: len(gone) // 2]:
        index.insert(dataset[object_id], object_id=object_id)
    for object_id in rng.sample(range(n), n // 4):
        obj = dataset[object_id]
        index.insert(obj * 3.0 + 100.0 if dataset_name != "Words" else obj + "x")
    return set(gone[len(gone) // 2 :])


@pytest.mark.parametrize("name", list(BUILDERS))
@pytest.mark.parametrize("dataset_name", list(DATASET_MAKERS))
def test_no_node_outgrows_its_page_through_a_build_and_churn(pivots, dataset_name, name):
    # small M-index* clusters: keys of paths one to four pivots long
    index = _build(name, dataset_name, pivots, **({"maxnum": 64} if name == "M-index*" else {}))
    cells_of = _decoded(index) if name == "SPB-tree" else None
    for tree in _trees(index):
        tree.check_invariants(cells_of=cells_of, tight=True)
        for page_id, _ in _nodes(tree):
            assert tree.pager.store.page_bytes(page_id) <= PAGE_SIZE
    gone = _churn(index, dataset_name, random.Random(7))
    index.pager.flush()
    for tree in _trees(index):
        tree.check_invariants(cells_of=cells_of)
        for page_id, node in _nodes(tree):
            assert tree.pager.store.page_bytes(page_id) <= PAGE_SIZE
            assert type(node) is LeafNode or node.lows is None or name == "SPB-tree"
    oracle = MetricSpace(index.space.dataset, CostCounters())
    for q in (index.space.dataset[1], index.space.dataset[len(index.space.dataset) - 1]):
        want = [i for i in brute_force_range(oracle, q, RADIUS[dataset_name]) if i not in gone]
        assert index.range_query(q, RADIUS[dataset_name]) == want
        nearest = brute_force_knn(oracle, q, 5 + len(gone))
        assert index.knn_query(q, 5) == [n for n in nearest if n.object_id not in gone][:5]


def test_check_invariants_catches_a_bad_cell_a_wide_box_and_a_short_column(pivots):
    index = _build("SPB-tree", "LA", pivots)
    tree, cells_of = index.btree, _decoded(index)
    tree.check_invariants(cells_of=cells_of, tight=True)
    page = [page_id for page_id, node in _nodes(tree) if node.is_leaf][1]
    leaf, root = tree.read_node(page), tree.read_node(tree.root_page)
    cells, lows = leaf.cells, root.lows.copy()

    def edited(node_page, node, check, match=None, **kwargs):
        tree.pager.write(node_page, node)
        if match is None:
            check(**kwargs)
        else:
            with pytest.raises(AssertionError, match=match):
                check(**kwargs)

    leaf.cells = cells.copy()
    leaf.cells[3, 0] ^= 1
    edited(page, leaf, tree.check_invariants, "cell", cells_of=cells_of)
    leaf.cells = cells
    edited(page, leaf, tree.check_invariants, cells_of=cells_of, tight=True)
    lo = int(lows[1, 2])
    root.lows[1, 2] = lo - 1  # wider than the cells beneath it: still covers them
    edited(tree.root_page, root, tree.check_invariants, cells_of=cells_of)
    edited(tree.root_page, root, tree.check_invariants, "box", cells_of=cells_of, tight=True)
    root.lows[1, 2] = lo + 1  # narrower: a cell outside its box
    edited(tree.root_page, root, tree.check_invariants, "box", cells_of=cells_of)
    root.lows[1, 2] = lo
    edited(tree.root_page, root, tree.check_invariants, cells_of=cells_of, tight=True)
    leaf.columns[2] = leaf.columns[2][:-1]
    edited(page, leaf, tree.check_invariants, "columns")


def test_the_spbtree_decodes_no_key(monkeypatch, pivots):
    """Build, MRQ, MkNNQ, both ``*_many``, insert and delete: no call of
    ``HilbertCurve.decode`` (nor of the array form)."""
    dataset = DATASET_MAKERS["LA"]()
    calls = []

    def decode(self, key):
        calls.append(key)
        return original(self, key)

    original = HilbertCurve.decode
    monkeypatch.setattr(HilbertCurve, "decode", decode)
    monkeypatch.setattr(GridCurve, "decode_many", lambda self, keys: calls.extend(keys))
    index = SPBTree.build(MetricSpace(dataset, CostCounters()), pivots["LA"])
    queries = [dataset[2], dataset[200], dataset[3] * 3.0 + 900.0]
    for q in queries:
        index.range_query(q, RADIUS["LA"])
        index.knn_query(q, 7)
    index.range_query_many(queries, RADIUS["LA"])
    index.knn_query_many(queries, 7)
    for object_id in (5, 17, 250):
        index.delete(object_id)
    index.insert(dataset[5], object_id=5)
    index.insert(dataset[17] * 5.0 + 1000.0)
    assert calls == []
    index.btree.check_invariants(cells_of=_decoded(index))  # the oracle does decode
    assert calls


@pytest.mark.parametrize("name", ["SPB-tree", "M-index*"])
def test_a_batch_reads_each_btree_page_once(monkeypatch, pivots, name):
    """Inside one ``*_many`` call every B+-tree node read goes through
    ``read_node`` with the call's page cache: no node page reaches the
    store twice, and the batch costs at most the one-query loop's PA."""
    index = _build(name, "LA", pivots)
    dataset = index.space.dataset
    queries = [dataset[i] for i in range(0, 400, 25)]
    node_pages = {page_id for page_id, _ in _nodes(index.btree)}
    reads, cached = [], []
    store_read, read_node = PageStore.read, BPlusTree.read_node

    def logged_store_read(self, page_id):
        reads.append(page_id)
        return store_read(self, page_id)

    def logged_read_node(self, page_id, cache=None):
        cached.append(cache is not None)
        return read_node(self, page_id, cache)

    monkeypatch.setattr(PageStore, "read", logged_store_read)
    monkeypatch.setattr(BPlusTree, "read_node", logged_read_node)
    counters = index.space.counters
    for run_many, run_one in (
        (lambda: index.knn_query_many(queries, 10), lambda q: index.knn_query(q, 10)),
        (
            lambda: index.range_query_many(queries, RADIUS["LA"]),
            lambda q: index.range_query(q, RADIUS["LA"]),
        ),
    ):
        counters.reset()
        del reads[:], cached[:]
        batch = run_many()
        batch_pa = counters.page_reads + counters.page_writes
        node_reads = [page_id for page_id in reads if page_id in node_pages]
        assert cached and node_reads
        assert len(node_reads) == len(set(node_reads))
        counters.reset()
        loop = [run_one(q) for q in queries]
        assert batch == loop
        assert batch_pa <= counters.page_reads + counters.page_writes
    # the knn batch passed its cache to every node read
    counters.reset()
    del cached[:]
    index.knn_query_many(queries, 10)
    assert all(cached)


def test_a_leaf_pickles_its_columns_as_raw_bytes():
    """A leaf of ``(int key, (id, RecordPointer))`` rows with cells pickles
    to its header plus 37 B a row at five pivots -- the worked LA leaf of
    :mod:`repro.btree.bptree` -- and reads back equal."""
    from repro.storage.raf import RecordPointer

    rows = 90
    keys = list(range(10**9, 10**9 + rows))
    values = [(i, RecordPointer(7 + i // 140, i % 140)) for i in range(rows)]
    cells = np.arange(rows * 5, dtype=np.uint8).reshape(rows, 5)
    leaf = LeafNode.of(keys, values, cells, next_page=70_000)
    blob = pickle.dumps(leaf, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(blob) == 110 + rows * 37 == 3_440
    back = pickle.loads(blob)
    assert back.keys == keys and back.values() == values and back.next_page == 70_000
    assert np.array_equal(back.cells, cells) and back.cells.dtype == np.uint8
