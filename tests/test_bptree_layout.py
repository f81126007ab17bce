"""The columnar B+-tree node layout the SPB-tree, M-index* and OmniB+ share.

Fan-out is arithmetic over the node format of :mod:`repro.btree.bptree`
(``(page_size - header) // row bytes``); no stored node outgrows its page,
through a build and a round of churn; every node's columns have one
length, an SPB-tree leaf keeps ids and cells and no key, and each box holds
the cells beneath it; the SPB-tree answers without encoding or decoding a
key, and updates with one scalar encode each; and a batch call reads each
B+-tree page once.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro import CostCounters, MetricSpace, brute_force_knn, brute_force_range, select_pivots
from repro.btree import BPlusTree, InternalNode, LeafNode
from repro.external import MIndex, MIndexStar, OmniBPlusTree, SPBTree
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
# SPB-tree (10-bit grid): an int32 id and 4 uint16 cell coordinates, no key;
# separator (int64 width), child and two box corners.  M-index* (one cluster
# level at n = 400): the ((pivot,), distance) key pickled (27 B) and the
# int32 id; separator and child.  OmniB+: float64 key, int32 id; separator
# and child.
LAYOUT = {
    "SPB-tree": (88, 4 + 4 * 2, 109, 8 + 8 + 2 * 4 * 2),
    "M-index*": (74, 27 + 4, 71, 27 + 8),
    "OmniB+": (78, 8 + 4, 75, 8 + 8),
}
CAPACITIES = {"SPB-tree": (334, 124), "M-index*": (129, 115), "OmniB+": (334, 251)}


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


def _build(name, dataset_name, pivots, **kwargs):
    dataset = DATASET_MAKERS[dataset_name]()  # private: churn grows it
    space = MetricSpace(dataset, CostCounters())
    return BUILDERS[name](space, pivots[dataset_name], **kwargs)


@pytest.mark.parametrize("name", list(BUILDERS))
@pytest.mark.parametrize("dataset_name", list(DATASET_MAKERS))
def test_capacities_are_the_arithmetic(pivots, dataset_name, name):
    """The same on every dataset: a leaf row holds a key and an id (an
    SPB-tree's an id and a cell), never the object nor where the RAF keeps
    it."""
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
                assert rows <= leaf_header
                if name != "M-index*" and len(node) * 4 >= 256:
                    assert leaf_header - 4 <= rows <= leaf_header
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
    for tree in _trees(index):
        tree.check_invariants(tight=True)
        for page_id, _ in _nodes(tree):
            assert tree.pager.store.page_bytes(page_id) <= PAGE_SIZE
    gone = _churn(index, dataset_name, random.Random(7))
    index.pager.flush()
    for tree in _trees(index):
        # a cell tree's deletes keep their paths: its boxes stay exact
        tree.check_invariants(tight=name == "SPB-tree")
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
    tree = index.btree
    tree.check_invariants(tight=True)
    root = tree.read_node(tree.root_page)
    page, last_page = root.children[0], root.children[-1]
    leaf, last = tree.read_node(page), tree.read_node(last_page)
    cells, lows = leaf.cells, root.lows.copy()

    def edited(node_page, node, check, match=None, **kwargs):
        tree.pager.write(node_page, node)
        if match is None:
            check(**kwargs)
        else:
            with pytest.raises(AssertionError, match=match):
                check(**kwargs)

    # a cell of the last leaf in the first: its key is past the separator
    leaf.cells = cells.copy()
    leaf.cells[3] = last.cells[-1]
    edited(page, leaf, tree.check_invariants, "separator")
    leaf.cells = cells
    edited(page, leaf, tree.check_invariants, tight=True)
    dim = int(np.flatnonzero(lows[1] > 0)[0])  # a low corner that can widen
    lo = int(lows[1, dim])
    root.lows[1, dim] = lo - 1  # wider than the cells beneath it: still covers them
    edited(tree.root_page, root, tree.check_invariants)
    edited(tree.root_page, root, tree.check_invariants, "box", tight=True)
    root.lows[1, dim] = lo + 1  # narrower: a cell outside its box
    edited(tree.root_page, root, tree.check_invariants, "box")
    root.lows[1, dim] = lo
    edited(tree.root_page, root, tree.check_invariants, tight=True)
    leaf.columns[0] = leaf.columns[0][:-1]
    edited(page, leaf, tree.check_invariants, "columns")


def test_the_spbtree_decodes_no_key(monkeypatch, pivots):
    """Build, MRQ, MkNNQ, both ``*_many``, insert and delete: no call of
    ``HilbertCurve.decode`` (nor of the array form); the build encodes its
    cells once in the array form, each insert and delete one cell in the
    scalar form, and no query encodes any."""
    dataset = DATASET_MAKERS["LA"]()
    calls = []

    def logged(original, kind):
        def call(self, arg):
            calls.append(kind)
            return original(self, arg)

        return call

    for cls, name in (
        (HilbertCurve, "decode"),
        (GridCurve, "decode_many"),
        (HilbertCurve, "encode"),
        (GridCurve, "encode_many"),
    ):
        monkeypatch.setattr(cls, name, logged(getattr(cls, name), name))
    index = SPBTree.build(MetricSpace(dataset, CostCounters()), pivots["LA"])
    assert calls == ["encode_many"]
    queries = [dataset[2], dataset[200], dataset[3] * 3.0 + 900.0]
    del calls[:]
    for q in queries:
        index.range_query(q, RADIUS["LA"])
        index.knn_query(q, 7)
    index.range_query_many(queries, RADIUS["LA"])
    index.knn_query_many(queries, 7)
    assert calls == []
    for object_id in (5, 17, 250):
        index.delete(object_id)
    index.insert(dataset[5], object_id=5)
    index.insert(dataset[17] * 5.0 + 1000.0)
    assert calls == ["encode"] * 5
    index.btree.check_invariants(tight=True)  # computes keys: array encodes
    assert "decode" not in calls and "decode_many" not in calls


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
    """A bulk-loaded cell leaf of ``(object id, cell)`` rows pickles to its
    header plus 14 B a row at five pivots of a 10-bit grid -- the worked LA
    leaf of :mod:`repro.btree.bptree` -- and a keyed leaf of ``(int key,
    object id)`` rows to its header plus 12 B a row when its keys outgrow
    int32 and 8 B when they fit it; each reads back equal."""
    rows = 243
    values = list(range(rows))
    cells = np.arange(rows * 5, dtype=np.uint16).reshape(rows, 5)
    leaf = LeafNode([values], cells, next_page=70_000)
    blob = pickle.dumps(leaf, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(blob) == 88 + rows * 14 == 3_490
    back = pickle.loads(blob)
    assert back.keys is None and back.values == values and back.next_page == 70_000
    assert np.array_equal(back.cells, cells) and back.cells.dtype == np.uint16
    for first_key, nbytes in ((10**12, 78 + rows * 12), (10**9, 78 + rows * 8)):
        keys = list(range(first_key, first_key + rows))
        leaf = LeafNode([keys, values], next_page=70_000)
        blob = pickle.dumps(leaf, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) == nbytes
        back = pickle.loads(blob)
        assert back.keys == keys and back.values == values and back.next_page == 70_000
        assert back.cells is None


def _kinds(node) -> str:
    """The column kinds a node pickles under (the first of its arguments)."""
    return node.__reduce__()[1][0]


def _roundtrip(node):
    return pickle.loads(pickle.dumps(node, protocol=pickle.HIGHEST_PROTOCOL))


@pytest.mark.parametrize(
    "column,kind",
    [
        ([], "j"),
        ([-(1 << 63), 0, (1 << 63) - 1], "i"),  # int64's own ends
        ([0.5, -2.0, 1e300], "f"),
        ([1, 2, 1 << 63], "o"),  # an int past int64
        ([-(1 << 63) - 1, 0], "o"),
        ([1, True, 3], "o"),  # a bool is no int64
        ([1, 2.5, 3], "o"),  # an int / float mix
        ([2.5, 1, 3.5], "o"),
        ([(1, 2), (1, 3)], "o"),
        ([-(1 << 31), 0, (1 << 31) - 1], "j"),  # int32's own ends
        ([0, 1 << 31], "i"),  # an int past int32
        ([-(1 << 31) - 1, 0], "i"),
    ],
)
def test_a_column_takes_the_narrowest_kind_and_round_trips(column, kind):
    """Leaf keys, leaf values and internal separators are typed alike: one
    pass over the values' types, int32 when every int fits it, int64 when
    every int fits that, else a pickled list -- which gives back every value
    with its type."""
    ids = list(range(len(column)))
    leaf = LeafNode([list(column), ids])
    assert _kinds(leaf) == kind + "j"
    back = _roundtrip(leaf)
    assert back.keys == column and list(map(type, back.keys)) == list(map(type, column))
    assert back.values == ids
    swapped = LeafNode([ids, list(column)])
    assert _kinds(swapped) == "j" + kind
    back = _roundtrip(swapped)
    assert back.values == column and list(map(type, back.values)) == list(map(type, column))
    node = InternalNode(list(column), list(range(len(column) + 1)))
    assert _kinds(node) == kind
    back = _roundtrip(node)
    assert back.separators == column
    assert list(map(type, back.separators)) == list(map(type, column))
    assert back.children == list(range(len(column) + 1))


@pytest.mark.parametrize(
    "name,kinds",
    [("SPB-tree", "ij"), ("M-index", "oj"), ("M-index*", "oj"), ("OmniB+", "fj")],
)
def test_each_index_keeps_its_leaf_kinds(pivots, name, kinds):
    """``kinds`` is a tree's key kind and value kind.  Hilbert keys are
    int64 separators (int32 in a node whose keys all fit it) and no leaf
    column, iDistance keys ``(path, distance)`` tuples pickled whole, Omni
    keys float64 distances, and every value an int32 object id: the kinds
    the pages were written with, so no page byte moves with the typing
    code."""
    builders = {
        **BUILDERS,
        "M-index": lambda space, pivots: MIndex.build(space, pivots, page_size=PAGE_SIZE),
    }
    dataset = DATASET_MAKERS["LA"]()
    index = builders[name](MetricSpace(dataset, CostCounters()), pivots["LA"])
    # an SPB-tree leaf keeps values and cells, no key
    leaf_kinds = kinds[1:] if name == "SPB-tree" else kinds
    seen = set()
    for tree in _trees(index):
        for _, node in _nodes(tree):
            if node.is_leaf:
                assert _kinds(node) == leaf_kinds
                continue
            narrow = kinds[0] == "i" and max(node.separators) < 1 << 31
            assert _kinds(node) == ("j" if narrow else kinds[0])
            seen.add(_kinds(node))
    assert kinds[0] in seen  # 40-bit Hilbert keys: separators past int32


def test_spbtree_keys_past_int32_fit_their_pages_through_churn():
    """Five pivots of 10 bits: 50-bit Hilbert keys, every one past int32,
    none stored in a leaf.  A leaf row is an int32 id and five uint16 cell
    coordinates, the separators int64, and no node outgrows its page after
    a build and a round of churn, which keeps every box exact."""
    dataset = DATASET_MAKERS["LA"]()
    pivot_ids = select_pivots(MetricSpace(dataset), 5, strategy="hfi", seed=0)
    index = SPBTree.build(MetricSpace(dataset, CostCounters()), pivot_ids, page_size=PAGE_SIZE)
    tree = index.btree
    assert (index.curve.dims, index.curve.bits) == (5, 10)
    assert min(key for key, _ in tree.items()) >= 1 << 31
    assert tree.leaf_capacity == (PAGE_SIZE - 88) // (4 + 5 * 2) == 286
    for churned in (False, True):
        if churned:
            _churn(index, "LA", random.Random(11))
            index.pager.flush()
        tree.check_invariants(tight=True)
        for page_id, node in _nodes(tree):
            assert tree.pager.store.page_bytes(page_id) <= PAGE_SIZE
            assert _kinds(node) == ("j" if node.is_leaf else "i")
