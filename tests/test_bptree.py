"""B+-tree substrate: ordering, duplicates, deletes, bulk load, cell boxes."""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import BPlusTree, LeafNode
from repro.storage import Pager


def make_tree(page_size=512) -> BPlusTree:
    return BPlusTree(Pager(page_size=page_size))


class TestBasicOps:
    def test_insert_search(self):
        tree = make_tree()
        tree.insert(5, "five")
        tree.insert(3, "three")
        assert tree.search(5) == ["five"]
        assert tree.search(4) == []

    def test_sorted_iteration(self):
        tree = make_tree()
        keys = random.Random(0).sample(range(10_000), 800)
        for k in keys:
            tree.insert(k, k * 2)
        assert [k for k, _ in tree.items()] == sorted(keys)
        tree.check_invariants()

    def test_duplicates(self):
        tree = make_tree(page_size=256)
        for i in range(100):
            tree.insert(7, i)
        assert sorted(tree.search(7)) == list(range(100))
        tree.check_invariants()

    def test_range_scan(self):
        tree = make_tree()
        for k in range(0, 1000, 3):
            tree.insert(k, k)
        got = [k for k, _ in tree.range_scan(100, 200)]
        assert got == [k for k in range(0, 1000, 3) if 100 <= k <= 200]

    def test_range_scan_empty_interval(self):
        tree = make_tree()
        tree.insert(1, 1)
        assert list(tree.range_scan(5, 2)) == []

    def test_tuple_keys(self):
        """The M-index keys by ((path...), distance) tuples."""
        tree = make_tree()
        tree.insert(((0,), 3.5), "a")
        tree.insert(((0, 1), 1.0), "b")
        tree.insert(((0,), 1.5), "c")
        keys = [k for k, _ in tree.items()]
        assert keys == sorted(keys)
        got = [v for _, v in tree.range_scan(((0,), 0.0), ((0,), 10.0))]
        assert got == ["c", "a"]


class TestDelete:
    def test_delete_by_key_and_value(self):
        tree = make_tree()
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree.delete(1, "a")
        assert tree.search(1) == ["b"]
        assert not tree.delete(1, "a")

    def test_delete_missing(self):
        tree = make_tree()
        tree.insert(1, "a")
        assert not tree.delete(2)

    def test_mass_delete_keeps_invariants(self):
        tree = make_tree(page_size=256)
        rng = random.Random(1)
        keys = [rng.randint(0, 500) for _ in range(1500)]
        for i, k in enumerate(keys):
            tree.insert(k, i)
        order = list(enumerate(keys))
        rng.shuffle(order)
        for i, k in order[:1200]:
            assert tree.delete(k, i)
        tree.check_invariants()
        remaining = sorted(k for i, k in order[1200:])
        assert [k for k, _ in tree.items()] == remaining

    def test_delete_to_empty(self):
        tree = make_tree(page_size=256)
        for i in range(300):
            tree.insert(i, i)
        for i in range(300):
            assert tree.delete(i, i)
        assert list(tree.items()) == []
        assert len(tree) == 0
        tree.insert(5, 5)  # still usable
        assert tree.search(5) == [5]

    def test_duplicate_walk_delete(self):
        """Duplicates spanning many leaves are still deletable by value."""
        tree = make_tree(page_size=256)
        for i in range(400):
            tree.insert(9, i)
        for i in range(0, 400, 7):
            assert tree.delete(9, i)
        assert len(tree.search(9)) == 400 - len(range(0, 400, 7))


def _columns(items) -> tuple:
    """``(key, value)`` pairs as ``bulk_load`` takes them: a key column and
    a value column."""
    return tuple(map(list, zip(*items))) if items else ([], [])


def _as_list(column) -> list:
    return column.tolist() if isinstance(column, np.ndarray) else list(column)


def _leaf_chain(tree) -> list:
    node = tree.read_node(tree.root_page)
    while not node.is_leaf:
        node = tree.read_node(node.children[0])
    chain = [node]
    while chain[-1].next_page is not None:
        chain.append(tree.read_node(chain[-1].next_page))
    return chain


def _leaf_sizes(n: int, per_leaf: int, capacity: int) -> list[int]:
    """Full leaves, and a last one that would be under the fill a delete
    keeps (half a leaf's capacity) joined to the one before when the two
    fit a leaf, else sharing their rows evenly."""
    sizes = [per_leaf] * (n // per_leaf) + [n % per_leaf] * (n % per_leaf > 0)
    if len(sizes) > 1 and sizes[-1] < max(1, capacity // 2):
        total = sizes[-2] + sizes[-1]
        sizes[-2:] = [total] if total <= capacity else [(total + 1) // 2, total // 2]
    return sizes


def _bulk_input(kind: str, n: int):
    """``(columns, cells)`` of ``n`` sorted entries whose keys are ``kind``."""
    ids = np.arange(n, dtype=np.int64)  # object id values
    if kind == "int64":
        return (ids * 3, ids), _key_cells(ids * 3) % 256
    if kind == "wide":  # past 63 bits: an object array of Python ints
        return (np.array([2**70 + 5 * i for i in range(n)], dtype=object), ids), None
    if kind == "wide list":
        return ([2**64 + i for i in range(n)], [str(i) for i in range(n)]), None
    if kind == "float":
        return (np.linspace(0.0, 1.0, n), ids), None
    # the M-index's (cluster path, distance) tuples
    return ([((i // 50,), float(i % 50)) for i in range(n)], ids), None


class TestBulkLoad:
    def test_bulk_matches_inserts(self):
        items = [(k, str(k)) for k in range(0, 2000, 2)]
        bulk = make_tree()
        bulk.bulk_load(_columns(items))
        bulk.check_invariants()
        assert list(bulk.items()) == items

    def test_bulk_requires_sorted(self):
        tree = make_tree()
        with pytest.raises(ValueError):
            tree.bulk_load(([2, 1], ["b", "a"]))

    def test_bulk_requires_empty(self):
        tree = make_tree()
        tree.insert(1, 1)
        with pytest.raises(RuntimeError):
            tree.bulk_load(([2], [2]))

    def test_bulk_then_mutate(self):
        tree = make_tree(page_size=256)
        tree.bulk_load((np.arange(500), np.arange(500)))
        for k in range(500, 700):
            tree.insert(k, k)
        for k in range(0, 500, 3):
            assert tree.delete(k, k)
        tree.check_invariants()
        want = sorted(set(range(700)) - set(range(0, 500, 3)))
        assert [k for k, _ in tree.items()] == want

    def test_bulk_empty(self):
        tree = make_tree()
        tree.bulk_load(([], []))
        assert list(tree.items()) == []
        tree.bulk_load((np.zeros(0), np.zeros(0, dtype=np.int64)))
        assert list(tree.items()) == []

    @pytest.mark.parametrize("kind", ["int64", "wide", "wide list", "float", "tuple"])
    def test_bulk_cuts_leaves_by_arithmetic(self, kind):
        """Leaves of ``per_leaf`` rows, the last joining the one before (when
        the two fit a leaf) or sharing with it when it would be under the
        fill a delete keeps, each the leaf its entries make one by one."""
        columns, cells = _bulk_input(kind, 1)
        probe = make_tree(page_size=512)
        probe.bulk_load(columns, cells=cells)
        per_leaf = int(probe.leaf_capacity * 0.85)
        assert per_leaf >= 4
        capacity = probe.leaf_capacity
        spill = 3 * per_leaf + capacity // 2  # below: the last two leaves share rows
        # per_leaf + capacity: the last two join in one full leaf; one more
        # row and they share
        for n in (1, 2, per_leaf - 1, per_leaf, per_leaf + 1, capacity, capacity + 1,
                  2 * per_leaf, per_leaf + capacity, per_leaf + capacity + 1, spill - 1, spill):
            columns, cells = _bulk_input(kind, n)
            tree = make_tree(page_size=512)
            tree.bulk_load(columns, cells=cells)
            chain = _leaf_chain(tree)
            assert [len(leaf) for leaf in chain] == _leaf_sizes(n, per_leaf, tree.leaf_capacity)
            # each leaf as the per-entry form of its rows builds it
            keys, values = _as_list(columns[0]), _as_list(columns[1])
            lo = 0
            for leaf in chain:
                hi = lo + len(leaf)
                block = None if cells is None else cells[lo:hi]
                entry_form = LeafNode([keys[lo:hi], values[lo:hi]], block, leaf.next_page)
                assert pickle.dumps(leaf) == pickle.dumps(entry_form)
                lo = hi
            assert list(tree.items()) == list(zip(keys, values))
            assert len(tree) == n
            tree.check_invariants(
                cells_of=None if cells is None else (lambda ks: _key_cells(ks) % 256),
                tight=cells is not None,
            )

    @pytest.mark.parametrize("kind", ["int64", "tuple"])
    def test_bulk_checks_order_and_count_before_writing(self, kind):
        """Unsorted keys, uneven columns and a wrong cell count raise with
        no page written."""
        columns, _ = _bulk_input(kind, 500)
        keys = columns[0]
        late = (
            np.insert(keys, 400, keys[10])
            if isinstance(keys, np.ndarray)
            else keys[:400] + [keys[10]] + keys[400:]
        )
        last_two_swapped = keys[[*range(498), 499, 498]] if isinstance(keys, np.ndarray) else [
            *keys[:498], keys[499], keys[498]
        ]
        bad = [
            ((late, *(np.insert(c, 400, 0) for c in columns[1:])), None, "sorted"),
            ((last_two_swapped, *columns[1:]), None, "sorted"),
            ((keys, *(c[:-1] for c in columns[1:])), None, "length"),
        ] + [(columns, np.arange(count)[:, None], "cells") for count in (0, 499, 501)]
        for given_columns, cells, message in bad:
            tree = make_tree(page_size=256)
            before = dict(tree.pager.store._pages)
            with pytest.raises(ValueError, match=message):
                tree.bulk_load(given_columns, cells=cells)
            assert tree.pager.store._pages == before
            assert tree.pager.counters.page_writes == 1  # the empty root only
            assert len(tree) == 0 and list(tree.items()) == []
        with pytest.raises(ValueError, match="cells"):
            make_tree(page_size=256).bulk_load(([], []), cells=[[0]])


def _key_cells(keys) -> np.ndarray:
    """The one-column cells these tests give each entry: its key."""
    return np.asarray(keys, dtype=np.int64).reshape(len(keys), 1)


class TestAugmentation:
    """The SPB-tree's MBB maintenance: each internal node's box of a child
    is the column-wise (min, max) of the grid cells beneath it."""

    def _assert_summaries(self, tree):
        """Every internal box must equal the true (min, max) of its subtree."""

        def check(page_id):
            node = tree.read_node(page_id)
            if node.is_leaf:
                assert np.array_equal(node.cells, _key_cells(node.keys))
                if not len(node):
                    return None
                return (min(node.keys), max(node.keys))
            result = None
            for child, low, high in zip(node.children, node.lows, node.highs):
                truth = check(child)
                if truth is not None:
                    got = (int(low[0]), int(high[0]))
                    assert got == truth, f"stale box {got} != {truth}"
                    result = (
                        truth
                        if result is None
                        else (min(result[0], truth[0]), max(result[1], truth[1]))
                    )
            return result

        check(tree.root_page)
        tree.check_invariants(cells_of=_key_cells, tight=True)

    def test_bulk_load_summaries(self):
        tree = make_tree(page_size=256)
        tree.bulk_load((np.arange(500), np.arange(500)), cells=_key_cells(range(500)))
        self._assert_summaries(tree)

    def test_bulk_load_boxes_the_given_cells(self):
        """``cells=`` are stored as given and boxed by min / max, with no
        other description of them asked for; inserts then carry their own."""
        items = [(k, k) for k in range(505)]  # 505: the last leaf takes a spill
        tree = make_tree(page_size=256)
        tree.bulk_load(_columns(items), cells=_key_cells(range(505)))
        assert tree.height >= 3
        self._assert_summaries(tree)
        tree.insert(250, 0, (250,))  # inserts carry their cell
        self._assert_summaries(tree)
        with pytest.raises(ValueError, match="cells"):
            make_tree(page_size=256).bulk_load(_columns(items), cells=[(0,)])
        # a tree's entries all carry a cell, or none does; refused before
        # any page changes
        before = dict(tree.pager.store._pages)
        with pytest.raises(ValueError, match="cell"):
            tree.insert(251, 0)
        assert tree.pager.store._pages == before and len(tree) == 506
        plain = make_tree(page_size=256)
        plain.insert(1, 1)
        with pytest.raises(ValueError, match="cell"):
            plain.insert(2, 2, (2,))

    def test_insert_maintains_summaries(self):
        tree = make_tree(page_size=256)
        rng = random.Random(2)
        for _ in range(600):
            key = rng.randint(0, 10_000)
            tree.insert(key, 0, (key,))
        self._assert_summaries(tree)

    def test_delete_keeps_summaries_conservative(self):
        tree = make_tree(page_size=256)
        keys = list(range(400))
        tree.bulk_load((keys, keys), cells=_key_cells(keys))
        rng = random.Random(3)
        rng.shuffle(keys)
        for k in keys[:300]:
            tree.delete(k, k)

        # boxes must still *cover* the remaining cells (may be stale-wide)
        def check(page_id, keys_below):
            node = tree.read_node(page_id)
            if node.is_leaf:
                assert np.array_equal(node.cells, _key_cells(node.keys))
                return list(node.keys)
            collected = []
            for child, low, high in zip(node.children, node.lows, node.highs):
                child_keys = check(child, keys_below)
                if child_keys:
                    assert low[0] <= min(child_keys)
                    assert high[0] >= max(child_keys)
                collected.extend(child_keys)
            return collected

        check(tree.root_page, None)
        tree.check_invariants(cells_of=_key_cells)


class TestPropertyBased:
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["ins", "del"]), st.integers(0, 60)),
            max_size=300,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_sorted_list_model(self, ops):
        tree = make_tree(page_size=256)
        model: list[tuple[int, int]] = []
        serial = 0
        for op, key in ops:
            if op == "ins":
                tree.insert(key, serial)
                model.append((key, serial))
                serial += 1
            else:
                victims = [v for k, v in model if k == key]
                expected = bool(victims)
                got = tree.delete(key)
                assert got == expected
                if victims:
                    # the tree deletes the first stored duplicate; the model
                    # only tracks the multiset, so remove any one
                    removed = None
                    for i, (k, v) in enumerate(model):
                        if k == key:
                            removed = i
                            break
                    model.pop(removed)
        assert sorted(k for k, _ in model) == [k for k, _ in tree.items()]
        tree.check_invariants()


class TestValueKind:
    """The first entry fixes what a value may be: its capacities charge
    that kind's bytes a row, so a value it cannot hold is refused before
    any page is written."""

    def _refuses(self, tree, write, match="kind"):
        before, writes = dict(tree.pager.store._pages), tree.pager.counters.page_writes
        size = len(tree)
        with pytest.raises(ValueError, match=match):
            write()
        assert tree.pager.store._pages == before
        assert tree.pager.counters.page_writes == writes and len(tree) == size

    def test_an_int32_valued_tree_refuses_a_wider_value(self):
        tree = make_tree()
        tree.insert(1, 5)
        assert tree._value_kind == "j"
        for value in (1 << 31, -(1 << 31) - 1, 2.5, "five", True):
            self._refuses(tree, lambda: tree.insert(2, value))
        tree.insert(2, (1 << 31) - 1)  # int32's end
        assert list(tree.items()) == [(1, 5), (2, (1 << 31) - 1)]
        # a bulk load into the emptied tree is held to the same kind
        tree.delete(1)
        tree.delete(2)
        self._refuses(tree, lambda: tree.bulk_load((np.arange(3), np.array([0, 1, 1 << 31]))))

    def test_an_int64_valued_tree_holds_int32_values_too(self):
        tree = make_tree()
        tree.bulk_load((np.arange(3), np.array([0, 1 << 40, 2])))
        assert tree._value_kind == "i"
        tree.insert(5, 7)
        self._refuses(tree, lambda: tree.insert(6, 1 << 63))  # past int64: pickled
        self._refuses(tree, lambda: tree.insert(6, 1.0))
        assert [v for _, v in tree.items()] == [0, 1 << 40, 2, 7]

    def test_a_pickled_valued_tree_holds_anything(self):
        tree = make_tree()
        tree.insert(1, "one")
        tree.insert(2, 2)
        tree.insert(3, 1 << 70)
        assert tree._value_kind == "o" and len(tree) == 3

    def test_an_int_key_is_charged_at_int64_width(self):
        """A first key that fits int32 still charges 8 B a key: the keys
        after it may not fit, and no leaf outgrows its page."""
        page_size = 512
        tree = make_tree(page_size)
        tree.insert(5, 0)
        wide = make_tree(page_size)
        wide.insert(1 << 40, 0)
        assert tree.leaf_capacity == wide.leaf_capacity
        assert tree.internal_capacity == wide.internal_capacity
        for i in range(1, 2000):
            tree.insert((1 << 40) + i, i)
        tree.check_invariants()
        tree.pager.flush()
        for page_id in tree.pager.store._pages:
            assert tree.pager.store.page_bytes(page_id) <= page_size
