"""B+-tree substrate: ordering, duplicates, deletes, bulk load, cell trees."""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import BPlusTree, LeafNode
from repro.storage import Pager


def make_tree(page_size=512, keys_of=None) -> BPlusTree:
    return BPlusTree(Pager(page_size=page_size), keys_of=keys_of)


def _first(cells) -> np.ndarray:
    """``keys_of`` of the cell trees here: a cell's key is its first
    coordinate."""
    return np.asarray(cells)[:, 0].astype(np.int64)


def make_cell_tree(page_size=512) -> BPlusTree:
    return make_tree(page_size, keys_of=_first)


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
    """``(columns, cells)`` of ``n`` sorted entries whose keys are ``kind``;
    ``cells`` (a cell tree's, keyed by :func:`_first`) or None."""
    ids = np.arange(n, dtype=np.int64)  # object id values
    if kind == "cells":
        return (ids * 3, ids), np.column_stack([ids * 3, ids % 7])
    if kind == "int64":
        return (ids * 3, ids), None
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

    @pytest.mark.parametrize("kind", ["cells", "int64", "wide", "wide list", "float", "tuple"])
    def test_bulk_cuts_leaves_by_arithmetic(self, kind):
        """Leaves of ``per_leaf`` rows, the last joining the one before (when
        the two fit a leaf) or sharing with it when it would be under the
        fill a delete keeps, each the leaf its entries make one by one: a
        keyed leaf its keys and values, a cell leaf its values and cells."""
        keys_of = _first if kind == "cells" else None
        columns, cells = _bulk_input(kind, 1)
        probe = make_tree(page_size=512, keys_of=keys_of)
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
            tree = make_tree(page_size=512, keys_of=keys_of)
            tree.bulk_load(columns, cells=cells)
            chain = _leaf_chain(tree)
            assert [len(leaf) for leaf in chain] == _leaf_sizes(n, per_leaf, tree.leaf_capacity)
            # each leaf as the per-entry form of its rows builds it
            keys, values = _as_list(columns[0]), _as_list(columns[1])
            lo = 0
            for leaf in chain:
                hi = lo + len(leaf)
                if cells is None:
                    entry_form = LeafNode([keys[lo:hi], values[lo:hi]], None, leaf.next_page)
                else:
                    entry_form = LeafNode([values[lo:hi]], cells[lo:hi], leaf.next_page)
                assert pickle.dumps(leaf) == pickle.dumps(entry_form)
                lo = hi
            assert list(tree.items()) == list(zip(keys, values))
            assert len(tree) == n
            tree.check_invariants(tight=cells is not None)

    @pytest.mark.parametrize("kind", ["int64", "tuple"])
    def test_bulk_checks_order_and_count_before_writing(self, kind):
        """Unsorted keys, uneven columns, a wrong cell count and cells given
        to a keyed tree (or none to a cell tree) raise with no page
        written."""
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
            ((late, *(np.insert(c, 400, 0) for c in columns[1:])), None, "sorted", None),
            ((last_two_swapped, *columns[1:]), None, "sorted", None),
            ((keys, *(c[:-1] for c in columns[1:])), None, "length", None),
            (columns, np.arange(500)[:, None], "cell tree", None),
            (columns, None, "cell tree", _first),
        ] + [(columns, np.arange(count)[:, None], "cells", _first) for count in (0, 499, 501)]
        for given_columns, cells, message, keys_of in bad:
            tree = make_tree(page_size=256, keys_of=keys_of)
            before = dict(tree.pager.store._pages)
            with pytest.raises(ValueError, match=message):
                tree.bulk_load(given_columns, cells=cells)
            assert tree.pager.store._pages == before
            assert tree.pager.counters.page_writes == 1  # the empty root only
            assert len(tree) == 0 and list(tree.items()) == []
        with pytest.raises(ValueError, match="cells"):
            make_cell_tree(page_size=256).bulk_load(([], []), cells=[[0]])


def _key_cells(keys) -> np.ndarray:
    """Two-column cells whose key (:func:`_first`) is ``keys``: the second
    coordinate gives the boxes a column no key orders."""
    keys = np.asarray(keys, dtype=np.int64).reshape(-1)
    return np.column_stack([keys, keys % 13])


class TestAugmentation:
    """The SPB-tree's MBB maintenance, in a cell tree: leaves keep each
    entry's cell in place of its key (the key is ``keys_of`` of the cell),
    and each internal node's box of a child is the column-wise (min, max)
    of the cells beneath it."""

    def _assert_summaries(self, tree):
        """Every internal box must equal the true (min, max) of its subtree."""

        def check(page_id):
            node = tree.read_node(page_id)
            if node.is_leaf:
                assert node.keys is None and len(node.columns) == 1
                if not len(node):
                    return None
                return node.cells.min(axis=0).tolist(), node.cells.max(axis=0).tolist()
            result = None
            for child, low, high in zip(node.children, node.lows, node.highs):
                truth = check(child)
                if truth is not None:
                    got = (low.tolist(), high.tolist())
                    assert got == truth, f"stale box {got} != {truth}"
                    result = truth if result is None else (
                        list(map(min, result[0], truth[0])),
                        list(map(max, result[1], truth[1])),
                    )
            return result

        check(tree.root_page)
        tree.check_invariants(tight=True)

    def test_bulk_load_summaries(self):
        tree = make_cell_tree(page_size=256)
        tree.bulk_load((np.arange(500), np.arange(500)), cells=_key_cells(range(500)))
        self._assert_summaries(tree)
        assert list(tree.items()) == [(k, k) for k in range(500)]

    def test_bulk_load_boxes_the_given_cells(self):
        """``cells=`` are stored as given and boxed by min / max, with no
        other description of them asked for; inserts then carry their own."""
        items = [(k, k) for k in range(505)]  # 505: the last leaf takes a spill
        tree = make_cell_tree(page_size=256)
        tree.bulk_load(_columns(items), cells=_key_cells(range(505)))
        assert tree.height >= 3
        self._assert_summaries(tree)
        tree.insert(250, 0, _key_cells([250])[0])  # inserts carry their cell
        self._assert_summaries(tree)
        with pytest.raises(ValueError, match="cells"):
            make_cell_tree(page_size=256).bulk_load(_columns(items), cells=[(0, 0)])
        # a cell tree's entries each carry a cell, and no other tree's do;
        # refused before any page changes
        before = dict(tree.pager.store._pages)
        with pytest.raises(ValueError, match="cell"):
            tree.insert(251, 0)
        assert tree.pager.store._pages == before and len(tree) == 506
        plain = make_tree(page_size=256)
        plain.insert(1, 1)
        with pytest.raises(ValueError, match="cell"):
            plain.insert(2, 2, (2, 2))

    def test_insert_maintains_summaries(self):
        tree = make_cell_tree(page_size=256)
        rng = random.Random(2)
        for i in range(600):
            key = rng.randint(0, 10_000)
            tree.insert(key, i, _key_cells([key])[0])
        self._assert_summaries(tree)
        keys = [k for k, _ in tree.items()]
        assert keys == sorted(keys) and len(keys) == 600

    def test_delete_keeps_summaries_conservative(self):
        """A cell tree's delete reaches its row with the row's path, so each
        rebalancing write keeps every box its cells' (min, max): exact, so
        conservative."""
        tree = make_cell_tree(page_size=256)
        keys = list(range(400))
        tree.bulk_load((keys, keys), cells=_key_cells(keys))
        rng = random.Random(3)
        rng.shuffle(keys)
        for k in keys[:300]:
            assert tree.delete(k, k)
            tree.check_invariants(tight=True)
        self._assert_summaries(tree)
        assert list(tree.items()) == sorted((k, k) for k in keys[300:])
        assert not tree.delete(keys[0], keys[0])

    def test_churn_over_a_key_spanning_leaves(self):
        """Many equal keys across several leaves, then inserts, deletes,
        splits, borrows and merges: after every step the tree holds its
        invariants with exact boxes, and its entries, a ``search`` and a
        ``range_scan`` are the model's."""
        # a split is a leaf's row going into its parent
        names = ("_insert_into_parent", "_borrow_from_left", "_borrow_from_right", "_merge")
        calls = dict.fromkeys(names, 0)
        tree = make_cell_tree(page_size=256)
        for name in calls:

            def counted(*args, _name=name, _method=getattr(tree, name)):
                calls[_name] += 1
                return _method(*args)

            setattr(tree, name, counted)
        # 90 rows of key 50 between rows of keys 0..49 and 51..99
        keys = sorted(list(range(100)) + [50] * 89)
        model = {(key, value) for value, key in enumerate(keys)}
        tree.bulk_load((keys, list(range(len(keys)))), cells=_key_cells(keys))
        leaves = [leaf for leaf in _leaf_chain(tree) if 50 in _first(leaf.cells)]
        assert len(leaves) >= 4
        serial, rng = len(keys), random.Random(5)

        def step():
            tree.check_invariants(tight=True)
            assert sorted(tree.items()) == sorted(model)
            assert [k for k, _ in tree.items()] == sorted(k for k, _ in model)
            assert sorted(tree.search(50)) == sorted(v for k, v in model if k == 50)
            want = sorted((k, v) for k, v in model if 40 <= k <= 60)
            assert sorted(tree.range_scan(40, 60)) == want
            assert [k for k, _ in tree.range_scan(40, 60)] == [k for k, _ in want]

        for round_ in range(4):
            # grow: more of key 50 (splitting its leaves) and keys around it
            for _ in range(40):
                key = 50 if rng.random() < 0.5 else rng.randint(0, 100)
                tree.insert(key, serial, _key_cells([key])[0])
                model.add((key, serial))
                serial += 1
                step()
            # shrink: delete by (key, value), most of key 50 first
            victims = sorted(model, key=lambda kv: (kv[0] != 50, rng.random()))
            for key, value in victims[: 50 + 10 * round_]:
                assert tree.delete(key, value)
                model.discard((key, value))
                step()
            assert not tree.delete(50, -1)
            # a value is found only among the leaves its key leads to
            tree.insert(50, serial, _key_cells([50])[0])
            model.add((50, serial))
            assert not tree.delete(10, serial) and not tree.delete(90, serial)
            serial += 1
            step()
        assert all(calls.values()), calls
        assert len(tree) == len(model)

    def test_a_split_orders_the_leaf_by_its_cells_keys(self):
        """Rows go into a cell leaf in arrival order; the split that follows
        an overflow sorts them by the keys their cells give (one stable
        sort) and cuts at the middle key."""
        tree = make_cell_tree(page_size=256)
        keys = [9, 3, 7, 3, 1, 8, 2, 6, 5, 4, 0, 3]
        for value, key in enumerate(keys):
            tree.insert(key, value, _key_cells([key])[0])
            if tree.height == 1:
                leaf = tree.read_node(tree.root_page)
                assert leaf.values == list(range(value + 1))  # appended
        assert tree.height == 2
        tree.check_invariants(tight=True)
        assert list(tree.items()) == sorted(
            ((k, v) for v, k in enumerate(keys)), key=lambda kv: kv[0]
        )


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
