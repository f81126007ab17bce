"""B+-tree substrate: ordering, duplicates, deletes, bulk load, cell boxes."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import BPlusTree
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


class TestBulkLoad:
    def test_bulk_matches_inserts(self):
        items = [(k, str(k)) for k in range(0, 2000, 2)]
        bulk = make_tree()
        bulk.bulk_load(items)
        bulk.check_invariants()
        assert list(bulk.items()) == items

    def test_bulk_requires_sorted(self):
        tree = make_tree()
        with pytest.raises(ValueError):
            tree.bulk_load([(2, "b"), (1, "a")])

    def test_bulk_requires_empty(self):
        tree = make_tree()
        tree.insert(1, 1)
        with pytest.raises(RuntimeError):
            tree.bulk_load([(2, 2)])

    def test_bulk_then_mutate(self):
        tree = make_tree(page_size=256)
        tree.bulk_load([(k, k) for k in range(500)])
        for k in range(500, 700):
            tree.insert(k, k)
        for k in range(0, 500, 3):
            assert tree.delete(k, k)
        tree.check_invariants()
        want = sorted(set(range(700)) - set(range(0, 500, 3)))
        assert [k for k, _ in tree.items()] == want

    def test_bulk_empty(self):
        tree = make_tree()
        tree.bulk_load([])
        assert list(tree.items()) == []
        tree.bulk_load(iter(()))
        assert list(tree.items()) == []

    def test_bulk_draws_its_input_a_leaf_at_a_time(self):
        """Generators give the tree lists give, and are never drawn far ahead."""
        probe = make_tree(page_size=256)
        probe.bulk_load([(0, 0)], cells=[[0]])
        per_leaf = int(probe.leaf_capacity * 0.85)
        assert per_leaf >= 4
        spill = 3 * per_leaf + per_leaf // 2  # below: the last two leaves share rows
        for n in (1, 2, per_leaf, per_leaf + 1, 2 * per_leaf, spill - 1, spill, 1000):
            cells = np.arange(n)[:, None]
            listed = make_tree(page_size=256)
            listed.bulk_load([(k, k) for k in range(n)], cells=cells)
            streamed = make_tree(page_size=256)
            ahead = []

            def items():
                for k in range(n):
                    # one write made the empty root, every later one a full leaf
                    written = streamed.pager.counters.page_writes - 1
                    ahead.append(k - written * per_leaf)
                    yield k, k

            streamed.bulk_load(items(), cells=cells)
            assert max(ahead) < 2 * per_leaf
            # the leaves the all-at-once loader cut: full ones, and a last
            # one that shares the last two's rows evenly when under half full
            sizes = [per_leaf] * (n // per_leaf) + [n % per_leaf] * (n % per_leaf > 0)
            if len(sizes) > 1 and sizes[-1] < per_leaf // 2:
                total = sizes[-2] + sizes[-1]
                sizes[-2:] = [(total + 1) // 2, total // 2]
            node = streamed.read_node(streamed.root_page)
            while not node.is_leaf:
                node = streamed.read_node(node.children[0])
            chain = [node]
            while chain[-1].next_page is not None:
                chain.append(streamed.read_node(chain[-1].next_page))
            assert [len(leaf) for leaf in chain] == sizes
            assert streamed.pager.store._pages == listed.pager.store._pages
            assert (streamed.root_page, streamed.height, len(streamed)) == (
                listed.root_page,
                listed.height,
                n,
            )
            streamed.check_invariants(cells_of=_key_cells, tight=True)

    def test_bulk_checks_order_and_count_as_the_input_arrives(self):
        items = [(k, k) for k in range(500)]
        late = items[:400] + [(10, 10)] + items[400:]
        with pytest.raises(ValueError, match="sorted"):
            make_tree(page_size=256).bulk_load(iter(late))
        for count in (0, 499, 501):
            with pytest.raises(ValueError, match="cells"):
                make_tree(page_size=256).bulk_load(
                    iter(items), cells=np.arange(count)[:, None]
                )
        with pytest.raises(ValueError, match="cells"):
            make_tree(page_size=256).bulk_load([], cells=[[0]])


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
        tree.bulk_load([(k, k) for k in range(500)], cells=_key_cells(range(500)))
        self._assert_summaries(tree)

    def test_bulk_load_boxes_the_given_cells(self):
        """``cells=`` are stored as given and boxed by min / max, with no
        other description of them asked for; inserts then carry their own."""
        items = [(k, k) for k in range(505)]  # 505: the last leaf takes a spill
        tree = make_tree(page_size=256)
        tree.bulk_load(items, cells=_key_cells(range(505)))
        assert tree.height >= 3
        self._assert_summaries(tree)
        tree.insert(250, 0, (250,))  # inserts carry their cell
        self._assert_summaries(tree)
        with pytest.raises(ValueError, match="cells"):
            make_tree(page_size=256).bulk_load(items, cells=[(0,)])
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
        tree.bulk_load([(k, k) for k in keys], cells=_key_cells(keys))
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
