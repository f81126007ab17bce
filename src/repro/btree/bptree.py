"""Paged B+-tree.

The substrate of three indexes in the study: the M-index and M-index* (keys
are iDistance-style reals), the SPB-tree (keys are Hilbert values) and the
OmniB+-tree (one tree per pivot).  Design points:

* **Paged**: every node lives on one page of a
  :class:`~repro.storage.pager.Pager`; all traffic is counted as PA.
* **Duplicate keys** are allowed (many objects share an SFC value or an
  iDistance key); deletion therefore matches on (key, value).
* **Augmentation**: an optional :class:`Augmentation` computes a summary per
  child entry that parents store alongside the child pointer -- the SPB-tree
  uses it to maintain the MBB of each subtree in discretised pivot space
  (the paper's "min/max SFC values" per non-leaf entry).  Summaries are
  maintained through inserts, deletes and splits.
* **Bulk load** builds a compact tree from sorted input (used at index
  construction time, like the paper's bottom-up builds).

Node fan-out is derived from the page size and a measured per-entry byte
size, the way a real system computes fan-out from its page format.
"""

from __future__ import annotations

import bisect
import itertools
import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..storage.pager import Pager

__all__ = ["BPlusTree", "Augmentation", "LeafNode", "InternalNode"]


@dataclass
class Augmentation:
    """Subtree summaries stored with parent entries.

    Attributes:
        from_entry: summary of one leaf entry ``(key, value) -> aux``.
        merge: combine child summaries ``list[aux] -> aux``.
    """

    from_entry: Callable[[Any, Any], Any]
    merge: Callable[[list], Any]


@dataclass
class LeafNode:
    keys: list = field(default_factory=list)
    values: list = field(default_factory=list)
    next_page: int | None = None

    is_leaf = True

    def __len__(self) -> int:
        return len(self.keys)


@dataclass
class InternalNode:
    # separators[i] is the smallest key reachable under children[i + 1]
    separators: list = field(default_factory=list)
    children: list = field(default_factory=list)
    aux: list = field(default_factory=list)  # one summary per child (or None)

    is_leaf = False

    def __len__(self) -> int:
        return len(self.children)


class BPlusTree:
    """B+-tree over an external pager; see module docstring."""

    def __init__(
        self,
        pager: Pager,
        augmentation: Augmentation | None = None,
        leaf_capacity: int | None = None,
        internal_capacity: int | None = None,
    ):
        self.pager = pager
        self.augmentation = augmentation
        self._leaf_capacity = leaf_capacity
        self._internal_capacity = internal_capacity
        self.root_page: int = self.pager.allocate()
        self.height = 1
        self._size = 0
        self.pager.write(self.root_page, LeafNode())

    # -- capacity ---------------------------------------------------------

    def _entry_bytes(self, key, value) -> int:
        return len(pickle.dumps((key, value), protocol=pickle.HIGHEST_PROTOCOL))

    def _ensure_capacities(self, key, value) -> None:
        if self._leaf_capacity is None:
            per_entry = max(8, self._entry_bytes(key, value))
            self._leaf_capacity = max(4, (self.pager.page_size - 64) // per_entry)
        if self._internal_capacity is None:
            per_entry = max(8, self._entry_bytes(key, 0) + 16)
            self._internal_capacity = max(4, (self.pager.page_size - 64) // per_entry)

    @property
    def leaf_capacity(self) -> int:
        return self._leaf_capacity or 0

    def __len__(self) -> int:
        return self._size

    # -- node IO ------------------------------------------------------------

    def _read(self, page_id: int):
        return self.pager.read(page_id)

    def _write(self, page_id: int, node) -> None:
        self.pager.write(page_id, node)

    def read_node(self, page_id: int):
        """Public node access for index-specific traversals (SPB-tree)."""
        return self._read(page_id)

    # -- augmentation helpers --------------------------------------------------

    def _leaf_summary(self, leaf: LeafNode, summaries: list | None = None):
        """Merged summary of a leaf; ``summaries`` are its entries' if known."""
        if self.augmentation is None or not leaf.keys:
            return None
        if summaries is None:
            summaries = [
                self.augmentation.from_entry(k, v)
                for k, v in zip(leaf.keys, leaf.values)
            ]
        return self.augmentation.merge(summaries)

    def _internal_summary(self, node: InternalNode):
        if self.augmentation is None:
            return None
        present = [a for a in node.aux if a is not None]
        return self.augmentation.merge(present) if present else None

    def _node_summary(self, node):
        return self._leaf_summary(node) if node.is_leaf else self._internal_summary(node)

    # -- search ------------------------------------------------------------------

    def _child_index(self, node: InternalNode, key) -> int:
        # bisect_left keeps the descent at-or-before the first duplicate of
        # ``key`` under the weak separator invariant (left <= sep <= right),
        # so search/range/delete can walk the leaf chain rightwards.
        return bisect.bisect_left(node.separators, key)

    def _find_leaf(self, key) -> tuple[int, LeafNode, list[tuple[int, InternalNode, int]]]:
        """Descend to the leaf for ``key``; returns (page, leaf, path).

        ``path`` lists (page_id, node, child_position) top-down.
        """
        path: list[tuple[int, InternalNode, int]] = []
        page_id = self.root_page
        node = self._read(page_id)
        while not node.is_leaf:
            pos = self._child_index(node, key)
            path.append((page_id, node, pos))
            page_id = node.children[pos]
            node = self._read(page_id)
        return page_id, node, path

    def search(self, key) -> list:
        """All values stored under exactly ``key``."""
        page_id, leaf, _ = self._find_leaf(key)
        results: list = []
        while True:
            start = bisect.bisect_left(leaf.keys, key)
            for i in range(start, len(leaf.keys)):
                if leaf.keys[i] != key:
                    return results
                results.append(leaf.values[i])
            if leaf.next_page is None:
                return results
            leaf = self._read(leaf.next_page)

    def range_scan(self, low, high) -> Iterator[tuple[Any, Any]]:
        """Yield (key, value) pairs with ``low <= key <= high`` in key order."""
        if low > high:
            return
        _, leaf, _ = self._find_leaf(low)
        while True:
            start = bisect.bisect_left(leaf.keys, low)
            for i in range(start, len(leaf.keys)):
                if leaf.keys[i] > high:
                    return
                yield leaf.keys[i], leaf.values[i]
            if leaf.next_page is None:
                return
            leaf = self._read(leaf.next_page)

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All (key, value) pairs in key order."""
        page_id = self.root_page
        node = self._read(page_id)
        while not node.is_leaf:
            page_id = node.children[0]
            node = self._read(page_id)
        while True:
            yield from zip(node.keys, node.values)
            if node.next_page is None:
                return
            node = self._read(node.next_page)

    # -- insert ---------------------------------------------------------------

    def insert(self, key, value) -> None:
        self._ensure_capacities(key, value)
        page_id, leaf, path = self._find_leaf(key)
        pos = bisect.bisect_right(leaf.keys, key)
        leaf.keys.insert(pos, key)
        leaf.values.insert(pos, value)
        self._size += 1

        if len(leaf) <= self._leaf_capacity:
            self._write(page_id, leaf)
            self._refresh_path(path, page_id, leaf)
            return

        # split leaf
        mid = len(leaf) // 2
        right = LeafNode(
            keys=leaf.keys[mid:], values=leaf.values[mid:], next_page=leaf.next_page
        )
        right_page = self.pager.allocate()
        leaf.keys, leaf.values = leaf.keys[:mid], leaf.values[:mid]
        leaf.next_page = right_page
        self._write(page_id, leaf)
        self._write(right_page, right)
        self._insert_into_parent(
            path, page_id, leaf, right.keys[0], right_page, right
        )

    def _insert_into_parent(
        self, path, left_page: int, left_node, separator, right_page: int, right_node
    ) -> None:
        left_aux = self._node_summary(left_node)
        right_aux = self._node_summary(right_node)
        while path:
            parent_page, parent, pos = path.pop()
            parent.children[pos] = left_page
            parent.aux[pos] = left_aux
            parent.separators.insert(pos, separator)
            parent.children.insert(pos + 1, right_page)
            parent.aux.insert(pos + 1, right_aux)
            if len(parent) <= self._internal_capacity:
                self._write(parent_page, parent)
                self._refresh_path(path, parent_page, parent)
                return
            # split internal node: middle separator moves up
            mid = len(parent.separators) // 2
            up_key = parent.separators[mid]
            right = InternalNode(
                separators=parent.separators[mid + 1 :],
                children=parent.children[mid + 1 :],
                aux=parent.aux[mid + 1 :],
            )
            parent.separators = parent.separators[:mid]
            parent.children = parent.children[: mid + 1]
            parent.aux = parent.aux[: mid + 1]
            new_right_page = self.pager.allocate()
            self._write(parent_page, parent)
            self._write(new_right_page, right)
            left_page, left_node = parent_page, parent
            right_page, right_node = new_right_page, right
            separator = up_key
            left_aux = self._internal_summary(parent)
            right_aux = self._internal_summary(right)
        # root split
        new_root = InternalNode(
            separators=[separator],
            children=[left_page, right_page],
            aux=[left_aux, right_aux],
        )
        self.root_page = self.pager.allocate()
        self._write(self.root_page, new_root)
        self.height += 1

    def _refresh_path(self, path, child_page: int, child_node) -> None:
        """Propagate augmentation changes up the (already-visited) path."""
        if self.augmentation is None:
            return
        summary = self._node_summary(child_node)
        for parent_page, parent, pos in reversed(path):
            if parent.aux[pos] == summary:
                return
            parent.aux[pos] = summary
            self._write(parent_page, parent)
            summary = self._internal_summary(parent)

    # -- delete -----------------------------------------------------------------

    def delete(self, key, value=...) -> bool:
        """Remove one entry with ``key`` (and ``value``, when given).

        Returns True when an entry was removed.  Underflowing nodes borrow
        from or merge with a sibling; the root collapses when it has a single
        child.
        """
        page_id, leaf, path = self._find_leaf(key)
        walked = False
        # locate entry (may continue into following leaves on duplicates)
        while True:
            pos = bisect.bisect_left(leaf.keys, key)
            found = -1
            for i in range(pos, len(leaf.keys)):
                if leaf.keys[i] != key:
                    return False
                if value is ... or leaf.values[i] == value:
                    found = i
                    break
            if found >= 0:
                break
            if leaf.next_page is None:
                return False
            # walk right through duplicates of ``key``
            page_id = leaf.next_page
            leaf = self._read(page_id)
            walked = True
        del leaf.keys[found]
        del leaf.values[found]
        self._size -= 1
        self._write(page_id, leaf)
        if walked:
            # No descend path for this leaf.  Skip rebalancing: an underfull
            # leaf is operationally harmless, and parent MBB summaries only
            # ever shrink on delete, so stale ones stay conservative (safe).
            return True
        self._rebalance(path, page_id, leaf)
        return True

    def _min_fill(self, capacity: int) -> int:
        return max(1, capacity // 2)

    def _rebalance(self, path, page_id: int, node) -> None:
        self._refresh_path(path, page_id, node)
        capacity = self._leaf_capacity if node.is_leaf else self._internal_capacity
        if capacity is None or len(node) >= self._min_fill(capacity) or not path:
            self._collapse_root()
            return
        parent_page, parent, pos = path[-1]
        # try borrowing from siblings, else merge
        if pos > 0:
            left_page = parent.children[pos - 1]
            left = self._read(left_page)
            if len(left) > self._min_fill(capacity):
                self._borrow_from_left(parent, pos, left, node)
                self._write(left_page, left)
                self._write(page_id, node)
                parent.aux[pos - 1] = self._node_summary(left)
                parent.aux[pos] = self._node_summary(node)
                self._write(parent_page, parent)
                self._refresh_path(path[:-1], parent_page, parent)
                return
        if pos < len(parent.children) - 1:
            right_page = parent.children[pos + 1]
            right = self._read(right_page)
            if len(right) > self._min_fill(capacity):
                self._borrow_from_right(parent, pos, node, right)
                self._write(right_page, right)
                self._write(page_id, node)
                parent.aux[pos] = self._node_summary(node)
                parent.aux[pos + 1] = self._node_summary(right)
                self._write(parent_page, parent)
                self._refresh_path(path[:-1], parent_page, parent)
                return
        # merge with a sibling
        if pos > 0:
            left_page = parent.children[pos - 1]
            left = self._read(left_page)
            self._merge(parent, pos - 1, left, node)
            self._write(left_page, left)
            self.pager.free(page_id)
            parent.aux[pos - 1] = self._node_summary(left)
            del parent.separators[pos - 1]
            del parent.children[pos]
            del parent.aux[pos]
        else:
            right_page = parent.children[pos + 1]
            right = self._read(right_page)
            self._merge(parent, pos, node, right)
            self._write(page_id, node)
            self.pager.free(right_page)
            parent.aux[pos] = self._node_summary(node)
            del parent.separators[pos]
            del parent.children[pos + 1]
            del parent.aux[pos + 1]
        self._write(parent_page, parent)
        self._rebalance(path[:-1], parent_page, parent)

    def _borrow_from_left(self, parent, pos, left, node) -> None:
        if node.is_leaf:
            node.keys.insert(0, left.keys.pop())
            node.values.insert(0, left.values.pop())
            parent.separators[pos - 1] = node.keys[0]
        else:
            node.separators.insert(0, parent.separators[pos - 1])
            parent.separators[pos - 1] = left.separators.pop()
            node.children.insert(0, left.children.pop())
            node.aux.insert(0, left.aux.pop())

    def _borrow_from_right(self, parent, pos, node, right) -> None:
        if node.is_leaf:
            node.keys.append(right.keys.pop(0))
            node.values.append(right.values.pop(0))
            parent.separators[pos] = right.keys[0]
        else:
            node.separators.append(parent.separators[pos])
            parent.separators[pos] = right.separators.pop(0)
            node.children.append(right.children.pop(0))
            node.aux.append(right.aux.pop(0))

    def _merge(self, parent, left_pos, left, right) -> None:
        if left.is_leaf:
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next_page = right.next_page
        else:
            left.separators.append(parent.separators[left_pos])
            left.separators.extend(right.separators)
            left.children.extend(right.children)
            left.aux.extend(right.aux)

    def _collapse_root(self) -> None:
        node = self._read(self.root_page)
        while not node.is_leaf and len(node.children) == 1:
            old_root = self.root_page
            self.root_page = node.children[0]
            self.pager.free(old_root)
            self.height -= 1
            node = self._read(self.root_page)

    # -- bulk load ------------------------------------------------------------------

    def bulk_load(self, items, fill_factor: float = 0.85, summaries=None) -> None:
        """Build the tree bottom-up from sorted ``(key, value)`` pairs.

        Requires an empty tree.  ``fill_factor`` leaves slack for later
        inserts, as real loaders do.  A caller that already holds what
        ``augmentation.from_entry`` would return for every item passes it
        as ``summaries`` (one per item, same order); they are merged as
        given, so a costly ``from_entry`` -- the SPB-tree's key decode --
        never runs during the load.

        ``items`` and ``summaries`` are any iterables and are drawn a leaf
        at a time (one leaf ahead, to see whether the last one is
        underfull), so a caller that generates them holds two leaves of
        entries at most, never a list of all of them.  Order and count are
        therefore checked as the input arrives: a load that raises part-way
        has written pages, and the tree is to be discarded.
        """
        if self._size:
            raise RuntimeError("bulk_load requires an empty tree")
        items = iter(items)
        run = list(itertools.islice(items, 1))
        if not run:
            return
        if summaries is not None:
            summaries = iter(summaries)
        self._ensure_capacities(*run[0])
        per_leaf = max(2, int(self._leaf_capacity * fill_factor))
        per_internal = max(2, int(self._internal_capacity * fill_factor))

        self.pager.free(self.root_page)

        # build leaves
        leaves: list[tuple[int, Any, Any]] = []  # (page, first_key, summary)
        run += itertools.islice(items, per_leaf - 1)
        page = self.pager.allocate()
        last_key = run[0][0]
        size = 0
        while run:
            following = list(itertools.islice(items, per_leaf))
            # avoid a dangling underfull final leaf
            if len(following) < max(1, per_leaf // 2):
                run += following
                following = []
            next_page = self.pager.allocate() if following else None
            leaf = LeafNode(
                keys=[k for k, _ in run],
                values=[v for _, v in run],
                next_page=next_page,
            )
            for key in leaf.keys:
                if last_key > key:
                    raise ValueError("bulk_load input must be sorted by key")
                last_key = key
            self._write(page, leaf)
            known = None
            if summaries is not None:
                known = list(itertools.islice(summaries, len(run)))
                if len(known) != len(run):
                    raise ValueError(
                        f"bulk_load ran out of summaries after {size + len(known)} items"
                    )
            leaves.append((page, leaf.keys[0], self._leaf_summary(leaf, known)))
            size += len(run)
            run, page = following, next_page
        if summaries is not None and any(True for _ in summaries):
            raise ValueError(f"bulk_load got more summaries than its {size} items")

        # build internal levels
        level = leaves
        self.height = 1
        while len(level) > 1:
            next_level = []
            groups = [level[i : i + per_internal] for i in range(0, len(level), per_internal)]
            if len(groups) > 1 and len(groups[-1]) < 2:
                groups[-2].extend(groups.pop())
            for group in groups:
                node = InternalNode(
                    separators=[first_key for _, first_key, _ in group[1:]],
                    children=[page for page, _, _ in group],
                    aux=[aux for _, _, aux in group],
                )
                page = self.pager.allocate()
                self._write(page, node)
                next_level.append((page, group[0][1], self._internal_summary(node)))
            level = next_level
            self.height += 1
        self.root_page = level[0][0]
        self._size = size

    # -- diagnostics -------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError when structural invariants are violated."""
        keys = [k for k, _ in self.items()]
        assert keys == sorted(keys), "leaf chain out of order"
        assert len(keys) == self._size, "size counter out of sync"
        self._check_node(self.root_page, None, None, depth=0)

    def _check_node(self, page_id: int, low, high, depth: int) -> int:
        node = self._read(page_id)
        if node.is_leaf:
            for k in node.keys:
                assert low is None or k >= low, "leaf key below separator"
                assert high is None or k <= high, "leaf key above separator"
            return 1
        assert len(node.children) == len(node.separators) + 1
        assert len(node.aux) == len(node.children)
        depths = set()
        bounds = [low, *node.separators, high]
        for i, child in enumerate(node.children):
            depths.add(self._check_node(child, bounds[i], bounds[i + 1], depth + 1))
        assert len(depths) == 1, "unbalanced subtrees"
        return depths.pop() + 1
