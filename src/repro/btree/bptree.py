"""Paged B+-tree with columnar nodes.

The substrate of four indexes in the study: the M-index and M-index* (keys
are ``(cluster path, distance)`` tuples), the SPB-tree (keys are Hilbert
values) and the OmniB+-tree (one tree per pivot, keys are distances).
Design points:

* **Paged**: every node lives on one page of a
  :class:`~repro.storage.pager.Pager`; all traffic is counted as PA.
* **Duplicate keys** are allowed (many objects share an SFC value or an
  iDistance key); deletion therefore matches on (key, value).
* **Grid cells**: an entry may carry an integer cell (the SPB-tree's grid
  coordinates, one per pivot).  A leaf keeps its entries' cells as an
  ``m x l`` block, and every internal node keeps, per child, the
  column-wise min / max of the cells beneath it (``lows`` / ``highs``,
  ``c x l``) -- the paper's MBB of each subtree in discretised pivot
  space.  Boxes are kept exact through inserts, splits and rebalancing
  deletes; a delete that walks past its descent path leaves its parents'
  boxes wide, which is conservative.
* **Bulk load** builds a compact tree from sorted input (used at index
  construction time, like the paper's bottom-up builds), ``_BULK_FILL`` of
  each node full so that later inserts find room.

**Node format.**  A node is stored by column, with the RAF page's column
kinds and raw-bytes packing (:func:`~repro.storage.raf.pack_column`).  A
leaf row is ``(key, value fields[, cell])``::

    column                      kind                           bytes a row
    key                         int64 / float64 / pickled      8 / 8 / its pickle
    value (object id, pointer)  int64 id, page, slot           24
    any other value             int64 / float64 / pickled      8 / 8 / its pickle
    cell                        (rows, l) block, cell dtype    l x itemsize

An internal node holds ``separators`` (the key column's kind), ``children``
(int64 page ids) and the ``c x l`` ``lows`` / ``highs`` of a tree whose
entries carry cells.  A node holds its columns as lists (and its cells and
boxes as arrays) in memory, so a read is one ``frombuffer`` a column.  The
kinds are chosen when a node is pickled: the narrowest that holds every
value of the column, so a key with no columnar form (the M-index's tuple)
is a pickled list.  Fan-out is arithmetic: ``(page_size - header) // row
bytes``, the header being what the node's empty form pickles to (plus
each raw buffer's length opcode and memo) and the row bytes those of the
first entry the tree is given.

Worked LA leaf (the SPB-tree of ``la_disk_mixed_rw``: 5 pivots, 8-bit grid,
4 KB pages): a row is an int64 Hilbert key, object id, RAF page and slot
plus 5 ``uint8`` cell bytes, 37 B; the header is 110 B, so a leaf takes
``(4096 - 110) // 37 = 107`` rows and a bulk-loaded leaf 90 (a blob of at
most 110 + 90 * 37 = 3 440 B).  20 000 objects fill 223 leaves, where key
/ value lists sized by one entry's standalone pickle (93 B a row) filled
556.

Pages written when leaves were key / value lists read into columns and are
written back as columns; an SPB-tree from then gets its cells and boxes
when it loads (:meth:`BPlusTree.add_cells`).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import pickle

import numpy as np

from ..storage.pager import Pager
from ..storage.raf import (
    RecordPointer,
    encode_column,
    field_bytes,
    pack_column,
    unpack_column,
)

__all__ = ["BPlusTree", "LeafNode", "InternalNode"]

_BULK_FILL = 0.85  # of a node's capacity, filled by bulk_load
_REF = 4  # columns of a leaf of (object id, RecordPointer) values
_FAR_PAGE = (1 << 31) - 1  # a next-page id as long as its pickle gets
_INT64_MIN, _INT64_END = -(1 << 63), 1 << 63


def _kind_of(values) -> str:
    """The narrowest column kind holding every value: ``i`` (int64), ``f``
    (float64) or ``o`` (a pickled list)."""
    if all(type(v) is int for v in values):
        if not values or (_INT64_MIN <= min(values) and max(values) < _INT64_END):
            return "i"
        return "o"
    return "f" if all(type(v) is float for v in values) else "o"


def _packed(kind: str, values: list):
    return pack_column(kind, encode_column((kind,), values))


def _unpacked(kind: str, packed) -> list:
    column = unpack_column(kind, packed)
    return column if kind == "o" else column.tolist()


def _is_ref(value) -> bool:
    return type(value) is tuple and len(value) == 2 and type(value[1]) is RecordPointer


def _span(lows, highs):
    """``(lows.min, highs.max)`` over rows: the box of cells (or of child
    boxes); an empty set of rows has the inverted box no query reaches."""
    if lows is None:
        return None
    if not len(lows):
        return np.full(lows.shape[1], np.iinfo(lows.dtype).max, lows.dtype), np.zeros(
            lows.shape[1], lows.dtype
        )
    return lows.min(axis=0), highs.max(axis=0)


def _stacked(boxes):
    """``(lows, highs)`` arrays of per-child boxes; None without boxes."""
    if not boxes or boxes[0] is None:
        return None, None
    return np.stack([b[0] for b in boxes]), np.stack([b[1] for b in boxes])


def _cells_packed(cells):
    return None if cells is None else pack_column("a", cells)


def _leaf_args(kinds, columns, cells, next_page) -> tuple:
    return kinds, tuple(map(_packed, kinds, columns)), _cells_packed(cells), next_page


def _leaf_from(kinds, packed, cells, next_page) -> "LeafNode":
    leaf = LeafNode.__new__(LeafNode)
    leaf.columns = list(map(_unpacked, kinds, packed))
    leaf.cells = None if cells is None else unpack_column("a", cells)
    leaf.next_page = next_page
    return leaf


class LeafNode:
    """One leaf: its rows by column, and the next leaf's page.

    ``columns`` are lists, one entry a row: the keys, then the values -- one
    column of them, or, when every value is an ``(object id,
    RecordPointer)`` pair, three (ids, pointer pages, pointer slots).
    ``cells`` is the rows' ``m x l`` grid cells, or None in a tree whose
    entries carry none.
    """

    __slots__ = ("columns", "cells", "next_page")
    is_leaf = True

    def __init__(self, columns, cells=None, next_page=None):
        self.columns = columns
        self.cells = cells
        self.next_page = next_page

    @classmethod
    def of(cls, keys, values, cells=None, next_page=None) -> "LeafNode":
        """A leaf of the rows ``keys[i]`` / ``values[i]`` (/ ``cells[i]``)."""
        if values and all(map(_is_ref, values)):
            columns = [
                list(keys),
                [v[0] for v in values],
                [v[1].page_id for v in values],
                [v[1].slot for v in values],
            ]
        else:
            columns = [list(keys), list(values)]
        return cls(columns, None if cells is None else np.asarray(cells), next_page)

    def __reduce__(self):
        kinds = "".join(map(_kind_of, self.columns))
        return _leaf_from, _leaf_args(kinds, self.columns, self.cells, self.next_page)

    def __setstate__(self, state):
        # pickled as the dataclass of key and value lists (the layout
        # before columns): read into columns, written back as columns
        fresh = LeafNode.of(state["keys"], state["values"], None, state["next_page"])
        self.columns, self.cells, self.next_page = fresh.columns, None, fresh.next_page

    def __len__(self) -> int:
        return len(self.columns[0])

    @property
    def keys(self) -> list:
        return self.columns[0]

    @property
    def ids(self) -> list:
        """The object ids of ``(object id, pointer)`` values (the values
        themselves in a leaf of other values)."""
        return self.columns[1]

    def value(self, i: int):
        if len(self.columns) == _REF:
            _, ids, pages, slots = self.columns
            return ids[i], RecordPointer(pages[i], slots[i])
        return self.columns[1][i]

    def values(self) -> list:
        return [self.value(i) for i in range(len(self))]

    def box(self):
        return _span(self.cells, self.cells)

    # -- row edits (the tree writes the leaf afterwards) ---------------------------

    def insert(self, pos: int, key, value, cell=None) -> None:
        """Put one row at ``pos``; raises before any change when ``cell``
        disagrees with the leaf's rows about carrying one."""
        if cell is None and self.cells is not None or (
            cell is not None and self.cells is None and len(self)
        ):
            raise ValueError("every entry of a tree carries a grid cell, or none does")
        if not len(self):  # an empty leaf takes its first row's layout
            dtype = None if self.cells is None else self.cells.dtype
            cells = None if cell is None else np.asarray([cell], dtype=dtype)
            fresh = LeafNode.of([key], [value], cells)
            self.columns, self.cells = fresh.columns, fresh.cells
            return
        if len(self.columns) == _REF and not _is_ref(value):
            self.columns = [self.keys, self.values()]
        if len(self.columns) == _REF:
            fields = (key, value[0], value[1].page_id, value[1].slot)
        else:
            fields = (key, value)
        for column, field in zip(self.columns, fields):
            column.insert(pos, field)
        if cell is not None:
            self.cells = np.insert(self.cells, pos, cell, axis=0)

    def pop(self, pos: int) -> tuple:
        """Remove the row at ``pos``; returns its ``(key, value, cell)``."""
        row = self.keys[pos], self.value(pos), None if self.cells is None else self.cells[pos]
        for column in self.columns:
            del column[pos]
        if self.cells is not None:
            self.cells = np.delete(self.cells, pos, axis=0)
        return row

    def split(self, mid: int, right_page: int) -> "LeafNode":
        """Keep rows ``[:mid]``; returns a leaf of the rest, chained after
        this one at ``right_page``."""
        right = LeafNode(
            [column[mid:] for column in self.columns],
            None if self.cells is None else self.cells[mid:],
            self.next_page,
        )
        self.columns = [column[:mid] for column in self.columns]
        if self.cells is not None:
            self.cells = self.cells[:mid]
        self.next_page = right_page
        return right

    def extend(self, right: "LeafNode") -> None:
        """Take ``right``'s rows after this leaf's own (a merge)."""
        if not len(self):
            self.columns, self.cells = right.columns, right.cells
        elif len(right):
            if len(self.columns) != len(right.columns):
                self.columns = [self.keys, self.values()]
                right.columns = [right.keys, right.values()]
            for column, tail in zip(self.columns, right.columns):
                column.extend(tail)
            if self.cells is not None:
                self.cells = np.concatenate([self.cells, right.cells])
        self.next_page = right.next_page


def _internal_args(kind, separators, children, lows, highs) -> tuple:
    return (
        kind,
        _packed(kind, separators),
        _packed("i", children),
        _cells_packed(lows),
        _cells_packed(highs),
    )


def _internal_from(kind, separators, children, lows, highs) -> "InternalNode":
    node = InternalNode.__new__(InternalNode)
    node.separators = _unpacked(kind, separators)
    node.children = _unpacked("i", children)
    # boxes change in place (a child's box is refreshed row by row)
    node.lows = None if lows is None else unpack_column("a", lows).copy()
    node.highs = None if highs is None else unpack_column("a", highs).copy()
    return node


class InternalNode:
    """``separators[i]`` is the smallest key reachable under
    ``children[i + 1]``; row ``i`` of ``lows`` / ``highs`` (``c x l``, or
    None) is the box of the cells under ``children[i]``."""

    __slots__ = ("separators", "children", "lows", "highs")
    is_leaf = False

    def __init__(self, separators, children, boxes=None):
        self.separators = separators
        self.children = children
        self.lows, self.highs = _stacked(boxes)

    def __reduce__(self):
        kind = _kind_of(self.separators)
        return _internal_from, _internal_args(
            kind, self.separators, self.children, self.lows, self.highs
        )

    def __setstate__(self, state):
        # pickled as the dataclass with one summary a child: an SPB-tree
        # rebuilds its boxes from its leaves' cells when it loads
        self.separators, self.children = state["separators"], state["children"]
        self.lows = self.highs = None

    def __len__(self) -> int:
        return len(self.children)

    def box(self):
        return _span(self.lows, self.highs)

    def has_box(self, pos: int, box) -> bool:
        return np.array_equal(self.lows[pos], box[0]) and np.array_equal(self.highs[pos], box[1])

    def set_box(self, pos: int, box) -> None:
        if box is not None:
            self.lows[pos], self.highs[pos] = box

    def put_child(self, pos: int, child: int, box) -> None:
        """Insert ``child`` with its box at ``pos`` (separators are the
        caller's)."""
        self.children.insert(pos, child)
        if box is not None:
            self.lows = np.insert(self.lows, pos, box[0], axis=0)
            self.highs = np.insert(self.highs, pos, box[1], axis=0)

    def pop_child(self, pos: int) -> tuple:
        """Remove child ``pos``; returns ``(page, box)``."""
        box = None if self.lows is None else (self.lows[pos], self.highs[pos])
        child = self.children.pop(pos)
        if box is not None:
            self.lows = np.delete(self.lows, pos, axis=0)
            self.highs = np.delete(self.highs, pos, axis=0)
        return child, box

    def split(self, mid: int) -> tuple:
        """Keep separators ``[:mid]`` and children ``[:mid + 1]``; returns
        ``(separators[mid], node of the rest)``."""
        up_key = self.separators[mid]
        right = InternalNode(self.separators[mid + 1 :], self.children[mid + 1 :])
        self.separators = self.separators[:mid]
        self.children = self.children[: mid + 1]
        if self.lows is not None:
            right.lows, right.highs = self.lows[mid + 1 :].copy(), self.highs[mid + 1 :].copy()
            self.lows, self.highs = self.lows[: mid + 1].copy(), self.highs[: mid + 1].copy()
        return up_key, right

    def extend(self, separator, right: "InternalNode") -> None:
        """Take ``right``'s children after this node's own, ``separator``
        between them (a merge)."""
        self.separators = self.separators + [separator] + right.separators
        self.children = self.children + right.children
        if self.lows is not None:
            self.lows = np.concatenate([self.lows, right.lows])
            self.highs = np.concatenate([self.highs, right.highs])


def _no_cells(spec):
    """The empty cell block of ``spec``, or None."""
    return None if spec is None else np.zeros((0, spec[1]), dtype=spec[0])


def _header_bytes(empty, buffers: int) -> int:
    """What a node pickles to beyond its rows' bytes, from the ``(function,
    args)`` pair of its empty form (a pair pickles to the length of the node
    that reduces to it: a TUPLE2 opcode where the node has a REDUCE).  The
    empty form's ``buffers`` raw buffers are the one empty bytes object --
    3 B the first time, a 2 B memo reference after -- where a node's cost
    6 B each beside their data (a 5 B length opcode past 255 B, a memo)."""
    nbytes = len(pickle.dumps(empty, protocol=pickle.HIGHEST_PROTOCOL))
    return nbytes + (4 * buffers - 1 if buffers else 0)


@functools.lru_cache(maxsize=64)
def _leaf_header(kinds: str, cell_spec) -> int:
    """The header of a leaf of ``kinds`` (with the longest next-page id)."""
    args = _leaf_args(kinds, [[] for _ in kinds], _no_cells(cell_spec), _FAR_PAGE)
    buffers = sum(kind != "o" for kind in kinds) + (cell_spec is not None)
    return _header_bytes((_leaf_from, args), buffers)


@functools.lru_cache(maxsize=64)
def _internal_header(kind: str, cell_spec) -> int:
    """The header of an internal node whose separators are of ``kind``."""
    boxes = _no_cells(cell_spec)
    args = _internal_args(kind, [], [], boxes, boxes)
    buffers = 1 + (kind != "o") + 2 * (cell_spec is not None)
    return _header_bytes((_internal_from, args), buffers)


class BPlusTree:
    """B+-tree over an external pager; see module docstring."""

    def __init__(self, pager: Pager):
        self.pager = pager
        self._leaf_capacity: int | None = None
        self._internal_capacity: int | None = None
        self.root_page: int = self.pager.allocate()
        self.height = 1
        self._size = 0
        self.pager.write(self.root_page, LeafNode([[], []]))

    def __setstate__(self, state):
        if "augmentation" in state:
            # pickled when leaves were key / value lists: capacities are
            # re-derived by the next insert, and an SPB-tree (the one
            # augmented tree) gives its leaves cells when it loads
            if state.pop("augmentation") is not None:
                state["_uncelled"] = True
            state["_leaf_capacity"] = state["_internal_capacity"] = None
        self.__dict__.update(state)

    # -- capacity ---------------------------------------------------------

    def _ensure_capacities(self, key, value, cell) -> None:
        """Fan-out from the first entry's row bytes; see module docstring."""
        if self._leaf_capacity is not None:
            return
        leaf = LeafNode.of([key], [value], None if cell is None else [cell])
        kinds = "".join(_kind_of(column) for column in leaf.columns)
        row = sum(field_bytes((k,), column[0]) for k, column in zip(kinds, leaf.columns))
        spec = None if cell is None else (leaf.cells.dtype.str, leaf.cells.shape[1])
        cell_bytes = 0 if cell is None else leaf.cells[0].nbytes
        page_size = self.pager.page_size
        self._leaf_capacity = max(
            4, (page_size - _leaf_header(kinds, spec)) // (row + cell_bytes)
        )
        # a separator, a child page id, and the child's two box corners
        internal_row = field_bytes((kinds[0],), key) + 8 + 2 * cell_bytes
        self._internal_capacity = max(
            4, (page_size - _internal_header(kinds[0], spec)) // internal_row
        )

    @property
    def leaf_capacity(self) -> int:
        return self._leaf_capacity or 0

    @property
    def internal_capacity(self) -> int:
        return self._internal_capacity or 0

    def __len__(self) -> int:
        return self._size

    # -- node IO ------------------------------------------------------------

    def _read(self, page_id: int):
        return self.pager.read(page_id)

    def _write(self, page_id: int, node) -> None:
        self.pager.write(page_id, node)

    def read_node(self, page_id: int, cache=None):
        """Node access for index-specific traversals; inside one batch call,
        ``cache`` (a :class:`~repro.storage.pager.BatchReadCache`) serves
        the batch's repeat reads of a page."""
        return self._read(page_id) if cache is None else cache.read(page_id)

    # -- search ------------------------------------------------------------------

    def _child_index(self, node: InternalNode, key) -> int:
        # bisect_left keeps the descent at-or-before the first duplicate of
        # ``key`` under the weak separator invariant (left <= sep <= right),
        # so search/range/delete can walk the leaf chain rightwards.
        return bisect.bisect_left(node.separators, key)

    def _find_leaf(self, key, read=None) -> tuple[int, LeafNode, list]:
        """Descend to the leaf for ``key``; returns (page, leaf, path).

        ``path`` lists (page_id, node, child_position) top-down.
        """
        read = read or self._read
        path: list[tuple[int, InternalNode, int]] = []
        page_id = self.root_page
        node = read(page_id)
        while not node.is_leaf:
            pos = self._child_index(node, key)
            path.append((page_id, node, pos))
            page_id = node.children[pos]
            node = read(page_id)
        return page_id, node, path

    def search(self, key) -> list:
        """All values stored under exactly ``key``."""
        _, leaf, _ = self._find_leaf(key)
        results: list = []
        while True:
            keys = leaf.keys
            for i in range(bisect.bisect_left(keys, key), len(keys)):
                if keys[i] != key:
                    return results
                results.append(leaf.value(i))
            if leaf.next_page is None:
                return results
            leaf = self._read(leaf.next_page)

    def range_scan(self, low, high, cache=None):
        """Yield (key, value) pairs with ``low <= key <= high`` in key order;
        nodes are read through :meth:`read_node` (and ``cache``)."""
        if low > high:
            return
        _, leaf, _ = self._find_leaf(low, lambda page_id: self.read_node(page_id, cache))
        while True:
            keys = leaf.keys
            for i in range(bisect.bisect_left(keys, low), len(keys)):
                if keys[i] > high:
                    return
                yield keys[i], leaf.value(i)
            if leaf.next_page is None:
                return
            leaf = self.read_node(leaf.next_page, cache)

    def items(self):
        """All (key, value) pairs in key order."""
        node = self._read(self.root_page)
        while not node.is_leaf:
            node = self._read(node.children[0])
        while True:
            yield from zip(node.keys, node.values())
            if node.next_page is None:
                return
            node = self._read(node.next_page)

    # -- insert ---------------------------------------------------------------

    def insert(self, key, value, cell=None) -> None:
        """Add one entry; ``cell`` is its grid cell in a tree whose entries
        carry one."""
        self._ensure_capacities(key, value, cell)
        page_id, leaf, path = self._find_leaf(key)
        leaf.insert(bisect.bisect_right(leaf.keys, key), key, value, cell)
        self._size += 1
        if len(leaf) <= self._leaf_capacity:
            self._write(page_id, leaf)
            self._refresh_path(path, leaf)
            return
        right_page = self.pager.allocate()
        right = leaf.split(len(leaf) // 2, right_page)
        self._write(page_id, leaf)
        self._write(right_page, right)
        self._insert_into_parent(path, page_id, leaf, right.keys[0], right_page, right)

    def _insert_into_parent(
        self, path, left_page: int, left, separator, right_page: int, right
    ) -> None:
        left_box, right_box = left.box(), right.box()
        while path:
            parent_page, parent, pos = path.pop()
            parent.children[pos] = left_page
            parent.set_box(pos, left_box)
            parent.separators.insert(pos, separator)
            parent.put_child(pos + 1, right_page, right_box)
            if len(parent) <= self._internal_capacity:
                self._write(parent_page, parent)
                self._refresh_path(path, parent)
                return
            # split internal node: middle separator moves up
            separator, right = parent.split(len(parent.separators) // 2)
            right_page = self.pager.allocate()
            self._write(parent_page, parent)
            self._write(right_page, right)
            left_page, left = parent_page, parent
            left_box, right_box = left.box(), right.box()
        # root split
        new_root = InternalNode([separator], [left_page, right_page], [left_box, right_box])
        self.root_page = self.pager.allocate()
        self._write(self.root_page, new_root)
        self.height += 1

    def _refresh_path(self, path, child) -> None:
        """Propagate a changed box up the (already-visited) path."""
        box = child.box()
        if box is None:
            return
        for parent_page, parent, pos in reversed(path):
            if parent.has_box(pos, box):
                return
            parent.set_box(pos, box)
            self._write(parent_page, parent)
            box = parent.box()

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
            keys = leaf.keys
            found = -1
            for i in range(bisect.bisect_left(keys, key), len(keys)):
                if keys[i] != key:
                    return False
                if value is ... or leaf.value(i) == value:
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
        leaf.pop(found)
        self._size -= 1
        self._write(page_id, leaf)
        if walked:
            # No descend path for this leaf.  Skip rebalancing: an underfull
            # leaf is operationally harmless, and parent boxes only ever
            # shrink on delete, so stale ones stay conservative (safe).
            return True
        self._rebalance(path, page_id, leaf)
        return True

    def _min_fill(self, capacity: int) -> int:
        return max(1, capacity // 2)

    def _rebalance(self, path, page_id: int, node) -> None:
        self._refresh_path(path, node)
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
                parent.set_box(pos - 1, left.box())
                parent.set_box(pos, node.box())
                self._write(parent_page, parent)
                self._refresh_path(path[:-1], parent)
                return
        if pos < len(parent.children) - 1:
            right_page = parent.children[pos + 1]
            right = self._read(right_page)
            if len(right) > self._min_fill(capacity):
                self._borrow_from_right(parent, pos, node, right)
                self._write(right_page, right)
                self._write(page_id, node)
                parent.set_box(pos, node.box())
                parent.set_box(pos + 1, right.box())
                self._write(parent_page, parent)
                self._refresh_path(path[:-1], parent)
                return
        # merge with a sibling
        if pos > 0:
            left_page = parent.children[pos - 1]
            left = self._read(left_page)
            self._merge(parent, pos - 1, left, node)
            self._write(left_page, left)
            self.pager.free(page_id)
            parent.set_box(pos - 1, left.box())
            del parent.separators[pos - 1]
            parent.pop_child(pos)
        else:
            right_page = parent.children[pos + 1]
            right = self._read(right_page)
            self._merge(parent, pos, node, right)
            self._write(page_id, node)
            self.pager.free(right_page)
            parent.set_box(pos, node.box())
            del parent.separators[pos]
            parent.pop_child(pos + 1)
        self._write(parent_page, parent)
        self._rebalance(path[:-1], parent_page, parent)

    def _borrow_from_left(self, parent, pos, left, node) -> None:
        if node.is_leaf:
            node.insert(0, *left.pop(len(left) - 1))
            parent.separators[pos - 1] = node.keys[0]
        else:
            node.separators.insert(0, parent.separators[pos - 1])
            parent.separators[pos - 1] = left.separators.pop()
            node.put_child(0, *left.pop_child(len(left) - 1))

    def _borrow_from_right(self, parent, pos, node, right) -> None:
        if node.is_leaf:
            node.insert(len(node), *right.pop(0))
            parent.separators[pos] = right.keys[0]
        else:
            node.separators.append(parent.separators[pos])
            parent.separators[pos] = right.separators.pop(0)
            node.put_child(len(node), *right.pop_child(0))

    def _merge(self, parent, left_pos, left, right) -> None:
        if left.is_leaf:
            left.extend(right)
        else:
            left.extend(parent.separators[left_pos], right)

    def _collapse_root(self) -> None:
        node = self._read(self.root_page)
        while not node.is_leaf and len(node.children) == 1:
            old_root = self.root_page
            self.root_page = node.children[0]
            self.pager.free(old_root)
            self.height -= 1
            node = self._read(self.root_page)

    # -- bulk load ------------------------------------------------------------------

    def bulk_load(self, items, cells=None) -> None:
        """Build the tree bottom-up from sorted ``(key, value)`` pairs.

        Requires an empty tree.  ``cells`` (an ``n x l`` integer array, one
        row per item in the same order) gives the entries grid cells; the
        boxes are their column-wise min / max, so nothing is decoded.
        ``items`` is any iterable and is drawn a leaf at a time (one leaf
        ahead, to see whether the last one is underfull), so a caller that
        generates it holds two leaves of entries at most, never a list of
        all of them.  A last leaf that would be under half full shares the
        rows of the last two evenly.  Order and count are checked as the
        input arrives: a load that raises part-way has written pages, and
        the tree is to be discarded.
        """
        if self._size:
            raise RuntimeError("bulk_load requires an empty tree")
        items = iter(items)
        run = list(itertools.islice(items, 1))
        if cells is not None:
            cells = np.asarray(cells)
        if cells is not None and len(cells) < len(run):
            raise ValueError("bulk_load ran out of cells after 0 items")
        if not run:
            if cells is not None and len(cells):
                raise ValueError(f"bulk_load got {len(cells)} cells for its 0 items")
            return
        self._ensure_capacities(*run[0], None if cells is None else cells[0])
        per_leaf = max(2, int(self._leaf_capacity * _BULK_FILL))
        per_internal = max(2, int(self._internal_capacity * _BULK_FILL))

        self.pager.free(self.root_page)

        # build leaves
        level: list[tuple] = []  # (page, first key, box)
        run += itertools.islice(items, per_leaf - 1)
        page = self.pager.allocate()
        last_key = run[0][0]
        size = 0
        while run:
            following = list(itertools.islice(items, per_leaf))
            if 0 < len(following) < per_leaf // 2:
                # the last leaf would be under half full: the last two
                # share their rows evenly (joined, they could overflow)
                tail = run + following
                run, following = tail[: (len(tail) + 1) // 2], tail[(len(tail) + 1) // 2 :]
            next_page = self.pager.allocate() if following else None
            keys = [key for key, _ in run]
            for key in keys:
                if last_key > key:
                    raise ValueError("bulk_load input must be sorted by key")
                last_key = key
            block = None
            if cells is not None:
                block = cells[size : size + len(run)]
                if len(block) != len(run):
                    raise ValueError(
                        f"bulk_load ran out of cells after {size + len(block)} items"
                    )
            leaf = LeafNode.of(keys, [value for _, value in run], block, next_page)
            self._write(page, leaf)
            level.append((page, keys[0], leaf.box()))
            size += len(run)
            run, page = following, next_page
        if cells is not None and len(cells) != size:
            raise ValueError(f"bulk_load got {len(cells)} cells for its {size} items")

        # build internal levels
        self.height = 1
        while len(level) > 1:
            next_level = []
            groups = [level[i : i + per_internal] for i in range(0, len(level), per_internal)]
            if len(groups) > 1 and len(groups[-1]) < 2:
                groups[-2].extend(groups.pop())
            for group in groups:
                node = InternalNode(
                    [first_key for _, first_key, _ in group[1:]],
                    [page for page, _, _ in group],
                    [box for _, _, box in group],
                )
                page = self.pager.allocate()
                self._write(page, node)
                next_level.append((page, group[0][1], node.box()))
            level = next_level
            self.height += 1
        self.root_page = level[0][0]
        self._size = size

    def add_cells(self, cells_of) -> None:
        """Give every leaf row the cell ``cells_of(keys)`` (an ``m x l``
        array for a leaf's keys) and every internal node its children's
        boxes: how a tree written before leaves carried cells loads."""

        def convert(page_id):
            node = self._read(page_id)
            if node.is_leaf:
                node.cells = cells_of(node.keys)
            else:
                node.lows, node.highs = _stacked([convert(c) for c in node.children])
            self._write(page_id, node)
            return node.box()

        convert(self.root_page)

    # -- diagnostics -------------------------------------------------------------

    def check_invariants(self, cells_of=None, tight: bool = False) -> None:
        """Raise AssertionError when structural invariants are violated.

        Key order, balance and the size counter; every node's columns of
        one length; each child's cells inside its box in the parent (equal
        to it when ``tight``, as after :meth:`bulk_load`); with
        ``cells_of``, each leaf row's cell is ``cells_of(keys)``'s row.
        """
        self._check_node(self.root_page, None, None, None, cells_of, tight)
        keys = [k for k, _ in self.items()]
        assert keys == sorted(keys), "leaf chain out of order"
        assert len(keys) == self._size, "size counter out of sync"

    def _check_node(self, page_id: int, low, high, box, cells_of, tight) -> int:
        node = self._read(page_id)
        if node.is_leaf:
            assert all(len(c) == len(node) for c in node.columns), "leaf columns differ"
            for k in node.keys:
                assert low is None or k >= low, "leaf key below separator"
                assert high is None or k <= high, "leaf key above separator"
            if node.cells is not None:
                assert len(node.cells) == len(node), "leaf cells differ from its rows"
                if cells_of is not None:
                    assert np.array_equal(node.cells, cells_of(node.keys)), "cell != key's"
        else:
            assert len(node.children) == len(node.separators) + 1
            if node.lows is not None:
                assert len(node.lows) == len(node.highs) == len(node), "box rows differ"
        if box is not None and len(node):
            own = node.box()
            if tight:
                assert np.array_equal(own[0], box[0]), "box wider than its cells"
                assert np.array_equal(own[1], box[1]), "box wider than its cells"
            assert np.all(box[0] <= own[0]) and np.all(own[1] <= box[1]), "cell outside box"
        if node.is_leaf:
            return 1
        depths = set()
        bounds = [low, *node.separators, high]
        for i, child in enumerate(node.children):
            child_box = None if node.lows is None else (node.lows[i], node.highs[i])
            depths.add(
                self._check_node(child, bounds[i], bounds[i + 1], child_box, cells_of, tight)
            )
        assert len(depths) == 1, "unbalanced subtrees"
        return depths.pop() + 1
