"""Paged B+-tree with columnar nodes.

The substrate of four indexes in the study: the M-index and M-index* (keys
are ``(cluster path, distance)`` tuples), the SPB-tree (keys are Hilbert
values) and the OmniB+-tree (one tree per pivot, keys are distances).
Design points:

* **Paged**: every node lives on one page of a
  :class:`~repro.storage.pager.Pager`; all traffic is counted as PA.
* **Duplicate keys** are allowed (many objects share an SFC value or an
  iDistance key); deletion therefore matches on (key, value).  Every index
  stores object ids as values: where an object's record lies is its RAF's
  business (:mod:`repro.storage.raf`).
* **Cell trees**: a tree built with ``keys_of`` (the SPB-tree's, whose key
  is the Hilbert value of a grid cell, one coordinate per pivot) gives
  every entry a cell, and a leaf keeps its entries' cells as an ``m x l``
  block *in place of* their keys: a key is ``keys_of`` of its cell.  The
  rows of such a leaf are in no order.  An insert descends by its key and
  appends its row, a delete finds its row by value in the leaves that may
  hold its key, and only a write that must order a leaf's rows -- a split,
  a borrow -- computes the leaf's keys (one ``keys_of`` call and a stable
  sort); no read does.  Every internal node of a cell tree keeps, per
  child, the column-wise min / max of the cells beneath it (``lows`` /
  ``highs``, ``c x l``) -- the paper's MBB of each subtree in discretised
  pivot space -- beside its separators.  Boxes are kept exact through
  inserts, splits and rebalancing deletes; a keyed tree's delete that walks
  past its descent path skips rebalancing, and a cell tree's keeps its
  path as it walks.
* **Bulk load** builds a compact tree from sorted input (used at index
  construction time, like the paper's bottom-up builds), ``_BULK_FILL`` of
  each node full so that later inserts find room; a last leaf under half
  full joins the one before when the two fit a leaf.  It takes a leaf's own
  columns -- keys and values, plus a cell tree's cells -- checks key order
  and the cell count on them before any page is written, places the leaf
  boundaries by arithmetic and lists each leaf's rows with one ``tolist``
  of a slice a column: no per-entry tuple is made, and no more than one
  leaf of rows is listed at a time (listing whole columns raised the
  SPB-tree set-up's resident memory by a fifth).

**Node format.**  A node is stored by column, with the RAF page's column
kinds and raw-bytes packing (:func:`~repro.storage.raf.pack_column`).  A
keyed tree's leaf row is ``(key, value)`` and a cell tree's ``(value,
cell)``::

    column   kind                                   bytes a row
    key      int32 / int64 / float64 / pickled      4 / 8 / 8 / its pickle
    value    int32 / int64 / float64 / pickled      4 / 8 / 8 / its pickle
    cell     (rows, l) block, cell dtype            l x itemsize

An internal node holds ``separators`` (the keys' kind), ``children``
(int64 page ids) and, in a cell tree, the ``c x l`` ``lows`` / ``highs``.
A node holds its columns as lists (and its cells and
boxes as arrays) in memory, so a read is one ``frombuffer`` a column.  The
kinds are chosen when a node is pickled, by the function that also packs
the column (``_typed``): one pass over the values' types decides -- every
value an ``int`` gives ``int32``, unless its encode raises ``OverflowError``
(an int past int32), then ``int64``, unless that encode raises too (an int
past int64), every value a ``float`` gives ``float64``, and anything else
(the M-index's tuples, a ``bool``, an int / float mix) a pickled list.  On a
161-row leaf column the type pass (``set(map(type, values))``) takes 4 us,
where a type test a value plus a ``min`` and a ``max`` took 12 (2-core x86
VM); an int32 encode that fails does so at its first wide value.  Fan-out
is arithmetic: ``(page_size - header) // row bytes``, the header being what
the node's empty form pickles to (plus each raw buffer's length opcode and
memo) and the row bytes those of the first entry the tree is given -- an
int key at int64 width, whatever the first one's (keys grow: a Hilbert key
past the first few outgrows int32), and the value at its kind's, which the
tree then holds every value to: a value of a wider kind (an id past int32
in a tree of int32 ids) is refused before any page is written.

Worked LA leaf (the SPB-tree of ``la_disk_mixed_rw``: 5 pivots, 10-bit
grid, 4 KB pages): a row is an int32 object id and 5 ``uint16`` cell
coordinates, 14 B; the header is 88 B, so a leaf takes ``(4096 - 88) // 14
= 286`` rows and a bulk-loaded leaf 243 (a blob of at most 88 + 243 * 14 =
3 490 B).  20 000 objects fill 83 leaves under one root.  Rows that also
kept the Hilbert key (charged at int64 width) were 22 B at this grid, 181
a leaf and 131 leaves under two internal nodes; on the 8-bit grid before
it, 17 B rows filled 101 leaves, int64 ids (21 B rows) 125, rows that also
held the record's RAF page and slot (37 B) 223, and key / value lists
sized by one entry's standalone pickle (93 B a row) 556.  An internal row
is the separator at int64 width, the child's page id and its box's two
corners, 8 + 8 + 2 * 10 = 36 B: 110 children a node.
"""

from __future__ import annotations

import bisect
import functools
from array import array
import itertools
import operator
import pickle

import numpy as np

from ..storage.pager import Pager
from ..storage.raf import encode_column, field_bytes, int_kind, pack_column, unpack_column

__all__ = ["BPlusTree", "LeafNode", "InternalNode"]

_BULK_FILL = 0.85  # of a node's capacity, filled by bulk_load
_FAR_PAGE = (1 << 31) - 1  # a next-page id as long as its pickle gets
_WIDTH = {"j": 4, "i": 8, "f": 8}  # a row's bytes in a fixed-width column


def _packed(kind: str, values: list):
    return pack_column(kind, encode_column((kind,), values))


def _typed(values) -> tuple:
    """``(kind, packed)`` of a node column: the narrowest kind holding every
    value -- ``j`` (int32), ``i`` (int64), ``f`` (float64) or ``o`` (a
    pickled list) -- and the column packed in it.  One pass over the values'
    types decides; an int past int32, or past int64, shows as the
    ``OverflowError`` of that encode."""
    types = set(map(type, values))
    if types <= {int}:
        try:
            # the int32 column's raw bytes: a C int array (4 B on every
            # platform numpy runs on) raises at the first value past int32
            return "j", array("i", values).tobytes()
        except OverflowError:
            pass
        try:
            return "i", _packed("i", values)
        except OverflowError:
            pass
    elif types == {float}:
        return "f", _packed("f", values)
    return "o", _packed("o", values)


def _column_kind(column) -> str:
    """The kind :func:`_typed` gives a whole :meth:`BPlusTree.bulk_load`
    column, a signed-int or float array's without listing it."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "i":
        return int_kind(column)
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return "f"
    return _typed(_rows(column, 0, len(column)))[0]


def _holds(kind: str, value_kind: str) -> bool:
    """Whether a column of ``kind`` holds values of ``value_kind``: its own,
    int32 ones in an int64 column, and any in a pickled one."""
    return kind in (value_kind, "o") or (kind, value_kind) == ("i", "j")


def _unpacked(kind: str, packed) -> list:
    column = unpack_column(kind, packed)
    return column if kind == "o" else column.tolist()


def _rows(column, lo: int, hi: int) -> list:
    """Rows ``[lo, hi)`` of a :meth:`BPlusTree.bulk_load` column, as the
    list a leaf holds."""
    if isinstance(column, np.ndarray):
        return column[lo:hi].tolist()
    return list(column[lo:hi])


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


def _reduced(lows, highs, starts):
    """The boxes of the row groups starting at ``starts``: the column-wise
    min of ``lows`` and max of ``highs`` over each, in one reduction."""
    return np.minimum.reduceat(lows, starts, axis=0), np.maximum.reduceat(highs, starts, axis=0)


def _stacked(boxes):
    """``(lows, highs)`` arrays of per-child boxes; None without boxes."""
    if not boxes or boxes[0] is None:
        return None, None
    return np.stack([b[0] for b in boxes]), np.stack([b[1] for b in boxes])


def _cells_packed(cells):
    return None if cells is None else pack_column("a", cells)


def _leaf_args(kinds, packed, cells, next_page) -> tuple:
    return kinds, tuple(packed), _cells_packed(cells), next_page


def _leaf_from(kinds, packed, cells, next_page) -> "LeafNode":
    leaf = LeafNode.__new__(LeafNode)
    leaf.columns = list(map(_unpacked, kinds, packed))
    leaf.cells = None if cells is None else unpack_column("a", cells)
    leaf.next_page = next_page
    return leaf


class LeafNode:
    """One leaf: its rows by column, and the next leaf's page.

    A keyed tree's leaf has two ``columns``, lists of one entry a row: the
    keys and the values, in key order; its ``cells`` is None.  A cell
    tree's leaf has one column, the values, and ``cells``, the rows' ``m x
    l`` grid cells: a row's key is a function of its cell, computed by the
    tree when a write must order the rows, which the leaf keeps in no
    particular order.
    """

    __slots__ = ("columns", "cells", "next_page")
    is_leaf = True

    def __init__(self, columns, cells=None, next_page=None):
        self.columns = columns
        self.cells = cells
        self.next_page = next_page

    def __reduce__(self):
        kinds, packed = zip(*map(_typed, self.columns))
        return _leaf_from, _leaf_args("".join(kinds), packed, self.cells, self.next_page)

    def __len__(self) -> int:
        return len(self.columns[0])

    @property
    def keys(self) -> list | None:
        """The stored keys; None in a cell tree's leaf, which stores none."""
        return self.columns[0] if len(self.columns) == 2 else None

    @property
    def values(self) -> list:
        return self.columns[-1]

    def box(self):
        return _span(self.cells, self.cells)

    # -- row edits (the tree writes the leaf afterwards) ---------------------------

    def insert(self, pos: int, row: tuple, cell=None) -> None:
        """Put ``row`` (one field a column) and its ``cell`` at ``pos``."""
        for column, field in zip(self.columns, row):
            column.insert(pos, field)
        if cell is not None and self.cells is None:  # a new leaf's first row
            self.cells = np.asarray([cell])
        elif cell is not None:
            self.cells = np.insert(self.cells, pos, cell, axis=0)

    def pop(self, pos: int) -> tuple:
        """Remove the row at ``pos``; returns its ``(row, cell)``."""
        cell = None if self.cells is None else self.cells[pos]
        if cell is not None:
            self.cells = np.delete(self.cells, pos, axis=0)
        return tuple(column.pop(pos) for column in self.columns), cell

    def reorder(self, order: list) -> None:
        """Put the rows in ``order`` (positions of the rows as they are)."""
        self.columns = [[column[i] for i in order] for column in self.columns]
        self.cells = self.cells[order]

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
            for column, tail in zip(self.columns, right.columns):
                column.extend(tail)
            if self.cells is not None:
                self.cells = np.concatenate([self.cells, right.cells])
        self.next_page = right.next_page


def _internal_args(kind, separators, children, lows, highs) -> tuple:
    """The node's arguments, its ``separators`` already packed as ``kind``."""
    return (
        kind,
        separators,
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
        kind, separators = _typed(self.separators)
        return _internal_from, _internal_args(
            kind, separators, self.children, self.lows, self.highs
        )

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
    empty = [_packed(kind, []) for kind in kinds]
    args = _leaf_args(kinds, empty, _no_cells(cell_spec), _FAR_PAGE)
    buffers = sum(kind != "o" for kind in kinds) + (cell_spec is not None)
    return _header_bytes((_leaf_from, args), buffers)


@functools.lru_cache(maxsize=64)
def _internal_header(kind: str, cell_spec) -> int:
    """The header of an internal node whose separators are of ``kind``."""
    boxes = _no_cells(cell_spec)
    args = _internal_args(kind, _packed(kind, []), [], boxes, boxes)
    buffers = 1 + (kind != "o") + 2 * (cell_spec is not None)
    return _header_bytes((_internal_from, args), buffers)


class BPlusTree:
    """B+-tree over an external pager; see module docstring.

    ``keys_of`` makes a cell tree: it maps an ``m x l`` block of grid cells
    to their ``m`` keys (an array), every entry carries a cell, and a leaf
    stores the values and the cells alone.  Without it the tree is keyed
    and no entry carries a cell.
    """

    def __init__(self, pager: Pager, keys_of=None):
        self.pager = pager
        self.keys_of = keys_of
        self._leaf_capacity: int | None = None
        self._internal_capacity: int | None = None
        self.root_page: int = self.pager.allocate()
        self.height = 1
        self._size = 0
        self.pager.write(self.root_page, LeafNode([[]] if keys_of else [[], []]))

    # -- capacity ---------------------------------------------------------

    def _ensure_capacities(self, key, value, cells, value_kind: str) -> None:
        """Fan-out from the tree's first entry -- ``key``, ``value`` and
        ``cells``'s first row -- with its values held to ``value_kind``;
        see module docstring.  An int key is charged at int64 width, as the
        keys after a narrow first one may be wide."""
        if self._leaf_capacity is not None:
            return
        key_kind = _typed([key])[0].replace("j", "i")
        key_bytes = _WIDTH.get(key_kind) or field_bytes(("o",), key)
        value_bytes = _WIDTH.get(value_kind) or field_bytes(("o",), value)
        spec = None if cells is None else (cells.dtype.str, cells.shape[1])
        cell_bytes = 0 if cells is None else cells[0].nbytes
        page_size = self.pager.page_size
        self._value_kind = value_kind
        if cells is None:
            leaf_kinds, leaf_row = key_kind + value_kind, key_bytes + value_bytes
        else:  # a cell leaf stores no key
            leaf_kinds, leaf_row = value_kind, value_bytes + cell_bytes
        self._leaf_capacity = max(4, (page_size - _leaf_header(leaf_kinds, spec)) // leaf_row)
        # a separator, a child page id, and the child's two box corners
        internal_row = key_bytes + 8 + 2 * cell_bytes
        self._internal_capacity = max(
            4, (page_size - _internal_header(key_kind, spec)) // internal_row
        )

    def _check_values(self, kind: str) -> None:
        """Refuse values of ``kind`` when the tree's value kind cannot hold
        them (its capacities charged narrower rows)."""
        if not _holds(self._value_kind, kind):
            raise ValueError(
                f"this tree's values are of kind {self._value_kind!r}, "
                f"which cannot hold one of kind {kind!r}"
            )

    def _check_cells(self, given: bool) -> None:
        if given != (self.keys_of is not None):
            raise ValueError("a cell tree's entries each carry a grid cell; no other entry does")

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

    # -- keys of a cell leaf ------------------------------------------------------

    def _ranked(self, leaf) -> tuple[list, list]:
        """A cell leaf's keys in order, and the positions of its rows in
        that order: one ``keys_of`` call and a stable sort."""
        if not len(leaf):
            return [], []
        keys = np.asarray(self.keys_of(leaf.cells))
        order = np.argsort(keys, kind="stable")
        return keys[order].tolist(), order.tolist()

    def _ordered(self, leaf) -> tuple[list, list]:
        """``(keys, values)`` of a leaf's rows in key order; the leaf is not
        changed."""
        if self.keys_of is None:
            return leaf.keys, leaf.values
        keys, order = self._ranked(leaf)
        return keys, [leaf.values[i] for i in order]

    def _sorted_keys(self, leaf) -> list:
        """A leaf's keys in order, a cell leaf's rows put in that order
        first (a write that splits a leaf or moves one of its end rows)."""
        if self.keys_of is None:
            return leaf.keys
        keys, order = self._ranked(leaf)
        leaf.reorder(order)
        return keys

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

    def _next_leaf(self, path, key):
        """The leaf after the one ``path`` leads to, when it may hold
        ``key`` -- the separator between the two is ``key`` -- as ``(page,
        leaf)``, ``path`` moved to it; else None."""
        for depth in range(len(path) - 1, -1, -1):
            page_id, node, pos = path[depth]
            if pos < len(node.separators):
                break
        else:
            return None
        if node.separators[pos] != key:
            return None
        del path[depth:]
        path.append((page_id, node, pos + 1))
        page_id = node.children[pos + 1]
        node = self._read(page_id)
        while not node.is_leaf:
            path.append((page_id, node, 0))
            page_id = node.children[0]
            node = self._read(page_id)
        return page_id, node

    def search(self, key) -> list:
        """All values stored under exactly ``key``."""
        _, leaf, _ = self._find_leaf(key)
        results: list = []
        while True:
            keys, values = self._ordered(leaf)
            for i in range(bisect.bisect_left(keys, key), len(keys)):
                if keys[i] != key:
                    return results
                results.append(values[i])
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
            keys, values = self._ordered(leaf)
            for i in range(bisect.bisect_left(keys, low), len(keys)):
                if keys[i] > high:
                    return
                yield keys[i], values[i]
            if leaf.next_page is None:
                return
            leaf = self.read_node(leaf.next_page, cache)

    def items(self):
        """All (key, value) pairs in key order."""
        node = self._read(self.root_page)
        while not node.is_leaf:
            node = self._read(node.children[0])
        while True:
            yield from zip(*self._ordered(node))
            if node.next_page is None:
                return
            node = self._read(node.next_page)

    # -- insert ---------------------------------------------------------------

    def insert(self, key, value, cell=None) -> None:
        """Add one entry; ``cell`` is its grid cell in a cell tree, whose
        ``keys_of`` gives it ``key``."""
        self._check_cells(cell is not None)
        kind = _typed([value])[0]
        if self._leaf_capacity is None:
            cells = None if cell is None else np.asarray([cell])
            self._ensure_capacities(key, value, cells, kind)
        self._check_values(kind)
        page_id, leaf, path = self._find_leaf(key)
        if cell is None:
            leaf.insert(bisect.bisect_right(leaf.keys, key), (key, value))
        else:  # a cell leaf's rows are in no order: the row goes last
            leaf.insert(len(leaf), (value,), cell)
        self._size += 1
        if len(leaf) <= self._leaf_capacity:
            self._write(page_id, leaf)
            self._refresh_path(path, leaf)
            return
        keys = self._sorted_keys(leaf)
        mid = len(leaf) // 2
        right_page = self.pager.allocate()
        right = leaf.split(mid, right_page)
        self._write(page_id, leaf)
        self._write(right_page, right)
        self._insert_into_parent(path, page_id, leaf, keys[mid], right_page, right)

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
        """Remove one entry with ``key`` (and ``value``, when given; a cell
        tree's delete needs it).

        Returns True when an entry was removed.  Underflowing nodes borrow
        from or merge with a sibling; the root collapses when it has a single
        child.
        """
        page_id, leaf, path = self._find_leaf(key)
        if self.keys_of is not None:
            # a cell leaf's rows are in no order: the row is found by its
            # value, in the leaves that may hold ``key``, each reached with
            # its path so that the delete rebalances wherever it lands
            while value not in leaf.values:
                step = self._next_leaf(path, key)
                if step is None:
                    return False
                page_id, leaf = step
            leaf.pop(leaf.values.index(value))
            self._size -= 1
            self._write(page_id, leaf)
            self._rebalance(path, page_id, leaf)
            return True
        walked = False
        # locate entry (may continue into following leaves on duplicates)
        while True:
            keys = leaf.keys
            found = -1
            for i in range(bisect.bisect_left(keys, key), len(keys)):
                if keys[i] != key:
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
            # the left leaf's last row in key order, whose key is the new
            # separator
            parent.separators[pos - 1] = self._sorted_keys(left)[-1]
            node.insert(0, *left.pop(len(left) - 1))
        else:
            node.separators.insert(0, parent.separators[pos - 1])
            parent.separators[pos - 1] = left.separators.pop()
            node.put_child(0, *left.pop_child(len(left) - 1))

    def _borrow_from_right(self, parent, pos, node, right) -> None:
        if node.is_leaf:
            # the right leaf's first row in key order; its second row's key
            # is the new separator
            parent.separators[pos] = self._sorted_keys(right)[1]
            node.insert(len(node), *right.pop(0))
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

    def bulk_load(self, columns, cells=None) -> None:
        """Build the tree bottom-up from a leaf's columns in key order.

        Requires an empty tree.  ``columns`` are the keys and the values,
        each a 1-D array or a list (keys with no int64 form, such as the
        M-index's tuples or Hilbert keys past 63 bits, stay Python objects
        in a list or an object array).  A cell tree takes ``cells`` too (an
        ``n x l`` integer array, one row per key, the cells the keys are
        ``keys_of``) and stores them in place of the keys; the boxes are
        their column-wise min / max, so nothing is decoded, each level's in
        one ``reduceat`` over the level below.  Key order, column lengths
        and the cell count are checked before any page is written.
        Leaves are cut by arithmetic, ``_BULK_FILL`` of a leaf's capacity
        each, and a last leaf under the fill a delete keeps (:meth:`_min_fill`)
        joins the one before it when the two fit a leaf (so rows that fit one
        leaf make a one-leaf tree), else the two share their rows evenly; each
        leaf takes one ``tolist`` of a slice a column, so no per-entry tuple is
        ever made.
        """
        if self._size:
            raise RuntimeError("bulk_load requires an empty tree")
        columns = list(columns)
        n = len(columns[0])
        if len(columns) != 2 or len(columns[1]) != n:
            raise ValueError("bulk_load takes a key and a value column of one length")
        self._check_cells(cells is not None)
        if cells is not None:
            cells = np.asarray(cells)
            if len(cells) != n:
                raise ValueError(f"bulk_load got {len(cells)} cells for its {n} items")
        keys = columns[0]
        if isinstance(keys, np.ndarray):
            unsorted = n > 1 and bool((keys[:-1] > keys[1:]).any())
        else:
            unsorted = any(map(operator.gt, keys, itertools.islice(keys, 1, None)))
        if unsorted:
            raise ValueError("bulk_load input must be sorted by key")
        if not n:
            return
        kind = _column_kind(columns[1])
        self._ensure_capacities(_rows(keys, 0, 1)[0], _rows(columns[1], 0, 1)[0], cells, kind)
        self._check_values(kind)
        per_leaf = max(2, int(self._leaf_capacity * _BULK_FILL))
        per_internal = max(2, int(self._internal_capacity * _BULK_FILL))
        full, rest = divmod(n, per_leaf)
        sizes = [per_leaf] * full + [rest] * (rest > 0)
        if len(sizes) > 1 and sizes[-1] < self._min_fill(self._leaf_capacity):
            # the last leaf would be under the fill a delete keeps: it joins
            # the one before when the two fit a leaf (a leaf fewer), else
            # the two share their rows evenly
            both = sizes[-2] + sizes[-1]
            sizes[-2:] = [both] if both <= self._leaf_capacity else [(both + 1) // 2, both // 2]

        self.pager.free(self.root_page)
        starts = np.cumsum([0] + sizes[:-1])
        # every box of a level in one reduction over the level below: the
        # leaves' over the cells, each internal level's over its children's
        boxes = None if cells is None else _reduced(cells, cells, starts)
        stored = columns if cells is None else columns[1:]  # a cell leaf keeps no key

        # build leaves
        level: list[tuple] = []  # (page, first key)
        page = self.pager.allocate()
        for lo, size in zip(starts.tolist(), sizes):
            hi = lo + size
            next_page = self.pager.allocate() if hi < n else None
            leaf = LeafNode(
                [_rows(c, lo, hi) for c in stored],
                None if cells is None else cells[lo:hi],
                next_page,
            )
            self._write(page, leaf)
            level.append((page, _rows(keys, lo, lo + 1)[0]))
            page = next_page

        # build internal levels
        self.height = 1
        while len(level) > 1:
            firsts = list(range(0, len(level), per_internal))
            if len(firsts) > 1 and len(level) - firsts[-1] < 2:
                firsts.pop()  # a last group of one joins the one before
            bounds = firsts + [len(level)]
            next_level = []
            for lo, hi in zip(bounds, bounds[1:]):
                group = level[lo:hi]
                node = InternalNode([key for _, key in group[1:]], [page for page, _ in group])
                if boxes is not None:
                    node.lows, node.highs = boxes[0][lo:hi].copy(), boxes[1][lo:hi].copy()
                page = self.pager.allocate()
                self._write(page, node)
                next_level.append((page, group[0][1]))
            if boxes is not None:
                boxes = _reduced(*boxes, np.array(firsts))
            level = next_level
            self.height += 1
        self.root_page = level[0][0]
        self._size = n

    # -- diagnostics -------------------------------------------------------------

    def check_invariants(self, tight: bool = False) -> None:
        """Raise AssertionError when structural invariants are violated.

        Key order (a cell leaf's keys computed from its cells), balance and
        the size counter; every node's columns of one length, a leaf's two
        in a keyed tree and one beside its cells in a cell tree; each
        child's cells inside its box in the parent (equal to it when
        ``tight``, as after :meth:`bulk_load`).
        """
        self._check_node(self.root_page, None, None, None, tight)
        keys = [k for k, _ in self.items()]
        assert keys == sorted(keys), "leaf chain out of order"
        assert len(keys) == self._size, "size counter out of sync"

    def _check_node(self, page_id: int, low, high, box, tight) -> int:
        node = self._read(page_id)
        if node.is_leaf:
            # a cell tree's leaf keeps values and cells (but for a new
            # tree's empty root), a keyed tree's keys and values
            cell_tree = self.keys_of is not None
            other = "a leaf of the other kind of tree"
            assert len(node.columns) == 2 - cell_tree, other
            assert (node.cells is not None) == cell_tree or not len(node), other
            columns = node.columns + ([] if node.cells is None else [node.cells])
            assert all(len(c) == len(node) for c in columns), "leaf columns differ"
            for k in self._ordered(node)[0]:
                assert low is None or k >= low, "leaf key below separator"
                assert high is None or k <= high, "leaf key above separator"
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
            depths.add(self._check_node(child, bounds[i], bounds[i + 1], child_box, tight))
        assert len(depths) == 1, "unbalanced subtrees"
        return depths.pop() + 1
