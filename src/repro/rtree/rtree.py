"""Paged R-tree over points in pivot space (the OmniR-tree's engine).

Leaves store (point, payload) entries -- the point is a mapped vector I(o),
the payload an object id or RAF pointer.  Internal nodes store child page ids
with their MBBs.  Supported operations:

* STR (sort-tile-recursive) bulk load -- the construction path,
* insert with least-margin-enlargement choose-subtree and quadratic split,
* delete with condense-and-reinsert,
* rectangle range search (SR(q) intersection, Lemma 1); MkNNQ is the
  OmniR-tree's :func:`~repro.core.queries.best_first_walk` over its nodes.

All node traffic flows through the shared :class:`~repro.storage.pager.Pager`
and is therefore counted as page accesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from ..storage.pager import Pager
from .geometry import Rect

__all__ = ["RTree", "RLeafNode", "RInternalNode"]


@dataclass
class RLeafNode:
    points: list = field(default_factory=list)  # np.ndarray per entry
    payloads: list = field(default_factory=list)

    is_leaf = True

    def __len__(self) -> int:
        return len(self.points)

    def mbb(self) -> Rect:
        return Rect.bounding_points(np.asarray(self.points))


@dataclass
class RInternalNode:
    children: list = field(default_factory=list)  # page ids
    rects: list = field(default_factory=list)  # Rect per child

    is_leaf = False

    def __len__(self) -> int:
        return len(self.children)

    def mbb(self) -> Rect:
        return Rect.union_of(self.rects)

    def boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """The children's boxes as two ``c x l`` arrays: low corners, high corners."""
        lows = np.asarray([rect.lows for rect in self.rects], dtype=np.float64)
        highs = np.asarray([rect.highs for rect in self.rects], dtype=np.float64)
        return lows, highs


class RTree:
    """See module docstring."""

    def __init__(
        self,
        pager: Pager,
        dims: int,
        leaf_capacity: int | None = None,
        internal_capacity: int | None = None,
    ):
        if dims < 1:
            raise ValueError(f"dims must be >= 1, got {dims}")
        self.pager = pager
        self.dims = dims
        point_bytes = 8 * dims + 24
        self.leaf_capacity = leaf_capacity or max(
            4, (pager.page_size - 64) // point_bytes
        )
        self.internal_capacity = internal_capacity or max(
            4, (pager.page_size - 64) // (2 * 8 * dims + 32)
        )
        self.root_page = pager.allocate()
        self.height = 1
        self._size = 0
        pager.write(self.root_page, RLeafNode())

    def __len__(self) -> int:
        return self._size

    def _min_fill(self, capacity: int) -> int:
        return max(1, int(capacity * 0.4))

    # -- bulk load (STR) ----------------------------------------------------

    def bulk_load(self, points, payloads) -> None:
        """Sort-Tile-Recursive packing of ``points`` (requires empty tree)."""
        if self._size:
            raise RuntimeError("bulk_load requires an empty tree")
        points = np.asarray(points, dtype=np.float64)
        payloads = list(payloads)
        if points.ndim != 2 or points.shape[1] != self.dims:
            raise ValueError(f"points must be n x {self.dims}")
        if len(points) != len(payloads):
            raise ValueError("points and payloads must align")
        if len(points) == 0:
            return
        self.pager.free(self.root_page)

        order = self._str_order(points, self.leaf_capacity)
        level: list[tuple[int, Rect]] = []
        for chunk in self._chunks(order, self.leaf_capacity):
            node = RLeafNode(
                points=[points[i] for i in chunk],
                payloads=[payloads[i] for i in chunk],
            )
            page = self.pager.allocate()
            self.pager.write(page, node)
            level.append((page, node.mbb()))
        self.height = 1
        while len(level) > 1:
            centers = np.asarray(
                [(rect.lows + rect.highs) / 2.0 for _, rect in level]
            )
            order = self._str_order(centers, self.internal_capacity)
            next_level = []
            for chunk in self._chunks(order, self.internal_capacity):
                node = RInternalNode(
                    children=[level[i][0] for i in chunk],
                    rects=[level[i][1] for i in chunk],
                )
                page = self.pager.allocate()
                self.pager.write(page, node)
                next_level.append((page, node.mbb()))
            level = next_level
            self.height += 1
        self.root_page = level[0][0]
        self._size = len(points)

    @staticmethod
    def _chunks(order: np.ndarray, size: int) -> Iterator[list[int]]:
        for i in range(0, len(order), size):
            yield [int(j) for j in order[i : i + size]]

    @staticmethod
    def _str_order(points: np.ndarray, capacity: int) -> np.ndarray:
        """STR ordering: sort by dim 0, slice, sort slices by dim 1, ..."""
        n, dims = points.shape
        n_leaves = max(1, math.ceil(n / capacity))
        order = np.argsort(points[:, 0], kind="stable")
        if dims == 1 or n_leaves == 1:
            return order
        slices = max(1, math.ceil(n_leaves ** (1.0 / dims)))
        slice_size = max(1, math.ceil(n / slices))
        pieces = []
        for i in range(0, n, slice_size):
            piece = order[i : i + slice_size]
            inner = points[piece][:, 1 % dims]
            pieces.append(piece[np.argsort(inner, kind="stable")])
        return np.concatenate(pieces)

    # -- insert -------------------------------------------------------------

    def insert(self, point, payload) -> None:
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (self.dims,):
            raise ValueError(f"point must have {self.dims} dims")
        path = self._choose_leaf(point)
        page_id, node = path[-1]
        node.points.append(point)
        node.payloads.append(payload)
        self._size += 1
        self._handle_overflow(path)

    def _choose_leaf(self, point) -> list[tuple[int, Any]]:
        path = []
        page_id = self.root_page
        node = self.pager.read(page_id)
        path.append((page_id, node))
        while not node.is_leaf:
            best, best_cost, best_margin = 0, float("inf"), float("inf")
            for i, rect in enumerate(node.rects):
                cost = rect.enlargement(point)
                margin = rect.margin()
                if cost < best_cost or (cost == best_cost and margin < best_margin):
                    best, best_cost, best_margin = i, cost, margin
            page_id = node.children[best]
            node = self.pager.read(page_id)
            path.append((page_id, node))
        return path

    def _handle_overflow(self, path: list[tuple[int, Any]]) -> None:
        # write the modified leaf, splitting as needed, then fix parents
        child_split: tuple[int, Rect, int, Rect] | None = None
        for level in range(len(path) - 1, -1, -1):
            page_id, node = path[level]
            if child_split is not None:
                left_page, left_rect, right_page, right_rect = child_split
                pos = node.children.index(left_page)
                node.rects[pos] = left_rect
                node.children.append(right_page)
                node.rects.append(right_rect)
                child_split = None
            capacity = self.leaf_capacity if node.is_leaf else self.internal_capacity
            if len(node) <= capacity:
                self.pager.write(page_id, node)
                self._refresh_parent_rects(path, level)
                return
            child_split = self._split(page_id, node)
        if child_split is not None:
            left_page, left_rect, right_page, right_rect = child_split
            new_root = RInternalNode(
                children=[left_page, right_page], rects=[left_rect, right_rect]
            )
            self.root_page = self.pager.allocate()
            self.pager.write(self.root_page, new_root)
            self.height += 1

    def _refresh_parent_rects(self, path: list[tuple[int, Any]], level: int) -> None:
        child_page, child = path[level]
        rect = child.mbb()
        for upper in range(level - 1, -1, -1):
            parent_page, parent = path[upper]
            pos = parent.children.index(child_page)
            if parent.rects[pos].contains_rect(rect) and rect.contains_rect(
                parent.rects[pos]
            ):
                return
            parent.rects[pos] = rect
            self.pager.write(parent_page, parent)
            child_page, rect = parent_page, parent.mbb()

    def _split(self, page_id: int, node) -> tuple[int, Rect, int, Rect]:
        """Quadratic split (Guttman); returns (left page, rect, right page, rect)."""
        if node.is_leaf:
            lows = highs = np.array(node.points, dtype=np.float64)
            entries = list(zip(node.points, node.payloads))
        else:
            lows, highs = node.boxes()
            entries = list(zip(node.children, node.rects))
        capacity = self.leaf_capacity if node.is_leaf else self.internal_capacity
        groups = self._distribute(
            lows, highs, self._pick_seeds(lows, highs), self._min_fill(capacity)
        )

        right_page = self.pager.allocate()
        if node.is_leaf:
            left = RLeafNode(
                points=[entries[i][0] for i in groups[0]],
                payloads=[entries[i][1] for i in groups[0]],
            )
            right = RLeafNode(
                points=[entries[i][0] for i in groups[1]],
                payloads=[entries[i][1] for i in groups[1]],
            )
        else:
            left = RInternalNode(
                children=[entries[i][0] for i in groups[0]],
                rects=[entries[i][1] for i in groups[0]],
            )
            right = RInternalNode(
                children=[entries[i][0] for i in groups[1]],
                rects=[entries[i][1] for i in groups[1]],
            )
        self.pager.write(page_id, left)
        self.pager.write(right_page, right)
        return page_id, left.mbb(), right_page, right.mbb()

    @staticmethod
    def _pick_seeds(lows: np.ndarray, highs: np.ndarray) -> tuple[int, int]:
        """The pair of boxes (rows of ``lows`` / ``highs``) whose joint box
        wastes the most margin, the first of the largest in
        ``itertools.combinations`` order: one pass over every pair's
        columns, each waste the float the pair loop gives, the joint box's
        margin less each box's (``Rect.margin``)."""
        if len(lows) < 2:
            return 0, 0
        first, second = np.triu_indices(len(lows), 1)
        joint = np.maximum(highs[first], highs[second]) - np.minimum(lows[first], lows[second])
        margins = (highs - lows).sum(axis=1)
        waste = joint.sum(axis=1) - margins[first] - margins[second]
        best = int(np.argmax(waste))
        return int(first[best]), int(second[best])

    @staticmethod
    def _distribute(lows, highs, seeds, min_fill: int) -> tuple[list[int], list[int]]:
        """Guttman's quadratic distribution of the boxes (rows of ``lows`` /
        ``highs``) into two groups grown from ``seeds``: at each step the
        entry left whose margin growth differs most between the groups, the
        first of the largest, goes to the group it grows less (the second on
        a tie), until one group must take every entry left to hold
        ``min_fill``.  Each group's growth by every entry is one array pass,
        made again only for the group that grew; each growth is the float
        the entry loop gives, the margin of the group's box grown by the
        entry less the group's margin (``Rect.margin``)."""
        groups = ([seeds[0]], [seeds[1]])
        left = np.ones(len(lows), dtype=bool)
        left[list(seeds)] = False
        boxes = [(lows[seed], highs[seed]) for seed in seeds]

        def growth(low, high):
            margin = float((high - low).sum())
            return (np.maximum(high, highs) - np.minimum(low, lows)).sum(axis=1) - margin

        grows = [growth(*box) for box in boxes]
        remaining = int(left.sum())
        while remaining:
            full = [g for g in (0, 1) if len(groups[g]) + remaining == min_fill]
            if full:  # one group must take everything left
                groups[full[0]].extend(np.flatnonzero(left).tolist())
                break
            diff = np.where(left, np.abs(grows[0] - grows[1]), -1.0)
            best = int(np.argmax(diff))
            g = 0 if grows[0][best] < grows[1][best] else 1
            groups[g].append(best)
            left[best] = False
            remaining -= 1
            low, high = boxes[g]
            boxes[g] = np.minimum(low, lows[best]), np.maximum(high, highs[best])
            grows[g] = growth(*boxes[g])
        return groups

    # -- delete -----------------------------------------------------------------

    def delete(self, point, payload) -> bool:
        """Remove the entry matching (point, payload); condense + reinsert."""
        point = np.asarray(point, dtype=np.float64)
        found = self._find_entry(self.root_page, point, payload, parents=[])
        if found is None:
            return False
        path = found
        leaf_page, leaf = path[-1]
        for i, (p, pl) in enumerate(zip(leaf.points, leaf.payloads)):
            if pl == payload and np.array_equal(p, point):
                del leaf.points[i]
                del leaf.payloads[i]
                break
        self._size -= 1
        self.pager.write(leaf_page, leaf)
        self._condense(path)
        return True

    def _find_entry(self, page_id: int, point, payload, parents):
        node = self.pager.read(page_id)
        here = parents + [(page_id, node)]
        if node.is_leaf:
            for p, pl in zip(node.points, node.payloads):
                if pl == payload and np.array_equal(p, point):
                    return here
            return None
        for child, rect in zip(node.children, node.rects):
            if rect.contains_point(point):
                result = self._find_entry(child, point, payload, here)
                if result is not None:
                    return result
        return None

    def _condense(self, path: list[tuple[int, Any]]) -> None:
        orphans: list[tuple[np.ndarray, Any]] = []
        for level in range(len(path) - 1, 0, -1):
            page_id, node = path[level]
            parent_page, parent = path[level - 1]
            capacity = self.leaf_capacity if node.is_leaf else self.internal_capacity
            if len(node) < self._min_fill(capacity):
                pos = parent.children.index(page_id)
                del parent.children[pos]
                del parent.rects[pos]
                orphans.extend(self._collect_entries(node))
                self.pager.free(page_id)
                self.pager.write(parent_page, parent)
            else:
                self.pager.write(page_id, node)
                self._refresh_parent_rects(path, level)
                break
        # shrink root if needed
        root = self.pager.read(self.root_page)
        if not root.is_leaf and len(root.children) == 1:
            old = self.root_page
            self.root_page = root.children[0]
            self.pager.free(old)
            self.height -= 1
        elif not root.is_leaf and len(root.children) == 0:
            self.pager.write(self.root_page, RLeafNode())
            self.height = 1
        for point, payload in orphans:
            self._size -= 1  # reinsert re-increments
            self.insert(point, payload)

    def _collect_entries(self, node) -> list[tuple[np.ndarray, Any]]:
        if node.is_leaf:
            return list(zip(node.points, node.payloads))
        collected = []
        for child in node.children:
            collected.extend(self._collect_entries(self.pager.read(child)))
            self.pager.free(child)
        return collected

    # -- queries -------------------------------------------------------------------

    def search_rect(self, rect: Rect) -> list[tuple[np.ndarray, Any]]:
        """All (point, payload) entries whose point lies inside ``rect``."""
        results: list[tuple[np.ndarray, Any]] = []
        stack = [self.root_page]
        while stack:
            node = self.pager.read(stack.pop())
            if node.is_leaf:
                for point, payload in zip(node.points, node.payloads):
                    if rect.contains_point(point):
                        results.append((point, payload))
            else:
                for child, child_rect in zip(node.children, node.rects):
                    if rect.intersects(child_rect):
                        stack.append(child)
        return results

    # -- diagnostics ------------------------------------------------------------

    def check_invariants(self) -> None:
        count = self._check_node(self.root_page)[0]
        assert count == self._size, "size counter out of sync"

    def _check_node(self, page_id: int) -> tuple[int, Rect, int]:
        node = self.pager.read(page_id)
        if node.is_leaf:
            if not node.points:
                return 0, Rect([0.0] * self.dims, [0.0] * self.dims), 1
            return len(node.points), node.mbb(), 1
        assert len(node.children) == len(node.rects)
        total = 0
        depths = set()
        for child, rect in zip(node.children, node.rects):
            child_count, child_mbb, child_depth = self._check_node(child)
            if child_count:
                assert rect.contains_rect(child_mbb), "child MBB not contained"
            total += child_count
            depths.add(child_depth)
        assert len(depths) == 1, "unbalanced R-tree"
        return total, node.mbb(), depths.pop() + 1
