"""VPT and MVPT: (multi-way) vantage point trees (Yianilos 1993; Bozkaya &
Ozsoyoglu 1997).

VPT splits on the median distance to the level's pivot; MVPT generalises to
m-way splits on m-1 quantiles (the paper defaults m = 5 -- larger m gives
more compact subtrees per level but fewer pivot levels overall, Section 4.3).

Following the paper's equal-footing protocol, nodes at the same level share
the same pivot, taken from the common pivot set; the tree height is thus at
most |P|.  Internal nodes store the split values as tight child bounds.

**What a leaf holds.**  The mvp-tree keeps, for every leaf object, its
distances to the vantage points on its root path and applies Lemma 1 to
them before d(q, o) is computed.  A leaf here holds its ids as 4-byte
integers and, per object, one ``uint8`` code per path level: the cell of
that level's :class:`~repro.core.quantise.Frame` its pivot distance fell
in, the frame fitted by :meth:`~repro.core.quantise.Frame.spanning` when
the level is built.  One byte, not a float, because the path distances are
the tree's only per-object cost: five float64 levels would triple MVPT's
structure bytes.  At query time Lemma 1 is a lookup in each level's gap
table, over all the leaves a query reached at once
(:meth:`MVPT._leaf_filter`), never calling the metric.  VPT is MVPT at
arity 2.

The build works a level at a time in array form: one counted ``d_ids`` call
per level over the objects still in splitting nodes, that level's frame and
codes written straight to ``uint8``, one int32 permutation of the ids that
ends up sliced into the leaves.

**What a snapshot holds.**  A pickled tree is five columns, its nodes in
preorder (:func:`_preorder_columns`): per node a fanout and a level or
depth, the internal nodes' bounds, the leaf sizes, and all ids and codes
back to back -- a few arrays the snapshot lifts into memmap regions,
not one pickled object per node.  Unpickling checks that the columns
agree and hangs the same nodes again; a tree pickled as node objects, as
every snapshot was before, is converted by ``repro migrate``.
"""

from __future__ import annotations

from array import array

import numpy as np

from ..core.index import MetricIndex
from ..core.metric_space import MetricSpace
from ..core.quantise import Frame, gap_tables
from .common import FrontierTreeMixin

__all__ = ["MVPT", "VPT"]

_FRAME_BYTES = 8 + 8 + 1  # low end, cell width, exact flag


class _MvptLeaf:
    """Ids beside ``depth`` code bytes per object, object-major."""

    __slots__ = ("ids", "codes", "depth")
    is_leaf = True

    def __init__(self, ids: array, codes: bytearray, depth: int):
        self.ids, self.codes, self.depth = ids, codes, depth


class _MvptNode:
    """The level whose pivot splits it, and per child tight bounds on the
    distance to that pivot (stretched in place by inserts)."""

    __slots__ = ("level", "lows", "highs", "children")
    is_leaf = False

    def __init__(self, level: int, lows: np.ndarray, highs: np.ndarray, children: list):
        self.level, self.lows, self.highs, self.children = level, lows, highs, children


def _back_to_back(starts: np.ndarray, sizes: np.ndarray):
    """Lay segments of the permutation end to end: each one's offset in the
    run, and the permutation position of every slot of the run."""
    first = np.cumsum(sizes) - sizes
    return first, np.arange(int(sizes.sum())) + np.repeat(starts - first, sizes)


def _segment_quantiles(
    values: np.ndarray, first: np.ndarray, sizes: np.ndarray, fractions: np.ndarray
) -> np.ndarray:
    """``np.quantile(segment, fractions)`` for every segment, in one pass.

    ``values`` holds the segments back to back, each sorted, segment ``s``
    at ``first[s] : first[s] + sizes[s]``.  The arithmetic is numpy's
    ``method="linear"`` operation for operation, so the splits are the ones
    a per-node ``np.quantile`` call draws.
    """
    count = sizes[:, None]
    virtual = (count - 1) * fractions
    below = np.floor(virtual)
    gamma = virtual - below
    below = np.clip(below.astype(np.intp), 0, count - 1)
    a = values[first[:, None] + below]
    b = values[first[:, None] + np.minimum(below + 1, count - 1)]
    diff = b - a
    cuts = a + diff * gamma
    upper = gamma >= 0.5
    cuts[upper] = (b - diff * (1 - gamma))[upper]
    return cuts


def _hang_leaves(perm, codes, depth, starts, stops, homes) -> None:
    """Cut the segments a level closes into leaves of that depth."""
    sizes = stops - starts
    first, pos = _back_to_back(starts, sizes)
    ids = perm[pos]
    id_bytes = ids.tobytes()
    code_bytes = np.ascontiguousarray(codes[:depth, ids].T).tobytes()
    width = ids.itemsize
    for (holder, slot), a, m in zip(homes, first.tolist(), sizes.tolist()):
        holder[slot] = _MvptLeaf(
            array("i", id_bytes[width * a : width * (a + m)]),
            bytearray(code_bytes[depth * a : depth * (a + m)]),
            depth,
        )


def _preorder_columns(root) -> tuple:
    """The tree as columns, nodes in preorder: ``(rows, bounds, sizes, ids,
    codes)`` -- per node its fanout (0 for a leaf) and its level (a leaf's
    depth); each internal node's lows then highs; each leaf's size; and
    the leaves' ids and codes back to back."""
    rows, bounds, sizes, ids, codes = [], [], [], [], []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            rows += (0, node.depth)
            sizes.append(len(node.ids))
            ids.append(node.ids)
            codes.append(node.codes)
        else:
            rows += (len(node.children), node.level)
            bounds += (node.lows, node.highs)
            stack.extend(reversed(node.children))
    return (
        np.array(rows, dtype=np.intc).reshape(-1, 2),
        np.concatenate(bounds, dtype=np.float64) if bounds else np.empty(0),
        np.array(sizes, dtype=np.intc),
        np.frombuffer(b"".join(ids), dtype=np.intc),
        np.frombuffer(b"".join(codes), dtype=np.uint8),
    )


def _tree_of_columns(columns, n_frames: int, n_levels: int):
    """The nodes :func:`_preorder_columns` packed, built again.

    Raises ``ValueError`` before building anything unless the columns
    agree: the fanouts consume exactly the node rows, the sizes the ids,
    size x depth the codes, and 2 x fanout the bounds; no leaf is deeper
    than the frames, and every internal level names a pivot.
    """
    rows, bounds, sizes, ids, codes = (np.asarray(column) for column in columns)
    if rows.ndim != 2 or rows.shape[1] != 2 or not len(rows):
        raise ValueError(f"packed MVPT node rows have shape {rows.shape}")
    fanout, level = rows.astype(np.int64).T
    leaf = fanout == 0
    depth = level[leaf]
    sizes = sizes.astype(np.int64)
    waiting = 1 + np.cumsum(fanout - 1)  # nodes still owed after each row
    if (fanout < 0).any() or (waiting[:-1] <= 0).any() or waiting[-1] != 0:
        raise ValueError("packed MVPT fanouts do not consume the node rows")
    if sizes.shape != depth.shape or (sizes < 0).any() or sizes.sum() != len(ids):
        raise ValueError(f"packed MVPT leaf sizes do not sum to its {len(ids)} ids")
    if (sizes * depth).sum() != len(codes):
        raise ValueError(f"packed MVPT leaf sizes and depths do not fill its {len(codes)} codes")
    if 2 * fanout.sum() != len(bounds):
        raise ValueError(f"packed MVPT fanouts do not match its {len(bounds)} bounds")
    if (depth < 0).any() or (depth > n_frames).any():
        raise ValueError(f"a packed MVPT leaf is deeper than its {n_frames} frames")
    inner = level[~leaf]
    if (inner < 0).any() or (inner >= n_levels).any():
        raise ValueError(f"a packed MVPT node names a level past its {n_levels} pivots")
    bounds = np.array(bounds, dtype=np.float64)  # off the memmap, writable
    id_bytes = np.ascontiguousarray(ids, dtype=np.intc).tobytes()
    code_bytes = np.ascontiguousarray(codes, dtype=np.uint8).tobytes()
    width = np.dtype(np.intc).itemsize
    top = [None]
    homes = [(top, 0)]  # the slot each coming node is hung in, next on top
    b = a = c = 0
    leaves = iter(sizes.tolist())
    for f, lv in rows.tolist():
        holder, slot = homes.pop()
        if f:
            node = _MvptNode(lv, bounds[b : b + f], bounds[b + f : b + 2 * f], [None] * f)
            homes.extend((node.children, i) for i in range(f - 1, -1, -1))
            b += 2 * f
        else:
            m = next(leaves)
            node = _MvptLeaf(
                array("i", id_bytes[width * a : width * (a + m)]),
                bytearray(code_bytes[c : c + lv * m]),
                lv,
            )
            a, c = a + m, c + lv * m
        holder[slot] = node
    return top[0]


class MVPT(FrontierTreeMixin, MetricIndex):
    """m-ary vantage point tree with shared per-level pivots."""

    name = "MVPT"

    def __getstate__(self):
        state = self.__dict__.copy()
        if self.root is not None:
            state["root"] = _preorder_columns(self.root)
        return state

    def __setstate__(self, state):
        if state["root"] is not None:
            state["root"] = _tree_of_columns(
                state["root"], len(state["_frames"]), len(state["pivot_ids"])
            )
        self.__dict__.update(state)

    def __init__(self, space: MetricSpace, pivot_ids, arity: int, leaf_size: int):
        super().__init__(space)
        if arity < 2:
            raise ValueError(f"arity must be >= 2, got {arity}")
        self.pivot_ids = [int(p) for p in pivot_ids]
        self.arity = arity
        self.leaf_size = leaf_size
        self.root = None
        self._frames: list[Frame] = []  # one per built level

    @classmethod
    def build(
        cls, space: MetricSpace, pivot_ids, arity: int = 5, leaf_size: int = 16
    ) -> "MVPT":
        index = cls(space, pivot_ids, arity, leaf_size)
        index._build()
        return index

    def _build(self) -> None:
        """Split every node of a level at once, level after level."""
        space, arity = self.space, self.arity
        n, n_levels = len(space), len(self.pivot_ids)
        perm = np.arange(n, dtype=np.intc)  # a node is a slice of this
        codes = np.zeros((n_levels, n), dtype=np.uint8)  # by object id
        fractions = np.linspace(0, 1, arity + 1)[1:-1]
        self._frames = []
        top = [None]
        homes = [(top, 0)]  # where each segment's node or leaf is hung
        starts, stops = np.zeros(1, dtype=np.intp), np.full(1, n, dtype=np.intp)
        for level in range(n_levels + 1):
            sizes = stops - starts
            splits = (sizes > self.leaf_size) & (level < n_levels)
            next_homes: list = []
            next_starts = next_stops = np.empty(0, dtype=np.intp)
            if splits.any():
                which = np.flatnonzero(splits)
                seg_sizes = sizes[which]
                first, pos = _back_to_back(starts[which], seg_sizes)
                seg = np.repeat(np.arange(len(which)), seg_sizes)
                ids = perm[pos]
                pivot = space.dataset[self.pivot_ids[level]]
                dists = space.d_ids(pivot, ids)
                frame = Frame.spanning(dists, space.is_discrete)
                self._frames.append(frame)
                codes[level, ids] = frame.encode(dists)
                order = np.lexsort((dists, seg))
                dists = dists[order]
                perm[pos] = ids[order]
                cuts = _segment_quantiles(dists, first, seg_sizes, fractions)
                child = np.zeros(len(seg), dtype=np.intp)
                for j in range(arity - 1):  # = searchsorted(cuts, d, "left")
                    child += dists > cuts[seg, j]
                key = seg * arity + child
                run_start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
                run_stop = np.r_[run_start[1:], len(key)]
                fanout = np.bincount(seg[run_start], minlength=len(which))
                lows, highs = dists[run_start], dists[run_stop - 1]
                # a pivot that cannot separate a node's objects ends it
                splits[which[fanout <= 1]] = False
                grows = np.repeat(fanout > 1, fanout)
                next_starts = pos[run_start[grows]]
                next_stops = pos[run_stop[grows] - 1] + 1
                run = 0
                for s, width in zip(which.tolist(), fanout.tolist()):
                    if width > 1:
                        node = _MvptNode(
                            level,
                            lows[run : run + width].copy(),
                            highs[run : run + width].copy(),
                            [None] * width,
                        )
                        holder, slot = homes[s]
                        holder[slot] = node
                        next_homes.extend((node.children, i) for i in range(width))
                    run += width
            closes = np.flatnonzero(~splits)
            _hang_leaves(
                perm,
                codes,
                level,
                starts[closes],
                stops[closes],
                [homes[s] for s in closes.tolist()],
            )
            homes, starts, stops = next_homes, next_starts, next_stops
            if not homes:
                break
        self.root = top[0]

    # -- queries ----------------------------------------------------------------
    # MRQ/MkNNQ (single and batched) come from FrontierTreeMixin; nodes at
    # the same level share one pivot, so the engine's distance cache keys
    # on the level.

    def _frontier_key(self, node):
        return node.level

    def _frontier_pivot(self, key):
        return self.space.dataset[self.pivot_ids[key]]

    def _leaf_filter(self, pivot_dist):
        """Lemma 1 on the path codes of every reached leaf, grouped by depth."""
        frames = self._frames
        tables: list[np.ndarray] = []  # by level: gap per code, for this query

        def keep(leaves, radius: float) -> np.ndarray:
            by_depth: dict[int, list] = {}
            for leaf in leaves:
                by_depth.setdefault(leaf.depth, []).append(leaf)
            filtering = radius != np.inf
            known, deepest = len(tables), max(by_depth)
            if filtering and deepest > known:
                tables.extend(
                    gap_tables(
                        frames[known:deepest],
                        [pivot_dist(level) for level in range(known, deepest)],
                    )
                )
            kept = []
            for depth, group in by_depth.items():
                ids = np.frombuffer(b"".join([leaf.ids for leaf in group]), dtype=np.intc)
                if depth and filtering:
                    codes = np.frombuffer(
                        b"".join([leaf.codes for leaf in group]), dtype=np.uint8
                    ).reshape(-1, depth)
                    bound = tables[0][codes[:, 0]]
                    for level in range(1, depth):
                        np.maximum(bound, tables[level][codes[:, level]], out=bound)
                    ids = ids[bound <= radius]  # ties stay: d(q, o) may equal r
                kept.append(ids)
            return kept[0] if len(kept) == 1 else np.concatenate(kept)

        return keep

    # -- maintenance ----------------------------------------------------------------

    def insert(self, obj, object_id: int | None = None) -> int:
        """One distance per level; bounds stretch to cover the new object."""
        object_id, leaf, known = self._route_insert(obj, object_id)
        leaf.ids.append(object_id)
        leaf.codes.extend(
            self._frames[level].encode_one(known[level]) for level in range(leaf.depth)
        )
        return object_id

    def delete(self, object_id: int) -> None:
        leaf = self._find_for_delete(object_id)
        slot = leaf.ids.index(object_id)
        del leaf.ids[slot]
        del leaf.codes[slot * leaf.depth : (slot + 1) * leaf.depth]

    # -- accounting -----------------------------------------------------------------

    def storage_bytes(self) -> dict[str, int]:
        structure = self._node_bytes(self.root)
        objects = sum(
            self.space.dataset.object_nbytes(i) for i in range(len(self.space))
        )
        levels = 8 * len(self.pivot_ids) + _FRAME_BYTES * len(self._frames)
        return {"memory": structure + levels + objects, "disk": 0}

    def _node_bytes(self, node) -> int:
        if node.is_leaf:
            return node.ids.itemsize * len(node.ids) + len(node.codes) + 16
        total = 24 + 16 * len(node.children)
        for child in node.children:
            total += 8 + self._node_bytes(child)
        return total


class VPT(MVPT):
    """Binary vantage point tree: MVPT with arity 2 (median split)."""

    name = "VPT"

    @classmethod
    def build(cls, space: MetricSpace, pivot_ids, leaf_size: int = 16) -> "VPT":
        return super().build(space, pivot_ids, 2, leaf_size)
