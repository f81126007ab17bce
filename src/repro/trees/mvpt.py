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
integers and, per object, one ``uint8`` *code* per path level: the index of
the cell of that level's *frame* the object's pivot distance fell in.  A
frame is fixed when the level is built -- the integer distance itself when
the metric is discrete and the level's distances fit a byte, else 256
equal-width cells over the level's [min, max] -- and its two end cells are
open-ended, so an object inserted later outside the frame still decodes to
an interval that contains its distance.  One byte, not a float, because the
path distances are the tree's only per-object cost: five float64 levels
would triple MVPT's structure bytes, five codes beside 4-byte ids add one
byte an object to what 8-byte ids cost.  At query time a level's 256 cell
lower bounds of |d(q, p) - d(o, p)| are derived once from the d(q, p) the
walk already holds, Lemma 1 is a table lookup, and it runs over all the
leaves a query reached at once (:meth:`MVPT._leaf_filter`), never leaf by
leaf and never calling the metric.  VPT is the arity-2 case and shares all
of it.

The build works a level at a time in array form: one counted ``d_ids`` call
per level over the objects still in splitting nodes, that level's frame and
codes written straight to ``uint8``, one int32 permutation of the ids that
ends up sliced into the leaves.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from ..core.index import MetricIndex
from ..core.metric_space import MetricSpace
from .common import FrontierTreeMixin

__all__ = ["MVPT", "VPT"]

# cell edges of a frame, in units of its width past its low end
_CELL_EDGES = np.arange(257, dtype=np.float64)
_FRAME_BYTES = 8 + 8 + 1  # low end, cell width, exact flag


class _MvptLeaf:
    """Ids beside ``depth`` code bytes per object, object-major."""

    __slots__ = ("ids", "codes", "depth")
    is_leaf = True

    def __init__(self, ids: array, codes: bytearray, depth: int):
        self.ids, self.codes, self.depth = ids, codes, depth

    def __getstate__(self):
        return self.ids, self.codes, self.depth

    def __setstate__(self, state):
        if isinstance(state, dict):
            # written before leaves carried codes (ids in a list): such a
            # leaf has no path levels to filter on and is verified whole
            state = array("i", state["ids"]), bytearray(), 0
        self.ids, self.codes, self.depth = state


@dataclass
class _MvptNode:
    level: int
    lows: np.ndarray  # tight per-child bounds, stretched in place by inserts
    highs: np.ndarray
    children: list

    is_leaf = False


def _frame_of(dists: np.ndarray, discrete: bool) -> tuple[float, float, bool]:
    """(low end, cell width, exact) for a level whose distances are ``dists``."""
    lo, hi = float(dists.min()), float(dists.max())
    if discrete and 0 <= lo and hi <= 255:
        return 0.0, 1.0, True
    return lo, (hi - lo) / 256, False


def _cell_bounds(frame) -> tuple[np.ndarray, np.ndarray]:
    """Closed [low, high] of each of the 256 cells; the end cells are open."""
    lo, width, exact = frame
    edges = lo + width * _CELL_EDGES
    low = edges[:-1].copy()
    high = low.copy() if exact else edges[1:].copy()
    low[0], high[-1] = -np.inf, np.inf
    return low, high


def _encode(frame, dists) -> np.ndarray:
    """The cell of each distance, as ``uint8``.

    Raises unless every decoded interval contains its distance: a code that
    excluded it would let the leaf filter drop a true answer.
    """
    lo, width, _ = frame
    dists = np.asarray(dists, dtype=np.float64)
    cells = np.searchsorted(lo + width * _CELL_EDGES, dists, side="right") - 1
    codes = np.clip(cells, 0, 255).astype(np.uint8)
    low, high = _cell_bounds(frame)
    if not ((low[codes] <= dists) & (dists <= high[codes])).all():
        raise AssertionError(f"frame {frame} lost a distance among {dists!r}")
    return codes


def _encode_one(frame, dist: float) -> int:
    """:func:`_encode` for the one distance of an insert, without arrays."""
    lo, width, exact = frame
    if dist >= lo + width * 255:
        cell = 255
    elif dist < lo + width:
        cell = 0
    else:  # inside the frame: the quotient is off by a rounding at most
        cell = int((dist - lo) // width)
        while dist < lo + width * cell:
            cell -= 1
        while dist >= lo + width * (cell + 1):
            cell += 1
    low = lo + width * cell
    high = low if exact else lo + width * (cell + 1)
    if (cell > 0 and dist < low) or (cell < 255 and dist > high):
        raise AssertionError(f"frame {frame} lost the distance {dist!r}")
    return cell


def _gap_tables(frames, query_to_pivots) -> np.ndarray:
    """Lemma 1 per code: row i holds, for each cell of ``frames[i]``, a lower
    bound of |d(q, p_i) - d(o, p_i)| given ``query_to_pivots[i]``.

    The cell bounds are those of :func:`_cell_bounds`, term for term, for
    several levels in one pass.
    """
    lo, width, exact = np.array(frames, dtype=np.float64).T[:, :, None]
    dq = np.asarray(query_to_pivots, dtype=np.float64)[:, None]
    edges = lo + width * _CELL_EDGES - dq  # every cell edge, seen from d(q, p)
    below = edges[:, :-1]  # low - d(q, p)
    above = -np.where(exact, below, edges[:, 1:])  # d(q, p) - high
    gaps = np.maximum(below, above)
    gaps[:, :1] = above[:, :1]  # the end cells are open
    gaps[:, -1:] = below[:, -1:]
    return np.maximum(gaps, 0.0)


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


class MVPT(FrontierTreeMixin, MetricIndex):
    """m-ary vantage point tree with shared per-level pivots."""

    name = "MVPT"
    # one (low end, cell width, exact) per built level; a tree restored from
    # a snapshot that predates the codes has none and needs none
    _frames = ()

    def __init__(self, space: MetricSpace, pivot_ids, arity: int, leaf_size: int):
        super().__init__(space)
        if arity < 2:
            raise ValueError(f"arity must be >= 2, got {arity}")
        self.pivot_ids = [int(p) for p in pivot_ids]
        self.arity = arity
        self.leaf_size = leaf_size
        self.root = None

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
                frame = _frame_of(dists, space.is_discrete)
                self._frames.append(frame)
                codes[level, ids] = _encode(frame, dists)
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
                    _gap_tables(
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
            _encode_one(self._frames[level], known[level]) for level in range(leaf.depth)
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
    def build(
        cls, space: MetricSpace, pivot_ids, arity: int = 2, leaf_size: int = 16
    ) -> "VPT":
        if arity != 2:
            raise ValueError("VPT is binary; use MVPT for m-way splits")
        return super().build(space, pivot_ids, 2, leaf_size)
