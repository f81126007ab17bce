"""VPT and MVPT: (multi-way) vantage point trees (Yianilos 1993; Bozkaya &
Ozsoyoglu 1997).

VPT splits on the median distance to the level's pivot; MVPT generalises to
m-way splits on m-1 quantiles (the paper defaults m = 5 -- larger m gives
more compact subtrees per level but fewer pivot levels overall, Section 4.3).

Following the paper's equal-footing protocol, nodes at the same level share
the same pivot, taken from the common pivot set; the tree height is thus at
most |P|.  Internal nodes store the split values as tight child bounds.

**Leaf codes from the path.**  The mvp-tree keeps, for every leaf object,
its distances to the vantage points on its root path and applies Lemma 1
to them before d(q, o) is computed.  Here an object holds them as one
``uint8`` code per path level: its cell of the *band* its ancestor at that
level holds the object's subtree in -- the child bounds ``[low, high]`` the
node split on, which the node stores anyway -- cut into 256 cells
(:meth:`~repro.core.quantise.Frame.band`).  On a discrete metric a band
that fits a byte has a cell a distance, the code being the distance less
``low``: Words codes are exact.  A band is a node's share of a level, so
its cells are far finer than a level's would be (on LA n = 50 000 a
level's 256 cells were 46-53 wide, against a served radius of 92), and
they cost no byte beyond the code: the frame is read off the bounds.

**The leaf filter** (:meth:`MVPT._leaf_bounds`) bounds every object of
the leaves one walk step reached in one vectorised pass: the walk carries
each leaf's path (where in ``_bounds`` its bands sit), the codes decode to
``band_low + code * width`` and the next edge, the end cells ending at the
bounds as they stand, and Lemma 1 against the query's pivot distances --
which the walk has paid for -- bounds d(q, o), never calling the metric.
MRQ keeps the objects within the radius; MkNNQ verifies them in the order
of those bounds (:mod:`~repro.trees.common`).

**Inserts.**  An insert outside its path's bands stretches them, as it
must for the node pruning; the codes already made in a stretched band must
still decode alike, so the band before the first stretch is kept aside
(``_stretched``, keyed by the band's low position in ``_bounds``; bytes
only for stretched bands, and a delete + re-insert never stretches one).
The new object's codes are cells of the same band, an end cell where it
lies outside, and every decoded cell ends at the stretched bounds.

**One layout, built, saved and queried.**  The tree is the preorder
columns of :mod:`~repro.trees.common` -- per node a fanout and a level (a
leaf's depth), the internal nodes' bounds, the leaf sizes, and the leaves'
4-byte ids and their codes back to back -- and nothing else: no node
objects at build, in a snapshot (the columns become memmap regions,
checked against each other on load) or at query time.  VPT is MVPT at
arity 2.

The build works a level at a time in array form: one counted ``d_ids`` call
per level over the objects still in splitting nodes, each object's code
written in the band of the child it falls in, one int32 permutation of the
ids whose segments become the leaves.  The levels' nodes are then laid out
in preorder (:func:`_preorder`), again a level at a time.  A tree pickled
as node objects, or with codes in one frame a level as before bands, is
refused by ``load_index`` and converted by ``repro migrate``, which makes
the codes again from each object's path distances (computed once, there).
"""

from __future__ import annotations

import numpy as np

from ..core.index import MetricIndex
from ..core.metric_space import MetricSpace
from ..core.quantise import Frame
from .common import FrontierTreeMixin

__all__ = ["MVPT", "VPT"]

# a stretched slot's key and the band its codes were made in
_STRETCHED_BYTES = 8 + 8 + 8


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


def _preorder(levels, perm: np.ndarray, codes: np.ndarray) -> tuple:
    """The five columns of the tree the build's levels describe.

    ``levels[t]`` is ``(fanout, lows, highs, starts, stops)`` for the
    segments level ``t`` ends with: per segment its fanout (0 for a leaf)
    and slice of ``perm``, and the internal ones' child bounds back to
    back.  The children of level ``t``'s internal segments are level
    ``t + 1``'s segments, in order; a node's preorder position is its
    parent's, plus one, plus the subtree sizes of its elder siblings.
    """
    fanouts = [level[0] for level in levels]
    sizes = [np.ones(len(fanout), dtype=np.intp) for fanout in fanouts]
    for t in range(len(levels) - 2, -1, -1):  # subtree sizes, bottom up
        inner = fanouts[t] > 0
        if inner.any():
            first_child = np.cumsum(fanouts[t][inner]) - fanouts[t][inner]
            sizes[t][inner] += np.add.reduceat(sizes[t + 1], first_child)
    positions = [np.zeros(1, dtype=np.intp)]
    for t in range(len(levels) - 1):  # preorder positions, top down
        inner = fanouts[t] > 0
        width = fanouts[t][inner]
        elder = np.cumsum(sizes[t + 1]) - sizes[t + 1]
        elder -= np.repeat(elder[np.cumsum(width) - width], width)
        positions.append(np.repeat(positions[t][inner], width) + 1 + elder)
    fanout = np.concatenate(fanouts)
    depth = np.concatenate([np.full(len(f), t) for t, f in enumerate(fanouts)])
    segment = np.empty(len(fanout), dtype=np.intp)  # by preorder position
    segment[np.concatenate(positions)] = np.arange(len(fanout))
    splits = fanout[segment] > 0
    rows = np.column_stack([fanout[segment], depth[segment]]).astype(np.intc)

    inner = segment[splits]  # bounds: each internal node's lows, then highs
    width = fanout[inner]
    block = np.cumsum(fanout) - fanout  # where a segment's child bounds start
    _, source = _back_to_back(block[inner], width)
    slot = np.cumsum(width) - width
    bounds = np.empty(2 * len(source))
    bounds[_back_to_back(2 * slot, width)[1]] = np.concatenate([level[1] for level in levels])[source]
    bounds[_back_to_back(2 * slot + width, width)[1]] = np.concatenate([level[2] for level in levels])[source]

    leaf = segment[~splits]  # leaves: ids, then their codes
    starts = np.concatenate([level[3] for level in levels])[leaf]
    leaf_sizes = np.concatenate([level[4] for level in levels])[leaf] - starts
    leaf_depth = depth[leaf]
    id_at, slots = _back_to_back(starts, leaf_sizes)
    ids = perm[slots]
    # each object's codes, object-major, a run of equal-depth leaves at a time
    edges = np.r_[id_at, len(ids)]
    first = np.r_[0, np.flatnonzero(np.diff(leaf_depth)) + 1]
    last = np.r_[first[1:], len(leaf_depth)]
    out = np.concatenate(
        [np.empty(0, dtype=np.uint8)]
        + [
            codes[:d].T[ids[edges[a] : edges[b]]].ravel()
            for a, b, d in zip(first.tolist(), last.tolist(), leaf_depth[first].tolist())
            if d
        ]
    )
    return rows, bounds, leaf_sizes.astype(np.intc), ids, out


class MVPT(FrontierTreeMixin, MetricIndex):
    """m-ary vantage point tree with shared per-level pivots."""

    name = "MVPT"

    def __init__(self, space: MetricSpace, pivot_ids, arity: int, leaf_size: int):
        super().__init__(space)
        if arity < 2:
            raise ValueError(f"arity must be >= 2, got {arity}")
        self.pivot_ids = [int(p) for p in pivot_ids]
        self.arity = arity
        self.leaf_size = leaf_size
        # where an insert stretched a child's bounds (its low one's position
        # in ``_bounds``): the band its objects' codes stay in
        self._stretched: dict[int, tuple[float, float]] = {}

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
        levels = []  # per level: fanouts, child bounds, leaf slices
        starts, stops = np.zeros(1, dtype=np.intp), np.full(1, n, dtype=np.intp)
        for level in range(n_levels + 1):
            sizes = stops - starts
            splits = (sizes > self.leaf_size) & (level < n_levels)
            fanouts = np.zeros(len(sizes), dtype=np.intp)
            lows = highs = next_starts = next_stops = np.empty(0, dtype=np.intp)
            if splits.any():
                which = np.flatnonzero(splits)
                seg_sizes = sizes[which]
                first, pos = _back_to_back(starts[which], seg_sizes)
                seg = np.repeat(np.arange(len(which)), seg_sizes)
                ids = perm[pos]
                pivot = space.dataset[self.pivot_ids[level]]
                dists = space.d_ids(pivot, ids)
                order = np.lexsort((dists, seg))
                dists, ids = dists[order], ids[order]
                perm[pos] = ids
                cuts = _segment_quantiles(dists, first, seg_sizes, fractions)
                child = np.zeros(len(seg), dtype=np.intp)
                for j in range(arity - 1):  # = searchsorted(cuts, d, "left")
                    child += dists > cuts[seg, j]
                key = seg * arity + child
                run_start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
                run_stop = np.r_[run_start[1:], len(key)]
                fanout = np.bincount(seg[run_start], minlength=len(which))
                # a pivot that cannot separate a node's objects ends it
                splits[which[fanout <= 1]] = False
                fanouts[which] = np.where(fanout > 1, fanout, 0)
                # each object's code: its cell in the band of its child
                run_sizes = run_stop - run_start
                codes[level, ids] = Frame.band(
                    np.repeat(dists[run_start], run_sizes),
                    np.repeat(dists[run_stop - 1], run_sizes),
                    space.is_discrete,
                ).encode(dists)
                grows = np.repeat(fanout > 1, fanout)
                lows, highs = dists[run_start[grows]], dists[run_stop[grows] - 1]
                next_starts = pos[run_start[grows]]
                next_stops = pos[run_stop[grows] - 1] + 1
            levels.append((fanouts, lows, highs, starts, stops))
            starts, stops = next_starts, next_stops
            if not len(starts):
                break
        self._hold_columns(*_preorder(levels, perm, codes))

    def _key_limits(self) -> tuple[int, int, int]:
        return 0, len(self.pivot_ids), len(self.pivot_ids)

    # -- queries ----------------------------------------------------------------
    # MRQ/MkNNQ (single and batched) come from FrontierTreeMixin; nodes at
    # the same level share one pivot, so a node's key is its level.

    def _frontier_pivot(self, key):
        return self.space.dataset[self.pivot_ids[key]]

    def _code_bands(self, paths: np.ndarray):
        """``(frame, low, high)`` of the child bounds at ``paths`` (``(...,
        2)`` positions in ``_bounds``): the frame their codes are cells of,
        and the bounds as they stand now."""
        band = self._bounds[paths]
        low, high = band[..., 0], band[..., 1]
        code_low, code_high = low, high
        if self._stretched:  # codes stay in the band they were made in
            stretched = np.isin(paths[..., 0], list(self._stretched))
            if stretched.any():
                code_low, code_high = low.copy(), high.copy()
                for at in zip(*np.nonzero(stretched)):
                    code_low[at], code_high[at] = self._stretched[int(paths[at][0])]
        return Frame.band(code_low, code_high, self.space.is_discrete), low, high

    def _leaf_bounds(self, pivot_dist, leaves, paths, floors):
        """Lemma 1 on every object's path codes, decoded within the bands of
        its path, for the leaves of one depth at once."""
        leaves = np.asarray(leaves).tolist()
        ids, codes, counts = self._leaf_columns(leaves)
        lower = np.repeat(floors, counts)
        # leaves at one depth code it all, or none (snapshots older than codes)
        depth = self._flat.rows[2 * leaves[0] + 1]
        if not depth:
            return ids, lower
        frame, now_low, now_high = self._code_bands(paths[:, :depth])
        # level-major from here (a reduction across 4-5 levels of each
        # object is ~10x dearer along the short axis): every object's band
        # frame and bounds, its leaf's repeated
        band_low, width, now_low, now_high = np.repeat(
            np.array([frame.low.T, frame.width.T, now_low.T, now_high.T]), counts, axis=2
        )
        codes = np.ascontiguousarray(codes.reshape(-1, depth).T)
        # a cell never reaches past the bounds: the end cells end there
        low, high = Frame(band_low, width, frame.discrete).bounds(codes, (now_low, now_high))
        dq = np.array([[pivot_dist(level)] for level in range(depth)])
        np.maximum(lower, np.maximum(low - dq, dq - high).max(axis=0), out=lower)
        return ids, lower

    # -- maintenance ----------------------------------------------------------------

    def _stretching(self, low: int, lo: float, hi: float) -> None:
        self._stretched.setdefault(low, (lo, hi))

    def insert(self, obj, object_id: int | None = None) -> int:
        """One distance per level; bounds stretch to cover the new object,
        whose codes are cells of the bands its path's codes are made in."""
        object_id, leaf, path = self._route_insert(obj, object_id)
        bounds, discrete = self._flat.bounds, self.space.is_discrete
        codes = [
            Frame.band(*self._stretched.get(low, (bounds[low], bounds[high])), discrete).encode_one(d)
            for low, high, d in path[: self._flat.rows[2 * leaf + 1]]
        ]
        self._leaf_add(leaf, object_id, codes)
        return object_id

    def delete(self, object_id: int) -> None:
        self._leaf_remove(self._find_for_delete(object_id), object_id)

    # -- accounting -----------------------------------------------------------------

    def storage_bytes(self) -> dict[str, int]:
        objects = sum(
            self.space.dataset.object_nbytes(i) for i in range(len(self.space))
        )
        held = 8 * len(self.pivot_ids) + _STRETCHED_BYTES * len(self._stretched)
        return {"memory": self._structure_bytes() + held + objects, "disk": 0}


class VPT(MVPT):
    """Binary vantage point tree: MVPT with arity 2 (median split)."""

    name = "VPT"

    @classmethod
    def build(cls, space: MetricSpace, pivot_ids, leaf_size: int = 16) -> "VPT":
        return super().build(space, pivot_ids, 2, leaf_size)
