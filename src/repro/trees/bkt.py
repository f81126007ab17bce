"""BKT: the Burkhard-Keller tree (1973), for discrete distance functions.

A pivot is chosen *at random* for the root (the paper keeps BKT's random
pivots even in the equal-footing study, because per-subtree pivots are
inherent to the structure); objects at distance i go to the i-th subtree,
recursively.  For large distance domains, children cover equal-width
*ranges* of distance values, stored with each child (the paper's
modification to avoid empty subtrees).

The tree is unbalanced; only identifiers live in the tree, objects stay in a
separate table (another of the paper's stated implementation choices).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.index import MetricIndex
from ..core.metric_space import MetricSpace
from .common import FrontierTreeMixin, require_discrete

__all__ = ["BKT"]

# children per node: equal-width ranges over the node's distances
_N_BUCKETS = 16


@dataclass
class _BktLeaf:
    ids: list = field(default_factory=list)

    is_leaf = True


@dataclass
class _BktNode:
    pivot_id: int
    # children as parallel lists: inclusive distance interval per child
    lows: list = field(default_factory=list)
    highs: list = field(default_factory=list)
    children: list = field(default_factory=list)

    is_leaf = False


class BKT(FrontierTreeMixin, MetricIndex):
    """Burkhard-Keller tree with range-bucketed children."""

    name = "BKT"

    def __init__(self, space: MetricSpace, root, leaf_size: int, seed: int):
        super().__init__(space)
        self.root = root
        self.leaf_size = leaf_size
        self._rng = np.random.default_rng(seed)

    @classmethod
    def build(cls, space: MetricSpace, leaf_size: int = 16, seed: int = 0) -> "BKT":
        require_discrete(space, "BKT")
        index = cls(space, None, leaf_size, seed)
        index.root = index._build_node(list(range(len(space))))
        return index

    def _build_node(self, ids: list[int]):
        if len(ids) <= self.leaf_size:
            return _BktLeaf(ids=list(ids))
        pivot_pos = int(self._rng.integers(0, len(ids)))
        pivot_id = ids[pivot_pos]
        rest = ids[:pivot_pos] + ids[pivot_pos + 1 :]
        dists = self.space.d_ids(self.space.dataset[pivot_id], rest)
        node = _BktNode(pivot_id=pivot_id)
        lo, hi = float(dists.min()), float(dists.max())
        width = max(1.0, np.ceil((hi - lo + 1) / _N_BUCKETS))
        buckets: dict[int, list[int]] = {}
        bucket_bounds: dict[int, tuple[float, float]] = {}
        for object_id, d in zip(rest, dists):
            b = int((d - lo) // width)
            buckets.setdefault(b, []).append(object_id)
            blo, bhi = bucket_bounds.get(b, (float("inf"), -float("inf")))
            bucket_bounds[b] = (min(blo, float(d)), max(bhi, float(d)))
        for b in sorted(buckets):
            child_ids = buckets[b]
            if len(child_ids) == len(rest):
                # no separation achieved (all objects equidistant): stop here
                node.lows.append(bucket_bounds[b][0])
                node.highs.append(bucket_bounds[b][1])
                node.children.append(_BktLeaf(ids=child_ids))
                continue
            node.lows.append(bucket_bounds[b][0])
            node.highs.append(bucket_bounds[b][1])
            node.children.append(self._build_node(child_ids))
        # frozen as arrays for the frontier engine; inserts mutate values
        # in place and re-grow the arrays when adding a child
        node.lows = np.asarray(node.lows, dtype=np.float64)
        node.highs = np.asarray(node.highs, dtype=np.float64)
        return node

    # -- queries -------------------------------------------------------------
    # MRQ/MkNNQ (single and batched) come from FrontierTreeMixin.  BKT's
    # pivots are per-subtree (each dataset object anchors at most one
    # node), the pivot itself is a result candidate, and a tombstoned
    # pivot (delete) leaves the node unable to prune.

    def _frontier_key(self, node):
        return node.pivot_id if node.pivot_id >= 0 else None

    def _frontier_pivot(self, key):
        return self.space.dataset[key]

    def _frontier_candidate(self, node) -> int | None:
        return node.pivot_id

    # -- maintenance ------------------------------------------------------------

    def insert(self, obj, object_id: int | None = None) -> int:
        """Descend by pivot distances, extending a child interval if needed."""
        object_id, leaf, _ = self._route_insert(obj, object_id)
        leaf.ids.append(object_id)
        return object_id

    def delete(self, object_id: int) -> None:
        """Descend by distances; intervals stay conservative (lazy delete)."""
        holder = self._find_for_delete(object_id)
        if holder.is_leaf:
            holder.ids.remove(object_id)
        else:
            # pivots anchor their subtree: re-pointing the pivot to the
            # nearest remaining object would change distances, so BKT marks
            # it removed instead (classic approach)
            holder.pivot_id = -1

    # -- accounting ---------------------------------------------------------------

    def storage_bytes(self) -> dict[str, int]:
        structure = self._node_bytes(self.root)
        objects = sum(
            self.space.dataset.object_nbytes(i) for i in range(len(self.space))
        )
        return {"memory": structure + objects, "disk": 0}

    def _node_bytes(self, node) -> int:
        if node.is_leaf:
            return 8 * len(node.ids) + 16
        total = 8 + 16  # pivot id + header
        total += 16 * len(node.children)  # interval bounds
        for child in node.children:
            total += 8 + self._node_bytes(child)
        return total
