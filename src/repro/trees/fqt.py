"""FQT: the Fixed Queries Tree (Baeza-Yates et al. 1994).

Like BKT but every node at tree level i uses the *same* pivot p_i -- which
is what lets the study give FQT the shared pivot set.  A query therefore
computes at most one distance per level (|P| total for the descent), and
with well-chosen pivots FQT is expected to beat BKT (Section 4.2).

Children again cover equal-width ranges of distance values for large
domains; leaves hold object id buckets after the last pivot level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.index import MetricIndex
from ..core.metric_space import MetricSpace
from .common import FrontierTreeMixin, require_discrete

__all__ = ["FQT"]

# children per node: equal-width ranges over the level's distances
_N_BUCKETS = 16


@dataclass
class _FqtLeaf:
    ids: list = field(default_factory=list)

    is_leaf = True


@dataclass
class _FqtNode:
    level: int
    lows: list = field(default_factory=list)
    highs: list = field(default_factory=list)
    children: list = field(default_factory=list)

    is_leaf = False


class FQT(FrontierTreeMixin, MetricIndex):
    """Fixed Queries Tree over a shared per-level pivot set."""

    name = "FQT"

    def __init__(self, space: MetricSpace, pivot_ids, root):
        super().__init__(space)
        self.pivot_ids = [int(p) for p in pivot_ids]
        self.root = root

    @classmethod
    def build(cls, space: MetricSpace, pivot_ids) -> "FQT":
        require_discrete(space, "FQT")
        index = cls(space, pivot_ids, None)
        index.root = index._build_node(list(range(len(space))), level=0)
        return index

    def _build_node(self, ids: list[int], level: int):
        if level >= len(self.pivot_ids) or len(ids) <= 1:
            return _FqtLeaf(ids=list(ids))
        pivot_obj = self.space.dataset[self.pivot_ids[level]]
        dists = self.space.d_ids(pivot_obj, ids)
        node = _FqtNode(level=level)
        lo, hi = float(dists.min()), float(dists.max())
        width = max(1.0, np.ceil((hi - lo + 1) / _N_BUCKETS))
        buckets: dict[int, list[int]] = {}
        bounds: dict[int, tuple[float, float]] = {}
        for object_id, d in zip(ids, dists):
            b = int((d - lo) // width)
            buckets.setdefault(b, []).append(object_id)
            blo, bhi = bounds.get(b, (float("inf"), -float("inf")))
            bounds[b] = (min(blo, float(d)), max(bhi, float(d)))
        for b in sorted(buckets):
            node.lows.append(bounds[b][0])
            node.highs.append(bounds[b][1])
            node.children.append(self._build_node(buckets[b], level + 1))
        # frozen as arrays for the frontier engine; inserts mutate in place
        node.lows = np.asarray(node.lows, dtype=np.float64)
        node.highs = np.asarray(node.highs, dtype=np.float64)
        return node

    # -- queries ---------------------------------------------------------------
    # MRQ/MkNNQ (single and batched) come from FrontierTreeMixin; every
    # node at level i shares pivot p_i, so a query computes at most one
    # distance per level -- the property that defines the FQT.

    def _frontier_key(self, node):
        return node.level

    def _frontier_pivot(self, key):
        return self.space.dataset[self.pivot_ids[key]]

    # -- maintenance -------------------------------------------------------------

    def insert(self, obj, object_id: int | None = None) -> int:
        """One distance per level; child intervals stretch as needed."""
        object_id, leaf, _ = self._route_insert(obj, object_id)
        leaf.ids.append(object_id)
        return object_id

    def delete(self, object_id: int) -> None:
        self._find_for_delete(object_id).ids.remove(object_id)

    # -- accounting ----------------------------------------------------------------

    def storage_bytes(self) -> dict[str, int]:
        structure = self._node_bytes(self.root)
        objects = sum(
            self.space.dataset.object_nbytes(i) for i in range(len(self.space))
        )
        return {"memory": structure + 8 * len(self.pivot_ids) + objects, "disk": 0}

    def _node_bytes(self, node) -> int:
        if node.is_leaf:
            return 8 * len(node.ids) + 16
        total = 24 + 16 * len(node.children)
        for child in node.children:
            total += 8 + self._node_bytes(child)
        return total
