"""FQT: the Fixed Queries Tree (Baeza-Yates et al. 1994).

Like BKT but every node at tree level i uses the *same* pivot p_i -- which
is what lets the study give FQT the shared pivot set.  A query therefore
computes at most one distance per level (|P| total for the descent), and
with well-chosen pivots FQT is expected to beat BKT (Section 4.2).

Children again cover equal-width ranges of distance values for large
domains; leaves hold object id buckets after the last pivot level.  The
tree is the preorder columns of :mod:`~repro.trees.common`, a node's key
its level; its leaves carry no path codes.
"""

from __future__ import annotations

import numpy as np

from ..core.index import MetricIndex
from ..core.metric_space import MetricSpace
from .common import FrontierTreeMixin, require_discrete

__all__ = ["FQT"]

# children per node: equal-width ranges over the level's distances
_N_BUCKETS = 16


def _buckets(dists: np.ndarray, members: list[int]):
    """Equal-width distance ranges: ``(lows, highs, members)`` per non-empty
    range, in range order, each with the tight bounds of its distances."""
    lo, hi = float(dists.min()), float(dists.max())
    width = max(1.0, np.ceil((hi - lo + 1) / _N_BUCKETS))
    buckets: dict[int, list[int]] = {}
    bounds: dict[int, tuple[float, float]] = {}
    for object_id, d in zip(members, dists):
        b = int((d - lo) // width)
        buckets.setdefault(b, []).append(object_id)
        blo, bhi = bounds.get(b, (float("inf"), -float("inf")))
        bounds[b] = (min(blo, float(d)), max(bhi, float(d)))
    order = sorted(buckets)
    return [bounds[b][0] for b in order], [bounds[b][1] for b in order], [buckets[b] for b in order]


class FQT(FrontierTreeMixin, MetricIndex):
    """Fixed Queries Tree over a shared per-level pivot set."""

    name = "FQT"

    def __init__(self, space: MetricSpace, pivot_ids):
        super().__init__(space)
        self.pivot_ids = [int(p) for p in pivot_ids]

    @classmethod
    def build(cls, space: MetricSpace, pivot_ids) -> "FQT":
        require_discrete(space, "FQT")
        index = cls(space, pivot_ids)
        index._build()
        return index

    def _build(self) -> None:
        """The recursive split, its nodes written as preorder columns."""
        rows, bounds, sizes, ids = [], [], [], []

        def node(members: list[int], level: int) -> None:
            if level >= len(self.pivot_ids) or len(members) <= 1:
                rows.append((0, 0))
                sizes.append(len(members))
                ids.extend(members)
                return
            pivot_obj = self.space.dataset[self.pivot_ids[level]]
            lows, highs, children = _buckets(self.space.d_ids(pivot_obj, members), members)
            rows.append((len(children), level))
            bounds.extend(lows + highs)
            for child in children:
                node(child, level + 1)

        node(list(range(len(self.space))), 0)
        self._hold_columns(
            np.array(rows, dtype=np.intc).reshape(-1, 2),
            np.array(bounds, dtype=np.float64),
            np.array(sizes, dtype=np.intc),
            np.array(ids, dtype=np.intc),
            np.empty(0, dtype=np.uint8),
        )

    def _key_limits(self) -> tuple[int, int, int]:
        return 0, len(self.pivot_ids), 0

    # -- queries ---------------------------------------------------------------
    # MRQ/MkNNQ (single and batched) come from FrontierTreeMixin; every
    # node at level i shares pivot p_i (its key), so a query computes at
    # most one distance per level -- the property that defines the FQT.

    def _frontier_pivot(self, key):
        return self.space.dataset[self.pivot_ids[key]]

    # -- maintenance -------------------------------------------------------------

    def insert(self, obj, object_id: int | None = None) -> int:
        """One distance per level; child intervals stretch as needed."""
        object_id, leaf, _ = self._route_insert(obj, object_id)
        self._leaf_add(leaf, object_id)
        return object_id

    def delete(self, object_id: int) -> None:
        self._leaf_remove(self._find_for_delete(object_id), object_id)

    # -- accounting ----------------------------------------------------------------

    def storage_bytes(self) -> dict[str, int]:
        objects = sum(
            self.space.dataset.object_nbytes(i) for i in range(len(self.space))
        )
        structure = self._structure_bytes() + 8 * len(self.pivot_ids)
        return {"memory": structure + objects, "disk": 0}
