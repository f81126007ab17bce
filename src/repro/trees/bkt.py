"""BKT: the Burkhard-Keller tree (1973), for discrete distance functions.

A pivot is chosen *at random* for the root (the paper keeps BKT's random
pivots even in the equal-footing study, because per-subtree pivots are
inherent to the structure); objects at distance i go to the i-th subtree,
recursively.  For large distance domains, children cover equal-width
*ranges* of distance values, stored with each child (the paper's
modification to avoid empty subtrees).

The tree is unbalanced; only identifiers live in the tree, objects stay in a
separate table (another of the paper's stated implementation choices).
The tree is the preorder columns of :mod:`~repro.trees.common`, a node's
key its pivot's id; its leaves carry no path codes.
"""

from __future__ import annotations

import numpy as np

from ..core.index import MetricIndex
from ..core.metric_space import MetricSpace
from .common import FrontierTreeMixin, require_discrete
from .fqt import _buckets

__all__ = ["BKT"]


class BKT(FrontierTreeMixin, MetricIndex):
    """Burkhard-Keller tree with range-bucketed children."""

    name = "BKT"
    _pivots_answer = True

    def __init__(self, space: MetricSpace, leaf_size: int, seed: int):
        super().__init__(space)
        self.leaf_size = leaf_size
        self._rng = np.random.default_rng(seed)

    @classmethod
    def build(cls, space: MetricSpace, leaf_size: int = 16, seed: int = 0) -> "BKT":
        require_discrete(space, "BKT")
        index = cls(space, leaf_size, seed)
        index._build()
        return index

    def _build(self) -> None:
        """The recursive split, its nodes written as preorder columns."""
        rows, bounds, sizes, ids = [], [], [], []

        def leaf(members: list[int]) -> None:
            rows.append((0, 0))
            sizes.append(len(members))
            ids.extend(members)

        def node(members: list[int]) -> None:
            if len(members) <= self.leaf_size:
                return leaf(members)
            pivot_pos = int(self._rng.integers(0, len(members)))
            pivot_id = members[pivot_pos]
            rest = members[:pivot_pos] + members[pivot_pos + 1 :]
            dists = self.space.d_ids(self.space.dataset[pivot_id], rest)
            lows, highs, children = _buckets(dists, rest)
            rows.append((len(children), pivot_id))
            bounds.extend(lows + highs)
            for child in children:
                if len(child) == len(rest):
                    # no separation achieved (all objects equidistant): stop here
                    leaf(child)
                else:
                    node(child)

        node(list(range(len(self.space))))
        self._hold_columns(
            np.array(rows, dtype=np.intc).reshape(-1, 2),
            np.array(bounds, dtype=np.float64),
            np.array(sizes, dtype=np.intc),
            np.array(ids, dtype=np.intc),
            np.empty(0, dtype=np.uint8),
        )

    def _key_limits(self) -> tuple[int, int, int]:
        return -1, len(self.space), 0

    # -- queries -------------------------------------------------------------
    # MRQ/MkNNQ (single and batched) come from FrontierTreeMixin.  BKT's
    # pivots are per-subtree (each dataset object anchors at most one
    # node, its id the node's key), the pivot itself is a result
    # candidate, and a tombstoned pivot (key -1) leaves the node unable to
    # prune.

    def _frontier_pivot(self, key):
        return self.space.dataset[key]

    # -- maintenance ------------------------------------------------------------

    def insert(self, obj, object_id: int | None = None) -> int:
        """Descend by pivot distances, extending a child interval if needed."""
        object_id, leaf, _ = self._route_insert(obj, object_id)
        self._leaf_add(leaf, object_id)
        return object_id

    def delete(self, object_id: int) -> None:
        """Descend by distances; intervals stay conservative (lazy delete)."""
        holder = self._find_for_delete(object_id)
        if self._rows[holder, 0]:
            # pivots anchor their subtree: re-pointing the pivot to the
            # nearest remaining object would change distances, so BKT marks
            # it removed instead (classic approach)
            self._rows[holder, 1] = -1
        else:
            self._leaf_remove(holder, object_id)

    # -- accounting ---------------------------------------------------------------

    def storage_bytes(self) -> dict[str, int]:
        objects = sum(
            self.space.dataset.object_nbytes(i) for i in range(len(self.space))
        )
        return {"memory": self._structure_bytes() + objects, "disk": 0}
