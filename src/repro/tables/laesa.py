"""LAESA: the Linear AESA pivot table (Mico, Oncina, Carrasco 1996).

Three tables, exactly as the paper's Figure 3: a pivot table (the pivot
objects), an object table (the data), and a distance table holding d(o, p)
for every object o and pivot p -- O(|P| x |O|) memory instead of AESA's
O(|O|^2).

* MRQ scans the distance table, prunes with Lemma 1, and verifies survivors.
* MkNNQ verifies objects *in storage order* (the paper points out this is
  suboptimal and the reason LAESA's kNN compdists exceed tree-based orders)
  with the radius tightening to the running k-th nearest distance.

There is one query path: ``range_query`` is the one-query view of
``range_query_many``, and the two MkNNQ entry points differ only in the
verification strategy they name -- ``knn_query`` the paper's
:func:`~repro.core.queries.storage_order_knn`, ``knn_query_many`` the
cheaper :func:`~repro.core.queries.best_first_knn`.  :class:`~repro.tables.
cpt.CPT` subclasses this table and overrides only :meth:`LAESA._distances`.
"""

from __future__ import annotations

import numpy as np

from ..core.index import MetricIndex
from ..core.mapping import PivotMapping
from ..core.metric_space import MetricSpace
from ..core.queries import Neighbor, best_first_knn, storage_order_knn
from ..core.staged import StagedPruner
from .rows import append_row, claim_row_id, remove_row

__all__ = ["LAESA"]


class LAESA(MetricIndex):
    """Pivot table with shared pivots for every object."""

    name = "LAESA"

    def __init__(
        self,
        space: MetricSpace,
        mapping: PivotMapping,
        use_validation: bool = False,
        pruner: StagedPruner | None = None,
    ):
        super().__init__(space)
        self.mapping = mapping
        self.use_validation = use_validation
        n = mapping.n_objects
        self._row_ids = np.arange(n, dtype=np.intp)
        self._rows = mapping.matrix.copy()
        if pruner is None:
            pruner = StagedPruner.build(space, self._rows, mapping.pivot_objects)
        self.pruner = pruner

    @classmethod
    def build(
        cls,
        space: MetricSpace,
        pivot_ids,
        use_validation: bool = False,
        bounds: str = "auto",
    ) -> "LAESA":
        """Pre-compute the distance table (and pruner state) for the pivots."""
        mapping = PivotMapping(space, pivot_ids)
        pruner = StagedPruner.build(
            space, mapping.matrix, mapping.pivot_objects, bounds=bounds
        )
        return cls(space, mapping, use_validation, pruner=pruner)

    # -- queries ------------------------------------------------------------

    def _distances(self, queries, ids_per_query) -> list[np.ndarray]:
        """Counted d(q_i, o) for each query's candidate ids: the one step
        a subclass that stores its objects elsewhere replaces."""
        return [self.space.d_ids(q, ids) for q, ids in zip(queries, ids_per_query)]

    def range_query(self, query_obj, radius: float) -> list[int]:
        return self.range_query_many([query_obj], radius)[0]

    def knn_query(self, query_obj, k: int) -> list[Neighbor]:
        return self._knn([query_obj], k, storage_order_knn)[0]

    def range_query_many(self, queries, radius: float) -> list[list[int]]:
        """Vectorised MRQ.

        One ``pairwise`` call produces the full q x l query-pivot matrix,
        the staged cascade (Lemma 1, optionally Lemma 4, Ptolemaic) decides
        the q x n cells, and each query verifies all of its survivors with
        one vectorised distance call.  Pivots that are themselves answers
        are caught by the scan: their table rows contain a zero column.
        """
        queries = list(queries)
        if not queries:
            return []
        qmat = self.mapping.map_query_many(queries)
        survivors, validated = self.pruner.masks_many_queries(
            qmat,
            self._rows,
            radius,
            counters=self.space.counters,
            validate=self.use_validation,
        )
        ids_per_query = [[int(i) for i in self._row_ids[row]] for row in survivors]
        out: list[list[int]] = []
        for row, ids, dists in zip(
            validated, ids_per_query, self._distances(queries, ids_per_query)
        ):
            results = [int(i) for i in self._row_ids[row]]
            results.extend(o for o, d in zip(ids, dists) if d <= radius)
            out.append(sorted(results))
        return out

    def knn_query_many(self, queries, k: int) -> list[list[Neighbor]]:
        """Vectorised MkNNQ, verified best-first (ascending lower bound,
        chunked vectorised distance calls).  Answers equal
        :meth:`knn_query`'s; distance-computation counts are typically far
        lower than its storage-order scan (see
        :func:`~repro.core.queries.best_first_knn` for why that is not a
        strict guarantee)."""
        queries = list(queries)
        return self._knn(queries, k, best_first_knn) if queries else []

    def _knn(self, queries, k: int, strategy) -> list[list[Neighbor]]:
        """The query-pivot matrix and Lemma 1 for every row up front, then
        each query verifies in the order ``strategy`` names, tightening
        (Ptolemaic) only the rows that order reaches."""
        qmat = self.mapping.map_query_many(queries)
        lower, tighteners = self.pruner.knn_bounds(qmat, self._rows)
        return [
            strategy(
                row,
                self._row_ids,
                k,
                lambda ids, q=q: self._distances([q], [ids])[0],
                tighten,
            )
            for q, row, tighten in zip(queries, lower, tighteners)
        ]

    # -- maintenance ----------------------------------------------------------

    def insert(self, obj, object_id: int | None = None) -> int:
        """Append a table row: |P| distance computations."""
        object_id = claim_row_id(self, obj, object_id)
        append_row(self, object_id, _rows=self.mapping.map_object(obj))
        return object_id

    def delete(self, object_id: int) -> None:
        """Drop the object's table row (no distance computations)."""
        remove_row(self, object_id, "_rows")

    # -- accounting ----------------------------------------------------------

    def storage_bytes(self) -> dict[str, int]:
        objects = sum(
            self.space.dataset.object_nbytes(int(i)) for i in self._row_ids
        )
        table = int(self._rows.nbytes) + int(self._row_ids.nbytes)
        pivots = 8 * self.mapping.n_pivots
        return {"memory": table + pivots + objects, "disk": 0}
