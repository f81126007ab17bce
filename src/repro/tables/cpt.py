"""CPT: Clustered Pivot Table (Mosko, Lokoc, Skopal 2011).

LAESA's distance table stays in main memory, but the objects move to disk,
clustered by an M-tree so that verified candidates cause few page reads
(Section 3.3 / Figure 6 of the paper).  The in-memory table keeps, per
object, the pre-computed pivot distances plus a pointer to the M-tree leaf
holding the object.

Query processing is LAESA's -- the class below inherits the mapping and
its column store of ``uint16`` grid codes (:mod:`~repro.tables.store`), the
staged cascade and the MkNNQ verification order unchanged -- except every
verification must *fetch the object from disk* first, the paper's
explanation for CPT's CPU and I/O overheads.  That one step is
:meth:`CPT._distances`: candidates are fetched grouped by the M-tree leaf
that holds them, so a leaf shared by several candidates (of one query or
of several queries of a batch) is read once -- in the pager's bounded,
page-ordered chunks (:func:`~repro.storage.pager.page_ordered_chunks`),
the same fetch the RAF-backed indexes verify through.
"""

from __future__ import annotations

import numpy as np

from ..core.metric_space import MetricSpace
from ..mtree.mtree import MTree
from ..storage.pager import Pager, page_ordered_chunks
from .laesa import LAESA

__all__ = ["CPT"]


class CPT(LAESA):
    """Pivot table in memory + M-tree-clustered objects on disk."""

    name = "CPT"
    is_disk_based = True

    @classmethod
    def build(
        cls,
        space: MetricSpace,
        pivot_ids,
        pager: Pager | None = None,
        page_size: int = 40960,
        seed: int = 0,
        use_validation: bool = False,
    ) -> "CPT":
        """Compute the distance table and cluster all objects in an M-tree.

        The M-tree construction is what makes CPT's build cost the highest of
        the table category (Table 4): every insert descends the tree with
        counted distance computations.  The default 40 KB page matches the
        paper's setting for large objects.

        Lemma 4 validation (``use_validation``) pays double for CPT: a
        validated object is an answer without the leaf *fetch*, so it
        saves a page access on top of the distance computation.  The
        table and its pruner are :meth:`LAESA.build`'s, Ptolemaic stage
        included when the metric declares it.
        """
        index = super().build(space, pivot_ids, use_validation)
        if pager is None:
            pager = Pager(page_size=page_size, counters=space.counters)
        index.mtree = MTree(space, pager, seed=seed)
        for object_id in range(len(space)):
            index.mtree.insert(object_id, space.dataset[object_id])
        return index

    # -- queries -----------------------------------------------------------

    def _distances(self, queries, ids_per_query) -> list[np.ndarray]:
        """Leaf-grouped fetch, then one vectorised distance call per query.

        The distinct candidates of all queries are fetched through
        :meth:`~repro.mtree.mtree.MTree.fetch_objects_many` in the pager's
        bounded chunks *ordered by owning leaf page*
        (:func:`~repro.storage.pager.page_ordered_chunks`), so every touched
        leaf is read (at most) once per call -- candidates sharing a leaf
        land in the same chunk (they ride along as ``grouped_hits``); only a
        chunk-boundary leaf can be read twice -- while at most
        ``FETCH_CHUNK`` objects are in memory at a time.  Each query is
        charged its own candidates, so distance counts equal LAESA's; only
        page accesses depend on how candidates are grouped into calls.
        """
        leaf_of = self.mtree.leaf_of
        found: list[dict[int, float]] = [{} for _ in queries]
        for objects in page_ordered_chunks(
            (i for ids in ids_per_query for i in ids),
            lambda distinct: sorted(distinct, key=lambda i: leaf_of.get(i, -1)),
            self.mtree.fetch_objects_many,
        ):
            for q, ids, dists in zip(queries, ids_per_query, found):
                ids = [i for i in ids if i in objects]
                dists.update(zip(ids, self.space.d_many(q, [objects[i] for i in ids])))
        return [
            np.asarray([dists[i] for i in ids], dtype=np.float64)
            for ids, dists in zip(ids_per_query, found)
        ]

    # -- maintenance ----------------------------------------------------------

    def insert(self, obj, object_id: int | None = None) -> int:
        object_id = super().insert(obj, object_id)
        self.mtree.insert(object_id, obj)
        return object_id

    def delete(self, object_id: int) -> None:
        """Table row tombstone + M-tree leaf update."""
        super().delete(object_id)
        self.mtree.delete(object_id)

    # -- snapshots -------------------------------------------------------------

    def prepare_snapshot(self) -> None:
        """Flush the M-tree's buffer pool so the page store is authoritative."""
        self.mtree.pager.prepare_snapshot()

    # -- accounting -----------------------------------------------------------

    def storage_bytes(self) -> dict[str, int]:
        return {"memory": self._table_bytes(), "disk": self.mtree.pager.disk_bytes()}
