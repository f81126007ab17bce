"""LAESA: the Linear AESA pivot table (Mico, Oncina, Carrasco 1996).

Three tables, exactly as the paper's Figure 3: a pivot table (the pivot
objects), an object table (the data), and a distance table holding d(o, p)
for every object o and pivot p -- O(|P| x |O|) memory instead of AESA's
O(|O|^2).

**Cells are 2 bytes, in columns** (:mod:`~repro.tables.store`): ``build``
codes each column as ``uint16`` on the store's one grid as it computes it,
so no ``float64`` table exists; the bound kernel and the cascade read the
codes in place, decoding as they read; ``insert`` writes into spare room
and ``delete`` leaves a tombstone, so no write copies the table.  Every
bound gives up the grid's ``slack`` (:mod:`~repro.core.staged`) and stays
on the safe side of the ``float64`` table's, so the answers are the same;
what it costs is the objects whose ``float64`` bound lies within the slack
past the radius (on the spine's Color workload 0.35-0.37 more a query,
against ~637; none on LA).  On Color the step is 1.0 and the slack 0.5
against a 1 % radius of ~2 700, on LA 0.5 and 0.25 against ~95; on Words
and Synthetic every distance sits on the grid, slack 0.  A row is 2 bytes
a column and a 4-byte id, a quarter of the ``float64`` cells and half the
``float32`` ones it had; a snapshot memmaps the ``<u2`` columns.

* MRQ scans the distance table, prunes with Lemma 1, and verifies survivors.
* MkNNQ bounds every row with Lemma 1 and verifies in ascending bound
  order (:func:`~repro.core.queries.best_first_knn`), the radius tightening
  to the running k-th nearest distance.  The paper verifies *in storage
  order* instead -- suboptimal, as it points out, and the reason LAESA's
  kNN compdists exceed tree-based orders in its Fig. 17; that order is
  reported beside the regenerator (:mod:`repro.bench.experiments`), from
  the same columns (:meth:`LAESA._knn_columns`).

There is one query path: ``range_query_many`` and ``knn_query_many`` are
the bodies, and the one-query entry points their ``q = 1`` views.
:class:`~repro.tables.cpt.CPT` subclasses this table and overrides only
:meth:`LAESA._distances`.

**The caller's pivots seed the table; ``build`` sizes it.**  With d(q, p) and
d(o, p) stored, the Lemma 1 scan and the best-first order are already the
best use of the columns there are, so on a space of high intrinsic
dimension the only way to verify fewer objects is to hold more columns.
After the given columns ``build`` continues the pivot set the way LAESA's
authors chose base prototypes -- next pivot = the object farthest from its
nearest pivot so far, read off the columns in hand, so choosing is free and
a column costs n computations (:class:`~repro.tables.store.PivotTable`)
-- under two rules that look only at the input:

* *Width:* one more column per ``_OBJECT_BYTES_PER_COLUMN`` = 256 bytes of
  object.  A column is a 2-byte cell an object, so the continuation never
  grows ``index_bytes_per_object`` by more than 0.8 % (1.6 % while cells
  were 4 bytes, 3.2 % at 8).  Color's 2 256-byte vectors get 8 columns after the given
  ones; LA (16 B), Synthetic (160 B) and Words (<= 34 B) get none, and
  their tables, counts and bytes are exactly the given pivots'.
* *Early stop:* a new column is discarded, and the continuation ends, when
  the table's Lemma 1 bound already explains ``_EXPLAINED_SHARE`` = 0.9 of
  it (mean bound / distance over the objects).  Measured at n = 20 000 on
  5 HFI pivots, steps 6...21: 0.69-0.82 on Color (intrinsic dimension ~7),
  0.95-0.995 on LA (2-d: more pivots have nothing left to say), 0.64-0.76
  on Synthetic.

The wider table is the same table: the continuation pivots sit in
``mapping.pivot_ids`` / ``pivot_objects`` and their columns beside the given ones,
so the cascade ranks and stages them, and queries, ``insert`` (one counted
call, a computation a column), ``delete``, snapshots, ``storage_bytes`` and
CPT need no second body.  What it buys on the spine's ``color_table_batch``
(n = 20 000, 5 HFI pivots given, 16-query batches at 1 % selectivity and
k = 10): compdists a query 1 060.7 -> 636.9 at 13 columns (778 / 705 / 637 /
587 / 531 at 8 / 10 / 13 / 16 / 21 -- a column still pays at 21, the 5 %
bound on index bytes does not); ``tests/test_table_width.py`` holds <= 0.8 x
at n = 2 000.  What it costs: every column is one more
computation per query, which a small table does not earn back (at n = 200
a k = 1 batch pays 8 a query and saves none; the ratio crosses 0.8 near
n = 1 000).
"""

from __future__ import annotations

import numpy as np

from ..core.index import MetricIndex
from ..core.metric_space import MetricSpace
from ..core.staged import StagedPruner
from .store import ColumnTable, PivotTable

__all__ = ["LAESA"]

# The two constants of the width rule (module docstring has the readings):
# one continuation column per this many bytes of object ...
_OBJECT_BYTES_PER_COLUMN = 256
# ... until the table's Lemma 1 bound explains this share of a new column.
_EXPLAINED_SHARE = 0.9

class LAESA(ColumnTable):
    """Pivot table with shared pivots for every object."""

    name = "LAESA"

    def __init__(
        self,
        space: MetricSpace,
        mapping: PivotTable,
        use_validation: bool = False,
        pruner: StagedPruner | None = None,
    ):
        super().__init__(space)
        self.mapping = mapping
        self.use_validation = use_validation
        if pruner is None:
            pruner = StagedPruner.build(space, self._rows, mapping.pivot_objects)
        self.pruner = pruner

    @classmethod
    def build(
        cls,
        space: MetricSpace,
        pivot_ids,
        use_validation: bool = False,
    ) -> "LAESA":
        """Pre-compute the distance table (and pruner state): the columns of
        ``pivot_ids``, then the max-min continuation the module docstring
        sizes (none on objects under ``_OBJECT_BYTES_PER_COLUMN``).  The
        pruner runs the Ptolemaic stage exactly when the metric declares
        ``is_ptolemaic`` (:mod:`~repro.core.staged`)."""
        per_object = space.dataset.nbytes() // max(1, len(space.dataset))
        mapping = PivotTable(
            space, pivot_ids, per_object // _OBJECT_BYTES_PER_COLUMN, _EXPLAINED_SHARE
        )
        return cls(space, mapping, use_validation)

    # -- the one table ------------------------------------------------------

    # the column store of coded cells, and the slack that covers them
    table = property(lambda self: self.mapping.table)
    slack = property(lambda self: self.table.view.grid.slack)

    # -- queries ------------------------------------------------------------

    # the base class's q = 1 views, bound here by name too: the spine's
    # tracer (benchmarks/spine/tracer.py) times the entry points it finds
    # in this class's own namespace
    range_query = MetricIndex.range_query
    knn_query = MetricIndex.knn_query

    range_query_many = ColumnTable.range_query_many
    knn_query_many = ColumnTable.knn_query_many

    def _query_matrix(self, queries) -> np.ndarray:
        return self.mapping.map_query_many(queries)

    # -- maintenance ----------------------------------------------------------

    def insert(self, obj, object_id: int | None = None) -> int:
        """Append a table row: |P| distance computations.  The row and the
        grid that decodes it are published together."""
        object_id = self.table.claim(self.space, obj, object_id)
        self.table.append(object_id, self.mapping.map_object(obj))
        return object_id

    delete = ColumnTable.delete

    # -- accounting ----------------------------------------------------------

    def _table_bytes(self) -> int:
        view = self.table.view  # the used rows, tombstones too
        return int(view.table.nbytes) + int(view.row_ids.nbytes) + 8 * self.mapping.n_pivots

    def storage_bytes(self) -> dict[str, int]:
        return {"memory": self._table_bytes() + self._object_bytes(), "disk": 0}
