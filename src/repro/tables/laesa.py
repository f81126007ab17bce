"""LAESA: the Linear AESA pivot table (Mico, Oncina, Carrasco 1996).

Three tables, exactly as the paper's Figure 3: a pivot table (the pivot
objects), an object table (the data), and a distance table holding d(o, p)
for every object o and pivot p -- O(|P| x |O|) memory instead of AESA's
O(|O|^2).

**Cells are 4 bytes.**  ``build`` computes the table in ``float64``, scores
the cascade on it (:class:`~repro.core.staged.StagedPruner`), then narrows
it to ``float32`` (:meth:`~repro.core.mapping.PivotMapping.narrow`); the
mapping keeps the ``slack`` beside the cells, so every index over one
mapping reads the same one: no cell is further than that from its distance,
with room for the arithmetic of a bound.  Every bound gives the slack up
(:mod:`~repro.core.staged`), so each is at or below -- Lemma 4's at or
above -- what the ``float64`` table gives, and the answers are the same;
what it costs is the objects whose ``float64`` bound lies within the slack
past the radius, verified now (on the spine's Color workload 0.0003-0.001
more a query, against ~637; none on LA).  ``insert`` widens the slack when
a new row rounds further.  Row ids are ``int32``.  Per object the table is
4 bytes a column plus 4 for the id, half of the ``float64`` / ``intp`` pair
it was; a snapshot memmaps the ``<f4`` region as it is.  On Color the slack is ~0.001
against a 1 % radius of ~2 700, on LA ~0.0005 against ~95.

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
a column costs n computations (:meth:`~repro.core.mapping.PivotMapping.
extend_max_min`) -- under two rules that look only at the input:

* *Width:* one more column per ``_OBJECT_BYTES_PER_COLUMN`` = 256 bytes of
  object.  A column is a 4-byte cell an object, so the continuation never
  grows ``index_bytes_per_object`` by more than 1.6 % (3.2 % while cells
  were 8 bytes).  Color's 2 256-byte vectors get 8 columns after the given
  ones; LA (16 B), Synthetic (160 B) and Words (<= 34 B) get none, and
  their tables, counts and bytes are exactly the given pivots'.
* *Early stop:* a new column is discarded, and the continuation ends, when
  the table's Lemma 1 bound already explains ``_EXPLAINED_SHARE`` = 0.9 of
  it (mean bound / distance over the objects).  Measured at n = 20 000 on
  5 HFI pivots, steps 6...21: 0.69-0.82 on Color (intrinsic dimension ~7),
  0.95-0.995 on LA (2-d: more pivots have nothing left to say), 0.64-0.76
  on Synthetic.

The wider table is the same table: the continuation pivots sit in
``mapping.pivot_ids`` / ``pivot_objects`` and the rows like the given ones,
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
from ..core.mapping import PivotMapping
from ..core.metric_space import MetricSpace
from ..core.queries import Neighbor, best_first_knn_many
from ..core.staged import StagedPruner
from .rows import append_row, claim_row_id, remove_row, restore_rows

__all__ = ["LAESA"]

# The two constants of the width rule (module docstring has the readings):
# one continuation column per this many bytes of object ...
_OBJECT_BYTES_PER_COLUMN = 256
# ... until the table's Lemma 1 bound explains this share of a new column.
_EXPLAINED_SHARE = 0.9

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
        self._row_ids = np.arange(mapping.n_objects, dtype=np.int32)
        if pruner is None:
            pruner = StagedPruner.build(space, self._rows, mapping.pivot_objects)
        self.pruner = pruner
        # scored on the float64 table above: the cascade's choices do not
        # depend on the narrowing.  A mapping another table narrowed first
        # is kept, with the slack it measured
        mapping.narrow()

    @property
    def slack(self) -> float:
        """The table's slack (:meth:`~repro.core.mapping.PivotMapping.narrow`),
        kept with its cells on the mapping."""
        return self.mapping.slack

    def __setstate__(self, state):
        if state["mapping"].matrix.dtype != np.float32:
            from ..service.snapshot import SnapshotError

            raise SnapshotError(
                f"a {self.name} whose table holds float64 cells "
                "reads only through `repro migrate OLD NEW`"
            )
        restore_rows(self, state)

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
        mapping = PivotMapping(space, pivot_ids)
        per_object = space.dataset.nbytes() // max(1, len(space.dataset))
        mapping.extend_max_min(per_object // _OBJECT_BYTES_PER_COLUMN, _EXPLAINED_SHARE)
        pruner = StagedPruner.build(space, mapping.matrix, mapping.pivot_objects)
        return cls(space, mapping, use_validation, pruner=pruner)

    # -- the one table ------------------------------------------------------

    @property
    def _rows(self) -> np.ndarray:
        """The live ``float32`` distance table, one row per ``_row_ids``
        entry.  It *is* ``mapping.matrix``: inserts and deletes rebind that
        one array."""
        return self.mapping.matrix

    @_rows.setter
    def _rows(self, table: np.ndarray) -> None:
        self.mapping.matrix = table

    # -- queries ------------------------------------------------------------

    # the base class's q = 1 views, bound here by name too: the spine's
    # tracer (benchmarks/spine/tracer.py) times the entry points it finds
    # in this class's own namespace
    range_query = MetricIndex.range_query
    knn_query = MetricIndex.knn_query

    def _distances(self, queries, ids_per_query) -> list[np.ndarray]:
        """Counted d(q_i, o) for each query's candidate ids: the one step
        a subclass that stores its objects elsewhere replaces."""
        return [self.space.d_ids(q, ids) for q, ids in zip(queries, ids_per_query)]

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
        # the table is read before its slack (here and in _knn_columns):
        # ``insert`` widens the slack before it appends, so the slack read
        # covers every row read
        survivors, validated = self.pruner.masks_many_queries(
            qmat,
            self._rows,
            radius,
            counters=self.space.counters,
            validate=self.use_validation,
            slack=self.slack,
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
        chunked vectorised distance calls) over :meth:`_knn_columns`."""
        queries = list(queries)
        return best_first_knn_many(self._knn_columns(queries), k) if queries else []

    def _knn_columns(self, queries):
        """What MkNNQ verifies from: the row ids, the ``q x n`` Lemma 1
        matrix of one query-pivot mapping, and per query the Ptolemaic
        tightener (applied only to the rows the verification order
        reaches) and the counted distance call."""
        lower, tighteners = self.pruner.knn_bounds(
            self.mapping.map_query_many(queries), self._rows, self.slack
        )
        verifiers = [lambda ids, q=q: self._distances([q], [ids])[0] for q in queries]
        return self._row_ids, lower, tighteners, verifiers

    # -- maintenance ----------------------------------------------------------

    def insert(self, obj, object_id: int | None = None) -> int:
        """Append a table row: |P| distance computations.  The slack widens
        first, so a query running beside the insert never sees a row it
        does not cover."""
        object_id = claim_row_id(self, obj, object_id)
        append_row(self, object_id, _rows=self.mapping.row(self.mapping.map_object(obj)))
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
