"""Staged pruning cascade: ordered Lemma 1 prefix -> refine -> Lemma 4 ->
Ptolemaic, over a pivot distance table of either layout.

A single-shot filter (the bound kernels of
:mod:`~repro.core.pivot_filter`) evaluates Lemma 1 over every pivot column
for every (query, object) cell before any cell is decided.  This module is
the one mask path the tables run, a cascade that spends columns where they
pay:

1. **Prefix** -- Lemma 1 over a small prefix of the table's slots, ordered
   by measured pruning power.  Most cells die here when the ordering is
   good; the stages after it gather the surviving cells.
2. **Refine** -- only surviving cells see the remaining slots.
3. **Validate** (optional, Lemma 4) -- surviving cells whose upper bound is
   within the radius are accepted without an exact distance.
4. **Ptolemaic** -- for metrics declaring
   :attr:`~repro.core.distances.MetricDistance.is_ptolemaic`, the pair bound
   ``|d(q,p_i) d(o,p_j) - d(q,p_j) d(o,p_i)| / d(p_i,p_j)`` over a budgeted
   set of slot pairs, on the surviving cells only.

**One cascade, two table layouts.**  A table is ``n x l``: row o holds
d(o, p) for the pivots of its ``l`` *slots*.  In a shared-pivot table
(LAESA, CPT) slot j is pivot j for every row.  In a per-object table (EPT,
EPT*) each row names its own pivots, and the table hands every call its
*slot map* (``slots=``), the ``n x l`` positions of those pivots in the
query-pivot matrix; ``None`` is the identity.  Every stage reads a cell's
query distance through it, ``qmat[i, slots[o, j]]`` for ``qmat[i, j]``,
and the Ptolemaic cell looks each pair's denominator up the same way, per
cell; a pair whose two pivots are one object (EPT's random groups can draw
an object twice) contributes 0.  The lemmas and Ptolemy's inequality hold
for whichever pivots a row stores, so only the build policy differs
between layouts (:meth:`StagedPruner.build`,
:meth:`PerObjectStagedPruner.build`).

MkNNQ has no radius to stage against, so it gets bounds instead of masks
(:meth:`StagedPruner.knn_bounds`): Lemma 1 for every row -- the order and
the cutoff need a value per object -- plus a per-query ``tighten`` that
evaluates the Ptolemaic bound only for the rows verification can still
reach (:func:`~repro.core.queries.best_first_knn` has the exactness
argument).

Exactness: every stage only makes *provable* decisions, so the survivor /
validated masks equal the single-shot masks composed from full broadcasts
(``tests/test_staged_cascade.py`` builds that reference for both layouts);
staging changes how much numpy work runs, never which objects verify.

A table whose cells are ``float32`` (LAESA's) hands the cascade and the
MkNNQ bounds its ``slack``, which its mapping keeps beside the cells: no
cell is further than that from the distance it stands for, with room for
the arithmetic (:func:`~repro.core.mapping.narrowed`).  Every bound gives
it up, here and only here (:func:`_slackened` and the Ptolemaic cell):
Lemma 1 -- stage 1, the refine stage, the MkNNQ column -- subtracts it
(the masks compare against the radius plus it), Lemma 4 adds it, and the
Ptolemaic cell subtracts slack (d(q,p_i) + d(q,p_j)) / d(p_i,p_j).  What
Lemma 1 gives up carries two ulps of the query's largest pivot distance
on top, the room the rounding of |d(q,p) - t| needs, so no bound over the
cells is above -- Lemma 4's below -- what the ``float64`` table gives.
Every bound is computed, and returned, in ``float64``.  A ``float64``
table has slack 0, and its bounds are the arithmetic they were.

Whether stage 4 runs is a fact about the metric, decided once, at build
time: a build computes pivot-pair distances exactly when there are two
slots or more and the metric declares ``is_ptolemaic``, and stage 4 runs
exactly when the pruner carries that matrix.

The slot order is scored once, at build time, from the stored table (zero
distance computations) and stays frozen: the masks do not depend on it,
only how much numpy work runs and which pairs the budget picks -- so a
pruner is immutable after construction, shares across threads without a
lock, and sequential and batch execution cost the same compdists.
Snapshots written while the order could still be re-ranked online, or
while a ``bounds`` mode was stored beside the pair matrix, carry that
state as extra attributes; they load, and the extras are ignored.
"""

from __future__ import annotations

import numpy as np

from .counters import CostCounters
from .pivot_filter import (
    _QUERY_CHUNK_FLOATS,
    _object_rows,
    lower_bound_many_queries,
    ptolemaic_pairs,
)

__all__ = [
    "StagedPruner",
    "PerObjectStagedPruner",
    "prefix_size",
    "score_pivot_order",
]

# default Ptolemaic pair budget: pairs among the top ~4 ranked pivots
DEFAULT_PAIR_BUDGET = 8
# the per-object pruner's budget: slot pairs among the top 3 ranked slots,
# each costing counted pivot-pair distances at build
PER_OBJECT_PAIR_BUDGET = 3


def prefix_size(l: int) -> int:
    """Stage-1 columns for an ``l``-column table: about a quarter of them,
    at least one, and one fewer than ``l`` so the refine stage has a tail
    (``l <= 1`` gives 1, which every cascade treats as single-shot)."""
    return max(1, min(l - 1, (l + 3) // 4))


def score_pivot_order(matrix, sample: int = 64, seed: int = 0) -> np.ndarray:
    """Rank pivot columns by estimated pruning power, best first.

    The classic estimator: for random object pairs (a, b), the mean of
    ``|d(a,p_i) - d(b,p_i)|`` per pivot -- the expected Lemma 1 bound a
    single pivot yields.  Computed from the stored ``n x l`` table alone,
    so scoring costs zero distance computations.  Deterministic in
    ``seed``; stable argsort keeps build-order ties reproducible.
    """
    mat = _object_rows(matrix)
    n, l = mat.shape
    if l == 0:
        return np.empty(0, dtype=np.intp)
    if n < 2:
        return np.arange(l, dtype=np.intp)
    rng = np.random.default_rng(seed)
    left = rng.integers(0, n, size=sample)
    right = rng.integers(0, n, size=sample)
    power = np.abs(mat[left] - mat[right]).mean(axis=0)
    return np.argsort(-power, kind="stable").astype(np.intp)


def _cell_step(width: int) -> int:
    """Cells per slice so a cells x width float temporary stays bounded."""
    return max(1, _QUERY_CHUNK_FLOATS // max(1, width))


def _still_alive(alive: np.ndarray, qi: np.ndarray, oj: np.ndarray):
    """The cells ``(qi, oj)`` that ``alive`` still holds, in their order."""
    keep = alive[qi, oj]
    return qi[keep], oj[keep]


def _slackened(qmat: np.ndarray, slack: float):
    """What the bounds over a table with ``slack`` give up, for the queries
    of ``qmat``: ``(given, uppers)``.  ``given`` is Lemma 1's, per query --
    the slack plus two ulps of its largest pivot distance -- and ``uppers``
    the query side of Lemma 4, d(q,p) + slack rounded up.  For a table with
    no slack, ``(0.0, qmat)``: the bounds are the exact table's."""
    if not slack:
        return 0.0, qmat
    given = slack + 2.0 * np.spacing(qmat.max(axis=1))
    return given, np.nextafter(qmat + slack, np.inf)


def _lemma1(qmat: np.ndarray, omat: np.ndarray, slots, cols) -> np.ndarray:
    """Lemma 1 over the slots ``cols`` for every (query, row) cell: the
    ``q x n`` matrix of max_j |d(q,p_{o,j}) - d(o,p_{o,j})|.  A shared-pivot
    table runs the bound kernel on those columns; through a slot map each
    slot's query distances are a ``q x n`` gather, a slot at a time."""
    if slots is None:
        return lower_bound_many_queries(qmat[:, cols], omat[:, cols])
    out = np.zeros((qmat.shape[0], omat.shape[0]), dtype=np.float64)
    for j in np.arange(omat.shape[1])[cols]:
        np.maximum(out, np.abs(qmat[:, slots[:, j]] - omat[:, j]), out=out)
    return out


def _cell_reader(qmat: np.ndarray, omat: np.ndarray, slots, cols):
    """What the cell-wise stages read on the slots ``cols``:
    ``(ci, cj) -> (q, o, at)`` for the cells ``(ci, cj)``, the query's
    distances ``q`` read through the slot map, the row's ``o``, and ``at``,
    the query-matrix position each slot names (a row of them per cell, or
    the slot positions themselves on a shared-pivot table)."""
    o = omat[:, cols]
    if slots is None:
        q, at = qmat[:, cols], np.arange(omat.shape[1])[cols]
        return lambda ci, cj: (q[ci], o[cj], at)
    s = slots[:, cols]

    def read(ci, cj):
        at = s[cj]
        return qmat[ci[:, None], at], o[cj], at

    return read


class StagedPruner:
    """The staged cascade over one ``n x l`` pivot distance table, of
    either layout (module docstring).

    The pruner owns *slot-side* state only (slot order, prefix size,
    Ptolemaic pair matrix and budgeted slot pairs), fixed at construction;
    the object table -- and a per-object table's slot map -- is passed into
    every call, so tables that grow via ``insert`` need no pruner
    maintenance.  Plain attributes only, so indexes carrying a pruner
    snapshot and restore with zero distance computations.

    What runs over the whole table and what does not: Lemma 1 is the only
    bound evaluated for every (query, row) cell -- stage 1 of the masks on
    the prefix slots, :meth:`knn_bounds` on all of them.  Refinement,
    validation and the Ptolemaic bound see selected cells only: the
    cascade's survivors, or the rows an MkNNQ's verification order
    reaches.  ``lower_bounds_many(_queries)`` (everything for every row)
    is the oracle the tests hold those lazy forms to.
    """

    def __init__(
        self,
        order,
        prefix: int,
        pair_matrix=None,
        pair_budget: int = DEFAULT_PAIR_BUDGET,
    ):
        self.order = np.asarray(order, dtype=np.intp)
        self.prefix = int(prefix)
        self.pair_budget = int(pair_budget)
        self.pair_matrix = (
            None if pair_matrix is None else np.asarray(pair_matrix, dtype=np.float64)
        )
        self.pairs = (
            ptolemaic_pairs(self.pair_matrix, order=self.order, budget=self.pair_budget)
            if self.use_ptolemaic
            else np.empty((0, 2), dtype=np.intp)
        )
    # -- construction ---------------------------------------------------------

    @classmethod
    def build(
        cls,
        space,
        matrix,
        pivot_objects,
        pair_budget: int = DEFAULT_PAIR_BUDGET,
    ) -> "StagedPruner":
        """Score the order and (for Ptolemaic metrics) the pair matrix of a
        shared-pivot table.

        The pivot-pair distance matrix is computed with the *counted*
        metric -- it is real build work, exactly like the mapping itself
        -- and only when the metric declares ``is_ptolemaic``, so
        non-Ptolemaic builds (Hamming, edit) cost nothing extra.
        """
        order = score_pivot_order(matrix)
        l = order.shape[0]
        pair_matrix = None
        if l > 1 and space.distance.is_ptolemaic:
            pair_matrix = space.pairwise_objects(list(pivot_objects), list(pivot_objects))
        return cls(order, prefix_size(l), pair_matrix=pair_matrix, pair_budget=pair_budget)

    # -- properties -----------------------------------------------------------

    @property
    def use_ptolemaic(self) -> bool:
        """Whether stage 4 runs: the build made a pair matrix, which it
        does only for a metric declaring ``is_ptolemaic``."""
        return self.pair_matrix is not None

    def stats(self) -> dict:
        """Pruner configuration for /stats and explain."""
        return {
            "ptolemaic": self.use_ptolemaic,
            "prefix": self.prefix,
            "order": [int(i) for i in self.order],
            "n_pairs": int(self.pairs.shape[0]),
        }

    # -- MkNNQ bounds ---------------------------------------------------------

    def knn_bounds(
        self, qmat, omat, slack: float = 0.0, slots=None
    ) -> tuple[np.ndarray, list]:
        """What MkNNQ verification is handed: ``(lower, tighteners)``.

        ``lower`` is the ``q x n`` Lemma 1 matrix -- the one bound computed
        for *every* row, because ordering and cutoff need a value per
        object.  ``tighteners[i]`` is ``None`` when stage 4 is off, else a
        ``tighten(positions)`` returning query i's final bounds (Lemma 1
        max'd with the Ptolemaic bound over the budgeted pairs) for the
        given storage positions only: :func:`~repro.core.queries.
        best_first_knn` calls it for the rows the query can still reach,
        not for the table (the exactness argument lives there).  Both give
        up the table's ``slack`` and read through its ``slots`` (module
        docstring).
        """
        qmat = np.atleast_2d(np.asarray(qmat, dtype=np.float64))
        omat = _object_rows(omat)
        lower = _lemma1(qmat, omat, slots, slice(None))
        if slack:
            lower -= _slackened(qmat, slack)[0][:, None]
        if not (self.use_ptolemaic and self.pairs.size):
            return lower, [None] * lower.shape[0]

        def tightener(i: int):
            return lambda rows: np.maximum(
                lower[i, rows], self._ptolemaic_cells(qmat, omat, i, rows, slack, slots)
            )

        return lower, [tightener(i) for i in range(lower.shape[0])]

    def lower_bounds_many_queries(
        self, qmat, omat, slack: float = 0.0, slots=None
    ) -> np.ndarray:
        """Full ``q x n`` lower bounds: triangle, tightened by Ptolemaic.

        :meth:`knn_bounds` with every row tightened -- the matrix no query
        path builds any more, kept as the oracle tests compare the lazy
        form against (on a shared-pivot table it equals
        ``max(lower_bound_many_queries, ptolemaic_lower_bound_many_queries)``
        bit for bit).
        """
        lower, tighteners = self.knn_bounds(qmat, omat, slack, slots)
        every = np.arange(lower.shape[1], dtype=np.intp)
        for row, tighten in zip(lower, tighteners):
            if tighten is not None:
                row[:] = tighten(every)
        return lower

    def lower_bounds_many(self, query_pivot_dists, omat) -> np.ndarray:
        """Single-query form of :meth:`lower_bounds_many_queries`, over a
        table with no slack."""
        q = np.asarray(query_pivot_dists, dtype=np.float64)
        return self.lower_bounds_many_queries(q.reshape(1, -1), omat)[0]

    # -- the cascade (range / radius-driven masks) ----------------------------

    def masks_many_queries(
        self,
        qmat,
        omat,
        radius,
        counters: CostCounters | None = None,
        validate: bool = False,
        slack: float = 0.0,
        slots=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run the cascade; return ``(survivors, validated)`` bool masks.

        ``survivors[i, j]`` -- object j needs an exact distance for query
        i; ``validated[i, j]`` -- object j is provably an answer of query
        i (only when ``validate``, Lemma 4).  ``radius`` is a scalar or a
        per-query array.  Per-stage decided counts go to ``counters``.
        The masks are independent of the slot order (a one-slot table is
        a prefix with an empty tail), which is what keeps the cascade ==
        single-shot == brute force exact.  Every stage gives up the
        table's ``slack`` and reads the query through its ``slots``
        (module docstring).
        """
        qmat = np.atleast_2d(np.asarray(qmat, dtype=np.float64))
        omat = _object_rows(omat)
        n_q, n_o = qmat.shape[0], omat.shape[0]
        validated = np.zeros((n_q, n_o), dtype=bool)
        if n_q == 0 or n_o == 0 or omat.shape[1] == 0:
            return np.ones((n_q, n_o), dtype=bool), validated
        r = np.asarray(radius, dtype=np.float64)
        given, uppers = _slackened(qmat, slack)
        # Lemma 1 keeps a cell whose bound, less what it gives up, is
        # within the radius: within the radius plus it
        reach = r + given
        rcol = reach[:, None] if reach.ndim else reach
        l = omat.shape[1]

        order = self._column_order(l)
        prefix = min(max(1, self.prefix), max(1, l - 1))
        head, tail = order[:prefix], order[prefix:]

        # stage 1: Lemma 1 over the ranked prefix slots
        alive = _lemma1(qmat, omat, slots, head) <= rcol
        n_prefix = int(alive.size - alive.sum())

        # stage 2: refine survivors cell-wise with the remaining slots;
        # the later stages take the stage-1 cells still alive, in the same
        # row-major order, instead of a fresh nonzero over the q x n mask
        n_refine = 0
        qi, oj = np.nonzero(alive)
        if qi.size and tail.size:
            read = _cell_reader(qmat, omat, slots, tail)
            cstep = _cell_step(tail.shape[0])
            for start in range(0, qi.size, cstep):
                stop = start + cstep
                ci, cj = qi[start:stop], oj[start:stop]
                q, o, _ = read(ci, cj)
                rcell = reach[ci] if reach.ndim else reach
                dead = np.abs(q - o).max(axis=1) > rcell
                alive[ci[dead], cj[dead]] = False
                n_refine += int(dead.sum())
            if n_refine:
                qi, oj = _still_alive(alive, qi, oj)

        # stage 3: Lemma 4 validation, only for still-undecided cells
        n_validated = 0
        if validate and qi.size:
            read = _cell_reader(uppers, omat, slots, slice(None))
            cstep = _cell_step(l)
            for start in range(0, qi.size, cstep):
                stop = start + cstep
                ci, cj = qi[start:stop], oj[start:stop]
                q, o, _ = read(ci, cj)
                ok = (q + o).min(axis=1) <= (r[ci] if r.ndim else r)
                validated[ci[ok], cj[ok]] = True
                alive[ci[ok], cj[ok]] = False
                n_validated += int(ok.sum())
            if n_validated:
                qi, oj = _still_alive(alive, qi, oj)

        # stage 4: Ptolemaic filter on whatever is left
        n_pt = self._ptolemaic_stage(qmat, omat, qi, oj, alive, r, slack, slots)

        if counters is not None:
            counters.add_prune_stages(
                prefix=n_prefix,
                refine=n_refine,
                validated=n_validated,
                ptolemaic=n_pt,
            )
        return alive, validated

    def masks_many(
        self,
        query_pivot_dists,
        omat,
        radius: float,
        counters: CostCounters | None = None,
        validate: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Single-query form: 1-D ``(survivors, validated)`` masks, over a
        table with no slack.

        Routes through :meth:`masks_many_queries` with a one-row query
        matrix so sequential and batch execution make identical pruning
        decisions -- the cost-parity contract the batch tests assert.
        """
        q = np.asarray(query_pivot_dists, dtype=np.float64)
        alive, validated = self.masks_many_queries(
            q.reshape(1, -1), omat, radius, counters=counters, validate=validate
        )
        return alive[0], validated[0]

    # -- internals ------------------------------------------------------------

    def _column_order(self, l: int) -> np.ndarray:
        """The ranked slot order, padded if the table grew new columns."""
        order = self.order
        if order.shape[0] != l:
            known = order[order < l]
            missing = np.setdiff1d(
                np.arange(l, dtype=np.intp), known, assume_unique=False
            )
            order = np.concatenate([known, missing])
        return order

    def _ptolemaic_stage(self, qmat, omat, qi, oj, alive, r, slack, slots=None) -> int:
        """Stage 4 in place on ``alive``, over its alive cells ``(qi, oj)``;
        returns the decided-cell count."""
        if not self.use_ptolemaic or not self.pairs.size:
            return 0
        if not qi.size:
            return 0
        bound = self._ptolemaic_cells(qmat, omat, qi, oj, slack, slots)
        dead = bound > (r[qi] if r.ndim else r)
        alive[qi[dead], oj[dead]] = False
        return int(dead.sum())

    def _ptolemaic_cells(self, qmat, omat, ci, cj, slack=0.0, slots=None) -> np.ndarray:
        """Best Ptolemaic bound over the budgeted slot pairs for the cells
        ``(ci, cj)``.

        ``cj`` holds table rows, ``ci`` the query of each (or one query
        index shared by all).  The chosen rows are gathered first and the
        pair slots taken from that gather, so work and memory are
        O(cells x pairs) whatever the table's size.  The one Ptolemaic
        evaluation: stage 4, the MkNNQ tightening and the full-matrix
        oracle all come here.  Each pair's denominator is the distance
        between the two pivots the cell's slots name (0 contributes 0),
        and each gives up the table's ``slack`` weighted by the query's
        distances to the pair.
        """
        pairs = self.pairs
        left, right = pairs[:, 0], pairs[:, 1]
        ci = np.broadcast_to(ci, cj.shape)
        read = _cell_reader(qmat, omat, slots, slice(None))
        out = np.empty(cj.shape[0], dtype=np.float64)
        step = _cell_step(max(omat.shape[1], pairs.shape[0]))
        for start in range(0, cj.shape[0], step):
            cells = slice(start, start + step)
            q, o, at = read(ci[cells], cj[cells])
            cross = np.abs(q[:, left] * o[:, right] - q[:, right] * o[:, left])
            if slack:
                cross -= slack * (q[:, left] + q[:, right])
            denom = self.pair_matrix[at[..., left], at[..., right]]
            bound = np.divide(cross, denom, out=np.zeros_like(cross), where=denom > 0.0)
            out[cells] = bound.max(axis=1)
        return out


class PerObjectStagedPruner(StagedPruner):
    """:class:`StagedPruner` built for a per-object-pivot table (EPT / EPT*).

    Its tables hand every call their slot map (``pivot_idx``), so the
    cascade is the base class's; what is this class's own is the build
    policy: slots ranked by the spread of their stored distances, the
    first :data:`PER_OBJECT_PAIR_BUDGET` ranked slot pairs, and a sparse
    ``|P| x |P|`` pivot-pair matrix holding only the pairs those slot pairs
    reference -- a full one would cost more counted build distances than
    the table itself when the group size is large.  The state keeps its
    slot names (``slot_order``, ``slot_pairs``), so snapshots of every age
    load as they are.
    """

    # the base class's entry points, bound here by name too: the spine's
    # tracer (benchmarks/spine/tracer.py) times the ones it finds in this
    # class's own namespace
    masks_many = StagedPruner.masks_many
    masks_many_queries = StagedPruner.masks_many_queries
    lower_bounds_many_queries = StagedPruner.lower_bounds_many_queries

    order = property(lambda self: self.slot_order)
    pairs = property(lambda self: self.slot_pairs)

    def __init__(self, slot_order, prefix: int, pair_matrix=None, slot_pairs=None):
        self.slot_order = np.asarray(slot_order, dtype=np.intp)
        self.prefix = int(prefix)
        self.pair_matrix = (
            None if pair_matrix is None else np.asarray(pair_matrix, dtype=np.float64)
        )
        self.slot_pairs = (
            np.empty((0, 2), dtype=np.intp)
            if slot_pairs is None
            else np.asarray(slot_pairs, dtype=np.intp).reshape(-1, 2)
        )

    @classmethod
    def build(cls, space, pivot_ids, pivot_idx, pivot_dist) -> "PerObjectStagedPruner":
        pivot_dist = np.asarray(pivot_dist, dtype=np.float64)
        pivot_idx = np.asarray(pivot_idx)
        l = pivot_dist.shape[1] if pivot_dist.ndim == 2 else 0
        # slot order: larger spread of stored distances -> larger expected
        # |d(q,p) - d(o,p)| gaps -> more stage-1 pruning (zero compdists)
        spread = pivot_dist.std(axis=0) if pivot_dist.size else np.zeros(l)
        slot_order = np.argsort(-spread, kind="stable").astype(np.intp)
        pair_matrix = slot_pairs = None
        if l > 1 and space.distance.is_ptolemaic:
            ranked = [(f, s) for s in range(1, l) for f in range(s)]
            slot_pairs = slot_order[np.array(ranked[:PER_OBJECT_PAIR_BUDGET])]
            # counted build work: only the pivot pairs the budgeted slot
            # pairs reference, not the full |P| x |P| matrix
            ends = np.sort(pivot_idx[:, slot_pairs].reshape(-1, 2), axis=1)
            ends = np.unique(ends[ends[:, 0] != ends[:, 1]], axis=0)
            pair_matrix = np.zeros((len(pivot_ids), len(pivot_ids)), dtype=np.float64)
            for i, j in ends:
                d = space.d_between_ids(int(pivot_ids[i]), int(pivot_ids[j]))
                pair_matrix[i, j] = pair_matrix[j, i] = d
        return cls(slot_order, prefix_size(l), pair_matrix, slot_pairs)
