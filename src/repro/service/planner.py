"""QueryPlanner: route each query to the catalog member that cost least.

The middle layer of the catalog -> planner -> executor stack.  Every
cache-missed query (or batch partition) asks the planner which member
should run it; every executed batch feeds its measured
:class:`~repro.core.counters.CostCounters` delta back.  Both go through
one table:

* a **row** is keyed by the query kind, the half-octave bucket
  ``round(2 * log2(param))`` of the radius or k (radius 0 has a row of
  its own), and whether the query came alone or in a batch
  (:func:`row_key`);
* a **cell** -- one per member in a row -- holds the number of batches
  observed plus their summed per-query compdists, page reads and wall
  milliseconds.

The operations:

* **route** -- a member with no cell in the row gets the row's next
  query, round-robin over such members (forced exploration); once every
  member has a cell, the one with the lowest mean wall wins.  Nothing is
  random and nothing extrapolates, so the same observations give the
  same routes.  The choice and its mean wall are stamped on the current
  trace span, so slow-query logs show *why* an index was picked.
* **observe** -- adds one executed batch to its member's cell, and first
  scores the cell's mean against it: a relative wall error above 50%
  counts as a mispredict (``mispredict_ratio`` in stats and metrics).
* **calibrate** -- a seed-time pass: sample queries from the hosted
  dataset (seeded by the planner's ``seed``), derive radii from
  quantiles of (uncounted) sampled pairwise distances when none are
  given, and run every member x kind x parameter once as a full batch
  and once as a single query, so every calibrated row has a cell per
  member before the first routed query.
* **explain** -- a row's cells, one per member, with ``chosen`` marked by
  the same choice function ``route`` uses.

The ranking is on wall time, not on compdists: on LA, LAESA answers an
MRQ with fewer distance computations than MVPT but takes twice as long.

A catalog of one leaves nothing to choose: ``route`` returns the member,
and ``observe`` / ``calibrate`` record nothing (:attr:`QueryPlanner.choosing`),
so serving a single index through the planner costs a dict lookup.  The
test is ``len(catalog)`` at call time -- a second member registered later
is explored in every row from its first query on.

Observability (when a :class:`~repro.obs.metrics.MetricsRegistry` is
given): ``repro_planner_route_total{index=...}``,
``repro_planner_mispredict_ratio``, and a per-index routed-batch latency
histogram ``repro_planner_routed_batch_ms{index=...}``.
"""

from __future__ import annotations

import math
import threading
from time import perf_counter

import numpy as np

from ..obs import tracing
from ..obs.metrics import MetricsRegistry
from .catalog import IndexCatalog

__all__ = ["QueryPlanner", "row_key"]

# relative wall-time error above which an observation scores as a mispredict
MISPREDICT_RELATIVE_ERROR = 0.5
# sampled object pairs behind the default calibration radii
DEFAULT_RADII_PAIRS = 256

_COSTS = ("compdists", "page_reads", "wall_ms")


def row_key(kind: str, param: float, batch_size: int) -> tuple:
    """The table row of one query shape: kind, half-octave bucket of the
    radius or k, and whether it is a batch.  ``log2`` takes radius 0 to
    -inf (and an unbounded radius to +inf): rows of their own."""
    if 0.0 < param < math.inf:
        bucket = round(2.0 * math.log2(param))
    else:
        bucket = math.inf if param > 0.0 else -math.inf
    return kind, bucket, batch_size > 1


def _choose(ids: list[str], cells: dict, turn: int) -> str:
    """The member a row routes to: the ``turn``-th (round-robin) of the
    members without a cell, else the lowest mean wall."""
    unexplored = [member_id for member_id in ids if member_id not in cells]
    if unexplored:
        return unexplored[turn % len(unexplored)]
    return min(ids, key=lambda member_id: cells[member_id][3] / cells[member_id][0])


class QueryPlanner:
    """Table-driven router over an :class:`IndexCatalog` (see module docs)."""

    def __init__(
        self,
        catalog: IndexCatalog,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
    ):
        self.catalog = catalog
        self.seed = seed
        # row key -> {member id: [batches, compdists, page_reads, wall_ms]},
        # the costs summed per query
        self.table: dict[tuple, dict[str, list]] = {}
        self._turns: dict[tuple, int] = {}  # row key -> exploration turn
        self._lock = threading.Lock()
        self._routes: dict[str, int] = {}
        self._explored = 0
        self._observations = 0
        self._mispredicts = 0
        self._route_total = self._routed_ms = None
        if metrics is not None:
            self._route_total = metrics.counter(
                "repro_planner_route_total",
                "Queries/partitions routed to each catalog member.",
                labelnames=("index",),
            )
            self._routed_ms = metrics.histogram(
                "repro_planner_routed_batch_ms",
                "Wall milliseconds of each routed batch execution, per member.",
                labelnames=("index",),
            )
            metrics.gauge(
                "repro_planner_mispredict_ratio",
                "Fraction of observed batches whose member's mean wall cost "
                "was off by more than 50% relative error.",
            ).set_function(self.mispredict_ratio)

    # -- routing -------------------------------------------------------------

    @property
    def choosing(self) -> bool:
        """Whether there is a choice to learn: more than one member.  The
        service skips measuring a batch nobody will learn from."""
        return len(self.catalog) > 1

    def route(self, kind: str, param: float, batch_size: int = 1) -> str:
        """Pick the member to run one query / batch partition."""
        ids = self.catalog.ids()
        mean_ms = None
        with self._lock:
            if len(ids) == 1:
                choice = ids[0]
            else:
                key = row_key(kind, param, batch_size)
                cells = self.table.get(key, {})
                turn = self._turns.get(key, 0)
                choice = _choose(ids, cells, turn)
                cell = cells.get(choice)
                if cell is None:
                    self._turns[key] = turn + 1
                    self._explored += 1
                else:
                    mean_ms = cell[3] / cell[0]
            self._routes[choice] = self._routes.get(choice, 0) + 1
        if self._route_total is not None:
            self._route_total.labels(choice).inc()
        span = tracing.current_span()
        if span is not None:
            # why this index: the slow-query log's span tree carries the
            # route choice and the mean wall it was chosen on
            span.meta["planner"] = {
                "index": choice,
                "predicted_ms_per_query": (
                    None if mean_ms is None else round(mean_ms, 4)
                ),
            }
        return choice

    # -- feedback ------------------------------------------------------------

    def observe(
        self,
        index_id: str,
        kind: str,
        param: float,
        batch_size: int,
        compdists: float,
        page_reads: float,
        wall_ms: float,
    ) -> None:
        """Add one executed batch's measured cost to its member's cell
        (nothing is recorded while there is no choice)."""
        if not self.choosing:
            return
        batch_size = max(1, int(batch_size))
        key = row_key(kind, param, batch_size)
        per_query = [cost / batch_size for cost in (compdists, page_reads, wall_ms)]
        with self._lock:
            cells = self.table.setdefault(key, {})
            cell = cells.setdefault(index_id, [0, 0.0, 0.0, 0.0])
            if cell[0]:
                actual = per_query[2]
                error = abs(cell[3] / cell[0] - actual) / max(actual, 1e-6)
                if error > MISPREDICT_RELATIVE_ERROR:
                    self._mispredicts += 1
            cell[0] += 1
            for i, cost in enumerate(per_query, 1):
                cell[i] += cost
            self._observations += 1
        if self._routed_ms is not None:
            self._routed_ms.labels(index_id).observe(wall_ms)

    def mispredict_ratio(self) -> float:
        with self._lock:
            if self._observations == 0:
                return 0.0
            return self._mispredicts / self._observations

    # -- introspection -------------------------------------------------------

    def explain(self, kind: str, param: float, batch_size: int = 1) -> list[dict]:
        """The table row of one query shape, a dict per member.

        Each has the member's mean per-query compdists / page reads / wall
        ms in the row (``predicted``; None before its first observation
        there), the number of batches behind them, and whether ``route``
        would pick it next (``chosen``).
        """
        ids = self.catalog.ids()
        key = row_key(kind, param, batch_size)
        with self._lock:
            cells = {
                member_id: list(cell)
                for member_id, cell in self.table.get(key, {}).items()
            }
            chosen = _choose(ids, cells, self._turns.get(key, 0))
        rows = []
        for member_id in ids:
            cell = cells.get(member_id)
            snap = self.catalog.member(member_id).counters.snapshot()
            rows.append(
                {
                    "index": member_id,
                    "kind": kind,
                    "param": float(param),
                    "predicted": (
                        None
                        if cell is None
                        else dict(zip(_COSTS, (total / cell[0] for total in cell[1:])))
                    ),
                    "observations": 0 if cell is None else cell[0],
                    # lifetime staged-cascade decisions: how many objects each
                    # pruning stage decided for this member (zeros for members
                    # without a staged pruner)
                    "prune_stages": {
                        "prefix": snap.prune_prefix,
                        "refine": snap.prune_refine,
                        "validated": snap.prune_validated,
                        "ptolemaic": snap.prune_ptolemaic,
                    },
                    "chosen": member_id == chosen,
                }
            )
        return rows

    def stats(self) -> dict:
        with self._lock:
            routes = dict(self._routes)
            explored = self._explored
            observations = self._observations
            mispredicts = self._mispredicts
        return {
            "members": self.catalog.ids(),
            "routes": routes,
            "explored": explored,
            "observations": observations,
            "mispredicts": mispredicts,
            "mispredict_ratio": round(self.mispredict_ratio(), 4),
        }

    # -- seed-time calibration -----------------------------------------------

    def default_radii(self) -> list[float]:
        """Radii at the 1%/5%/20% quantiles of sampled pairwise distances.

        Uses the dataset's raw (uncounted) metric so calibration setup
        never inflates any member's compdists.  With no pair of distinct
        objects to sample, a quarter of the largest distance (or 1.0).
        """
        dataset = self.catalog.primary.index.space.dataset
        n = len(dataset)
        rng = np.random.default_rng(self.seed)
        left = rng.integers(0, n, size=DEFAULT_RADII_PAIRS)
        right = rng.integers(0, n, size=DEFAULT_RADII_PAIRS)
        distance = dataset.distance
        dists = np.array(
            [
                distance(dataset[int(i)], dataset[int(j)])
                for i, j in zip(left, right)
                if int(i) != int(j)
            ],
            dtype=np.float64,
        )
        radii = []
        if dists.size:
            quantiles = np.quantile(dists, (0.01, 0.05, 0.20))
            radii = sorted({float(q) for q in quantiles if q > 0})
        return radii or [float(dists.max(initial=0.0) / 4 or 1.0)]

    def calibrate(self, radii=None, ks=(10,), n_queries: int = 8) -> int:
        """Deterministic seed-time pass: observe every member everywhere.

        Samples ``n_queries`` dataset objects as queries, then runs each
        member x kind x parameter on all of them as one batch and on the
        first alone, filling the batch row and the single-query row.
        Returns the number of observations recorded.  The distance work
        is real and counts into each member's own counters -- exactly
        like served traffic would.  A catalog of one runs nothing and
        records nothing.
        """
        if not self.choosing:
            return 0
        dataset = self.catalog.primary.index.space.dataset
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(len(dataset), size=min(n_queries, len(dataset)), replace=False)
        queries = [dataset[int(i)] for i in picks]
        if radii is None:
            radii = self.default_radii()
        tasks = [("range", float(r)) for r in radii]
        tasks += [("knn", float(k)) for k in ks or ()]
        batches = [queries, queries[:1]] if len(queries) > 1 else [queries]
        recorded = 0
        for member in self.catalog.members():
            for kind, param in tasks:
                for batch in batches:
                    before = member.counters.counts()
                    t0 = perf_counter()
                    if kind == "range":
                        member.index.range_query_many(batch, param)
                    else:
                        member.index.knn_query_many(batch, int(param))
                    wall_ms = (perf_counter() - t0) * 1000.0
                    delta = member.counters.delta_since(before)
                    self.observe(
                        member.index_id,
                        kind,
                        param,
                        len(batch),
                        delta.distance_computations,
                        delta.page_reads,
                        wall_ms,
                    )
                    recorded += 1
        return recorded
