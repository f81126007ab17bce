"""QueryPlanner: route each query to the predicted-cheapest catalog member.

The middle layer of the catalog -> planner -> executor stack.  Every
cache-missed query (or batch partition) asks the planner which member
should run it; every executed batch feeds its measured
:class:`~repro.core.counters.CostCounters` delta back as a model
observation.  The loop is closed and deterministic to seed:

* **route** -- members with no observations yet are tried first (forced
  exploration, round-robin over the unmodeled set), then an
  epsilon-greedy coin occasionally picks a random member so the models
  keep tracking drift (data growth, page-cache temperature, reloads);
  otherwise the member with the lowest predicted per-query wall cost
  wins.  The choice and its predicted cost are stamped on the current
  trace span, so slow-query logs show *why* an index was picked.
* **observe** -- records the batch's per-query compdists / page reads /
  wall milliseconds against the member that ran it, and scores the
  prediction it would have made beforehand: a relative wall-time error
  above 50% counts as a mispredict (``mispredict_ratio`` in stats and
  metrics).
* **calibrate** -- a deterministic seed-time pass: sample queries from
  the hosted dataset, derive radii from quantiles of (uncounted) sampled
  pairwise distances when none are given, run every member x kind x
  parameter once as a full batch and once as a single query, and record
  all of it.  After calibration every member has a fitted model over the
  parameter range, so the very first routed query already has a real
  cost ordering instead of cold-start guesses.

A catalog of one leaves nothing to choose: ``route`` returns the member,
and ``observe`` / ``calibrate`` fit nothing (:attr:`QueryPlanner.choosing`),
so serving a single index through the planner costs a dict lookup, not a
model.  The test is ``len(catalog)`` at call time -- a second member
registered later is explored and modelled from its first query on.

Observability (when a :class:`~repro.obs.metrics.MetricsRegistry` is
given): ``repro_planner_route_total{index=...}``,
``repro_planner_mispredict_ratio``, and a per-index routed-batch latency
histogram ``repro_planner_routed_batch_ms{index=...}``.
"""

from __future__ import annotations

import random
import threading
from time import perf_counter

import numpy as np

from ..obs import tracing
from ..obs.metrics import MetricsRegistry
from .catalog import IndexCatalog
from .costmodel import CostModel

__all__ = ["QueryPlanner"]

# relative wall-time error above which an observation scores as a mispredict
MISPREDICT_RELATIVE_ERROR = 0.5


class QueryPlanner:
    """Cost-based router over an :class:`IndexCatalog` (see module docs)."""

    def __init__(
        self,
        catalog: IndexCatalog,
        epsilon: float = 0.05,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
    ):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        self.catalog = catalog
        self.model = CostModel()
        self.epsilon = epsilon
        self._rng = random.Random(seed)
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
                "Fraction of observed batches whose predicted wall cost was "
                "off by more than 50% relative error.",
            ).set_function(self.mispredict_ratio)

    # -- routing -------------------------------------------------------------

    @property
    def choosing(self) -> bool:
        """Whether there is a choice to model: more than one member.  The
        service skips measuring a batch nobody will learn from."""
        return len(self.catalog) > 1

    def route(self, kind: str, param: float, batch_size: int = 1) -> str:
        """Pick the member to run one query / batch partition."""
        ids = self.catalog.ids()
        predicted: float | None = None
        if len(ids) == 1:
            choice = ids[0]
        else:
            cardinality = len(self.catalog.primary.index.space)
            costs = {
                member_id: self.model.cost(
                    member_id, kind, param, batch_size, cardinality
                )
                for member_id in ids
            }
            unmodeled = [member_id for member_id in ids if costs[member_id] is None]
            with self._lock:
                if unmodeled:
                    # forced exploration: an unmodeled member is unroutable
                    # by cost; spread the first observations round-robin
                    choice = unmodeled[self._explored % len(unmodeled)]
                    self._explored += 1
                elif self.epsilon > 0.0 and self._rng.random() < self.epsilon:
                    choice = ids[self._rng.randrange(len(ids))]
                    self._explored += 1
                    predicted = costs[choice]
                else:
                    choice = min(ids, key=lambda member_id: costs[member_id])
                    predicted = costs[choice]
        with self._lock:
            self._routes[choice] = self._routes.get(choice, 0) + 1
        if self._route_total is not None:
            self._route_total.labels(choice).inc()
        span = tracing.current_span()
        if span is not None:
            # why this index: the slow-query log's span tree carries the
            # route choice and the cost the model promised
            span.meta["planner"] = {
                "index": choice,
                "predicted_ms_per_query": (
                    None if predicted is None else round(predicted, 4)
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
        cardinality: int,
        compdists: float,
        page_reads: float,
        wall_ms: float,
    ) -> None:
        """Feed one executed batch's measured cost back into the model
        (nothing to fit, and nothing recorded, while there is no choice)."""
        if not self.choosing:
            return
        batch_size = max(1, int(batch_size))
        predicted = self.model.cost(index_id, kind, param, batch_size, cardinality)
        self.model.record(
            index_id,
            kind,
            param,
            batch_size,
            cardinality,
            compdists,
            page_reads,
            wall_ms,
        )
        with self._lock:
            self._observations += 1
            if predicted is not None:
                actual = wall_ms / batch_size
                error = abs(predicted - actual) / max(actual, 1e-6)
                if error > MISPREDICT_RELATIVE_ERROR:
                    self._mispredicts += 1
        if self._routed_ms is not None:
            self._routed_ms.labels(index_id).observe(wall_ms)

    def mispredict_ratio(self) -> float:
        with self._lock:
            if self._observations == 0:
                return 0.0
            return self._mispredicts / self._observations

    # -- introspection -------------------------------------------------------

    def explain(self, kind: str, param: float, batch_size: int = 1) -> list[dict]:
        """Predicted vs measured cost per member for one query shape.

        One row per catalog member: the model's predicted per-query
        compdists / page reads / wall ms at ``(param, batch_size)``, the
        window means of what was actually measured, the observation
        count, and whether the planner would route there (``chosen``: the
        cheapest prediction, or the only member there is).
        """
        ids = self.catalog.ids()
        cardinality = len(self.catalog.primary.index.space)
        rows = []
        best_id, best_cost = (ids[0] if len(ids) == 1 else None), None
        for member_id in ids:
            predicted = self.model.predict(
                member_id, kind, param, batch_size, cardinality
            )
            if predicted is not None and (
                best_cost is None or predicted["wall_ms"] < best_cost
            ):
                best_id, best_cost = member_id, predicted["wall_ms"]
            snap = self.catalog.member(member_id).counters.snapshot()
            rows.append(
                {
                    "index": member_id,
                    "kind": kind,
                    "param": float(param),
                    "predicted": predicted,
                    "measured": self.model.measured_means(member_id, kind),
                    "observations": self.model.n_observations(member_id, kind),
                    # lifetime staged-cascade decisions: how many objects each
                    # pruning stage decided for this member (zeros for members
                    # without a staged pruner)
                    "prune_stages": {
                        "prefix": snap.prune_prefix,
                        "refine": snap.prune_refine,
                        "validated": snap.prune_validated,
                        "ptolemaic": snap.prune_ptolemaic,
                    },
                }
            )
        for row in rows:
            row["chosen"] = row["index"] == best_id
        return rows

    def stats(self) -> dict:
        with self._lock:
            routes = dict(self._routes)
            explored = self._explored
            observations = self._observations
            mispredicts = self._mispredicts
        return {
            "members": self.catalog.ids(),
            "epsilon": self.epsilon,
            "routes": routes,
            "explored": explored,
            "observations": observations,
            "mispredicts": mispredicts,
            "mispredict_ratio": round(self.mispredict_ratio(), 4),
        }

    # -- seed-time calibration -----------------------------------------------

    def default_radii(self, n_pairs: int = 256, seed: int = 0) -> list[float]:
        """Radii at the 1%/5%/20% quantiles of sampled pairwise distances.

        Uses the dataset's raw (uncounted) metric so calibration setup
        never inflates any member's compdists.
        """
        dataset = self.catalog.primary.index.space.dataset
        n = len(dataset)
        rng = np.random.default_rng(seed)
        left = rng.integers(0, n, size=n_pairs)
        right = rng.integers(0, n, size=n_pairs)
        distance = dataset.distance
        dists = np.array(
            [
                distance(dataset[int(i)], dataset[int(j)])
                for i, j in zip(left, right)
                if int(i) != int(j)
            ],
            dtype=np.float64,
        )
        radii = sorted(
            {float(q) for q in np.quantile(dists, (0.01, 0.05, 0.20)) if q > 0}
        )
        return radii or [float(dists.max() / 4 or 1.0)]

    def calibrate(
        self,
        radii=None,
        ks=(10,),
        n_queries: int = 8,
        seed: int = 0,
    ) -> int:
        """Deterministic seed-time pass: observe every member everywhere.

        Samples ``n_queries`` dataset objects as queries, then runs each
        member x kind x parameter at three batch sizes (full, half,
        single -- the batch-size feature needs the spread, and three
        points per parameter push a two-radius calibration past the
        model's fit threshold).  Returns the number of observations
        recorded.  The distance work is real and counts into each
        member's own counters -- exactly like served traffic would.  A
        catalog of one runs nothing and records nothing.
        """
        if not self.choosing:
            return 0
        dataset = self.catalog.primary.index.space.dataset
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(dataset), size=min(n_queries, len(dataset)), replace=False)
        queries = [dataset[int(i)] for i in picks]
        if radii is None:
            radii = self.default_radii(seed=seed)
        tasks = [("range", float(r)) for r in radii]
        tasks += [("knn", float(k)) for k in ks or ()]
        recorded = 0
        for member in self.catalog.members():
            cardinality = len(member.index.space)
            sizes = sorted(
                {len(queries), max(1, len(queries) // 2), 1}, reverse=True
            )
            for kind, param in tasks:
                for batch in (queries[:size] for size in sizes):
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
                        cardinality,
                        delta.distance_computations,
                        delta.page_reads,
                        wall_ms,
                    )
                    recorded += 1
        return recorded
