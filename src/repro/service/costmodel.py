"""Per-(index, kind) cost models fitted online from counter observations.

The planner needs an answer to one question: *given this query's radius or
k and this batch size, which catalog member is predicted cheapest?*  The
model behind that answer is deliberately small:

* every executed batch yields one **observation** -- the member that ran
  it, the query kind, the radius/k, the batch size, the dataset
  cardinality, and the measured per-query cost (compdists, page reads,
  wall milliseconds) taken from the member's private
  :class:`~repro.core.counters.CostCounters` delta (the same sum-exact
  bracketing the telemetry layer has used since PR 7);
* per ``(index_id, kind)`` the last :data:`WINDOW` observations are kept and a
  least-squares fit maps the feature row ``[1, param, param^2, batch_size,
  cardinality]`` to the three per-query cost targets.  The quadratic term
  matters: MRQ cost grows superlinearly in the radius for every pivot
  filter (the candidate ball's volume does), and a straight line
  misorders members between calibrated radii;
* fits refresh lazily (every :data:`REFIT_EVERY` records), so the hot path
  pays one deque append and the occasional tiny ``lstsq`` on a <=WINDOW x 5
  matrix.

With fewer observations than features the normal equations are
underdetermined; ``lstsq``'s minimum-norm solution is still usable, but to
keep early routing sane the prediction falls back to the plain
per-observation mean until ``MIN_FIT_OBSERVATIONS`` records exist.  All
predictions are clamped at zero -- a negative predicted cost is an
artifact, not a bargain.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = ["CostModel", "Observation", "MIN_FIT_OBSERVATIONS"]

# below this many observations a least-squares plane is pure extrapolation;
# predict from the running mean instead
MIN_FIT_OBSERVATIONS = 6
# observations kept per (index_id, kind), and records between refits
WINDOW = 512
REFIT_EVERY = 16

_TARGETS = ("compdists", "page_reads", "wall_ms")


@dataclass
class Observation:
    """One executed batch, reduced to per-query features and costs."""

    param: float
    batch_size: int
    cardinality: int
    compdists: float  # per query
    page_reads: float  # per query
    wall_ms: float  # per query

    def features(self) -> list[float]:
        return [
            1.0,
            self.param,
            self.param * self.param,
            float(self.batch_size),
            float(self.cardinality),
        ]

    def targets(self) -> list[float]:
        return [self.compdists, self.page_reads, self.wall_ms]


class CostModel:
    """Windowed least-squares cost models, one per ``(index_id, kind)``.

    Thread-safe: observations arrive from the dispatcher worker and from
    direct batch callers concurrently with the planner's predictions.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._obs: dict[tuple, deque] = {}
        self._coef: dict[tuple, np.ndarray | None] = {}  # 5 x 3, or None
        self._dirty: dict[tuple, int] = {}  # records since last fit

    # -- recording -----------------------------------------------------------

    def record(
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
        """Log one executed batch (totals; stored as per-query costs)."""
        batch_size = max(1, int(batch_size))
        obs = Observation(
            param=float(param),
            batch_size=batch_size,
            cardinality=int(cardinality),
            compdists=compdists / batch_size,
            page_reads=page_reads / batch_size,
            wall_ms=wall_ms / batch_size,
        )
        key = (index_id, kind)
        with self._lock:
            bucket = self._obs.get(key)
            if bucket is None:
                bucket = self._obs[key] = deque(maxlen=WINDOW)
            bucket.append(obs)
            self._dirty[key] = self._dirty.get(key, 0) + 1

    def n_observations(self, index_id: str, kind: str) -> int:
        with self._lock:
            bucket = self._obs.get((index_id, kind))
            return len(bucket) if bucket is not None else 0

    # -- fitting -------------------------------------------------------------

    def _fit_locked(self, key: tuple) -> None:
        """Refit one model if its window changed since the last fit."""
        if self._dirty.get(key, 0) == 0 and key in self._coef:
            return
        bucket = self._obs.get(key)
        self._dirty[key] = 0
        if bucket is None or len(bucket) < MIN_FIT_OBSERVATIONS:
            self._coef[key] = None
            return
        rows = list(bucket)
        X = np.array([o.features() for o in rows], dtype=np.float64)
        Y = np.array([o.targets() for o in rows], dtype=np.float64)
        # normalise columns so lstsq conditioning survives cardinality ~1e4
        # next to an intercept of 1; scale back into the coefficients
        scale = np.maximum(np.abs(X).max(axis=0), 1e-12)
        coef, *_ = np.linalg.lstsq(X / scale, Y, rcond=None)
        self._coef[key] = coef / scale[:, None]

    def predict(
        self,
        index_id: str,
        kind: str,
        param: float,
        batch_size: int = 1,
        cardinality: int = 0,
    ) -> dict | None:
        """Predicted per-query cost, or None with no observations yet.

        Returns ``{"compdists", "page_reads", "wall_ms"}``, each clamped
        at zero.  Below :data:`MIN_FIT_OBSERVATIONS` records the
        prediction is the window mean (feature-independent).
        """
        key = (index_id, kind)
        probe = Observation(
            param=float(param),
            batch_size=max(1, int(batch_size)),
            cardinality=int(cardinality),
            compdists=0.0,
            page_reads=0.0,
            wall_ms=0.0,
        )
        with self._lock:
            bucket = self._obs.get(key)
            if not bucket:
                return None
            self._dirty.setdefault(key, len(bucket))
            # refit when enough new records accumulated, when no fit exists
            # yet, or when the last fit fell back to the mean but fresh
            # records may have pushed the window past the fit threshold
            if (
                self._dirty[key] >= REFIT_EVERY
                or key not in self._coef
                or (self._coef[key] is None and self._dirty[key] > 0)
            ):
                self._fit_locked(key)
            coef = self._coef.get(key)
            if coef is None:
                Y = np.array([o.targets() for o in bucket], dtype=np.float64)
                values = Y.mean(axis=0)
            else:
                values = np.asarray(probe.features(), dtype=np.float64) @ coef
        values = np.maximum(values, 0.0)
        return dict(zip(_TARGETS, (float(v) for v in values)))

    def cost(
        self,
        index_id: str,
        kind: str,
        param: float,
        batch_size: int = 1,
        cardinality: int = 0,
    ) -> float | None:
        """Scalar routing cost: predicted per-query wall milliseconds."""
        predicted = self.predict(index_id, kind, param, batch_size, cardinality)
        return None if predicted is None else predicted["wall_ms"]

    # -- introspection -------------------------------------------------------

    def measured_means(self, index_id: str, kind: str) -> dict | None:
        """Window means of the raw measured per-query costs (for explain)."""
        with self._lock:
            bucket = self._obs.get((index_id, kind))
            if not bucket:
                return None
            Y = np.array([o.targets() for o in bucket], dtype=np.float64)
        return dict(zip(_TARGETS, (float(v) for v in Y.mean(axis=0))))
