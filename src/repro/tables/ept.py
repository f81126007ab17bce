"""EPT and EPT*: Extreme Pivot Tables (Ruiz et al. 2013 + the paper's PSA).

EPT picks *different pivots for different objects*: it draws ``l`` groups of
``m`` random pivots; within each group an object is assigned the pivot p that
maximises |d(o, p) - mu_p| (the "extreme" pivot, Fig. 4 of the paper).  Each
object therefore stores ``l`` (pivot, distance) pairs, and a query pays
``m * l`` distance computations up front to know d(q, p) for every group
pivot.  The group size m is estimated from the paper's Equation (1) cost
model.

EPT* (the paper's first contribution, Section 3.2) replaces the random
groups with PSA (Algorithm 1): per object, greedily pick from an HF
candidate set the pivots maximising E[D(q,o)/d(q,o)].  Construction is far
more expensive -- exactly as Table 4 reports -- but queries prune better
(Fig. 14).

MRQ/MkNNQ processing is LAESA's, the same bodies
(:class:`~repro.tables.store.ColumnTable`) over the same staged cascade
(:class:`~repro.core.staged.StagedPruner`), MkNNQ verified best-first.
Only where a bound reads d(q, p) differs: the table's column store holds
``float64`` distances with an ``int32`` slot map beside them, which each
call hands the cascade, so every cell of object o is compared with the
query's distance to o's own pivot.  What is EPT's own is the pruner's build
policy (:class:`~repro.core.staged.PerObjectStagedPruner`).
"""

from __future__ import annotations

import numpy as np

from ..core.mapping import PivotMapping
from ..core.metric_space import MetricSpace
from ..core.pivot_selection import psa, psa_greedy
from ..core.staged import PerObjectStagedPruner
from .store import ColumnStore, ColumnTable

__all__ = ["EPT", "EPTStar"]


class _ExtremePivotTableBase(ColumnTable):
    """Shared query machinery: per-object pivot ids + distances."""

    def __init__(
        self,
        space: MetricSpace,
        pivot_ids: list[int],
        pivot_idx: np.ndarray,
        pivot_dist: np.ndarray,
        pruner: PerObjectStagedPruner | None = None,
    ):
        super().__init__(space)
        self.pivot_ids = pivot_ids  # global candidate/pivot object ids
        # pivot_dist and pivot_idx (into pivot_ids) are n x l, copied once
        # into the store's columns
        self.table = ColumnStore(
            np.ascontiguousarray(np.asarray(pivot_dist).T, dtype=np.float64),
            np.arange(pivot_idx.shape[0], dtype=np.int32),
            slots=np.ascontiguousarray(np.asarray(pivot_idx).T, dtype=np.int32),
        )
        if pruner is None:
            pruner = PerObjectStagedPruner.build(space, pivot_ids, pivot_idx, pivot_dist)
        self.pruner = pruner

    # the live table, column-major: d(o, p) of each row's slots, and the
    # slots, positions in ``pivot_ids``
    _pivot_dist = property(lambda self: self.table.view.table)
    _pivot_idx = property(lambda self: self.table.view.slot_map)

    def _query_pivot_dists_many(self, queries) -> np.ndarray:
        """d(q, p) for every query and every pivot the table references:
        q x |P| (m*l or |CP| computations per query)."""
        pivots = self.space.dataset.gather(self.pivot_ids)
        return self.space.pairwise_objects(queries, pivots)

    _query_matrix = _query_pivot_dists_many

    def storage_bytes(self) -> dict[str, int]:
        view = self.table.view  # the used rows, tombstones too
        # each cell stores the pivot reference *and* the distance (the paper
        # notes this overhead relative to LAESA)
        table = int(view.table.nbytes) + int(view.slot_map.nbytes)
        return {"memory": table + 8 * len(self.pivot_ids) + self._object_bytes(), "disk": 0}


class EPT(_ExtremePivotTableBase):
    """Extreme Pivot Table with random groups (the 2013 original)."""

    name = "EPT"

    def __init__(
        self, space, pivot_ids, pivot_idx, pivot_dist, group_size: int, mu, pruner=None
    ):
        super().__init__(space, pivot_ids, pivot_idx, pivot_dist, pruner=pruner)
        self.group_size = group_size
        self._mu = mu  # mean d(o, p) per pivot column, for insert-time picks

    @classmethod
    def build(
        cls,
        space: MetricSpace,
        n_groups: int = 5,
        group_size: int | None = None,
        seed: int = 0,
    ) -> "EPT":
        """Draw ``n_groups`` random groups and assign extreme pivots.

        ``group_size`` (m) defaults to the Equation (1) estimate: the m
        minimising  m*l + n * (1 - Pr(|X - Y| > r))^l  on sampled
        distances, with r set to a small quantile of the pairwise distances.
        The per-object pruner adds Ptolemaic slot pairs exactly when the
        metric declares ``is_ptolemaic`` (:mod:`~repro.core.staged`).
        """
        rng = np.random.default_rng(seed)
        n = len(space)
        l = n_groups
        if group_size is None:
            group_size = cls._estimate_group_size(space, l, rng)
        m = max(1, min(group_size, n // max(1, l)))

        pivot_ids: list[int] = []
        pivot_idx = np.zeros((n, l), dtype=np.int32)
        pivot_dist = np.zeros((n, l), dtype=np.float64)
        mu_columns: list[float] = []
        for j in range(l):
            group = [int(i) for i in rng.choice(n, size=m, replace=False)]
            # full distance columns: the dominant build cost of EPT (Table 4)
            columns = PivotMapping(space, group).matrix  # n x m
            mus = columns.mean(axis=0)
            extremeness = np.abs(columns - mus)
            choice = extremeness.argmax(axis=1)  # per object: extreme pivot
            base = len(pivot_ids)
            pivot_ids.extend(group)
            mu_columns.extend(float(v) for v in mus)
            pivot_idx[:, j] = base + choice
            pivot_dist[:, j] = columns[np.arange(n), choice]
        pruner = PerObjectStagedPruner.build(space, pivot_ids, pivot_idx, pivot_dist)
        return cls(
            space,
            pivot_ids,
            pivot_idx,
            pivot_dist,
            m,
            np.asarray(mu_columns),
            pruner=pruner,
        )

    @staticmethod
    def _estimate_group_size(space: MetricSpace, l: int, rng) -> int:
        """Equation (1): pick m from sampled distance distributions."""
        n = len(space)
        sample = min(200, n)
        ids = [int(i) for i in rng.choice(n, size=sample, replace=False)]
        half = sample // 2
        dists = space.pairwise_ids(ids[:half], ids[half:])
        flat = np.sort(dists.ravel())
        radius = float(flat[max(0, int(0.05 * len(flat)) - 1)])
        # Pr(|X - Y| > r) for a random pivot: X, Y two independent distances
        x = dists[: half // 2].ravel()
        y = dists[half // 2 :].ravel()
        size = min(len(x), len(y))
        prune_prob = float(np.mean(np.abs(x[:size] - y[:size]) > radius))
        best_m, best_cost = 1, float("inf")
        for m in (1, 2, 4, 8, 16, 32):
            # with m pivots per group the extreme pivot prunes roughly like
            # the best of m draws
            group_prob = 1.0 - (1.0 - prune_prob) ** m
            cost = m * l + n * (1.0 - group_prob) ** l
            if cost < best_cost:
                best_m, best_cost = m, cost
        return best_m

    def insert(self, obj, object_id: int | None = None) -> int:
        """Re-assign extreme pivots for the new object.

        As the paper discusses (Table 6), EPT pays a high estimation cost on
        insert: besides the m*l pivot distances it refreshes the mu_p
        estimates against a sample so the extremeness criterion stays
        calibrated.
        """
        object_id = self.table.claim(self.space, obj, object_id)
        rng = np.random.default_rng(object_id)
        n_pivots = len(self.pivot_ids)
        sample_size = min(512, len(self.space))
        sample_ids = [int(i) for i in rng.choice(len(self.space), size=sample_size, replace=False)]
        # the estimation cost: refresh mu for every group pivot
        refreshed = self.space.pairwise_ids(self.pivot_ids, sample_ids)
        self._mu = refreshed.mean(axis=1)
        dists = self.space.d_many(
            obj, self.space.dataset.gather(self.pivot_ids)
        )
        l = self.table.view.cells.shape[0]
        m = n_pivots // l
        idx_row, dist_row = [], []
        for j in range(l):
            lo, hi = j * m, (j + 1) * m
            extremeness = np.abs(dists[lo:hi] - self._mu[lo:hi])
            pick = lo + int(extremeness.argmax())
            idx_row.append(pick)
            dist_row.append(float(dists[pick]))
        self.table.append(object_id, dist_row, slots=idx_row)
        return object_id


class EPTStar(_ExtremePivotTableBase):
    """EPT*: per-object pivots chosen by PSA (Algorithm 1)."""

    name = "EPT*"

    def __init__(self, space, pivot_ids, pivot_idx, pivot_dist, sample_ids, pruner=None):
        super().__init__(space, pivot_ids, pivot_idx, pivot_dist, pruner=pruner)
        self._sample_ids = sample_ids  # query proxies reused for inserts

    @classmethod
    def build(
        cls,
        space: MetricSpace,
        n_pivots_per_object: int = 5,
        candidate_scale: int = 40,
        sample_size: int = 64,
        seed: int = 0,
    ) -> "EPTStar":
        """Run PSA over the whole dataset (deliberately expensive); the
        pruner is EPT's, Ptolemaic slot pairs as the metric allows."""
        pivot_idx, pivot_dist, candidates = psa(
            space,
            n_pivots_per_object,
            candidate_scale=candidate_scale,
            sample_size=sample_size,
            seed=seed,
        )
        rng = np.random.default_rng(seed)
        sample_ids = [
            int(i)
            for i in rng.choice(len(space), size=min(sample_size, len(space)), replace=False)
        ]
        pruner = PerObjectStagedPruner.build(space, candidates, pivot_idx, pivot_dist)
        return cls(space, candidates, pivot_idx, pivot_dist, sample_ids, pruner=pruner)

    def insert(self, obj, object_id: int | None = None) -> int:
        """PSA for a single object: |CP| + |S| distances plus the greedy scan."""
        object_id = self.table.claim(self.space, obj, object_id)
        cand_objs = self.space.dataset.gather(self.pivot_ids)
        cand_d = self.space.d_many(obj, cand_objs)  # d(o, p_c)
        sample_objs = self.space.dataset.gather(self._sample_ids)
        sample_d = self.space.d_many(obj, sample_objs)  # d(o, q_s)
        denom = np.maximum(sample_d, 1e-12)
        # cand_sample[c, s] = d(p_c, q_s): pivots vs proxies (counted)
        cand_sample = self.space.pairwise_ids(self.pivot_ids, self._sample_ids)
        ratios = np.abs(cand_sample - cand_d[:, None]) / denom[None, :]
        used = psa_greedy(ratios, self.table.view.cells.shape[0])
        self.table.append(object_id, cand_d[used], slots=used)
        return object_id
