"""One function per table/figure of the paper's Section 6.

Each experiment returns plain row dicts so the pytest benchmarks, the
``benchmarks/run_experiments.py`` driver, and EXPERIMENTS.md generation all
share the exact same measurement code.  Scale is a parameter everywhere: the
paper runs at 0.6-1.1M objects, we default to laptop-friendly sizes and
report shapes, not absolute numbers.

Two MkNNQ orders are reported for the scanning tables (LAESA, CPT, EPT,
EPT*, the Omni sequential file, DEPT): the best-first order their
``knn_query`` runs, and the paper's own storage order
(:func:`storage_order_knn`, Section 3.1), whose counts are the ones the
paper's Fig. 17 shows.  Both verify from the same columns, and both return
the same answer.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..core.counters import QueryStats
from ..core.dataset import dataset_statistics
from ..core.metric_space import MetricSpace
from ..core.pivot_selection import select_pivots
from ..core.queries import KnnHeap, Neighbor
from ..sfc import HilbertCurve, ZOrderCurve
from .runner import (
    KNN_CACHE_BYTES,
    _measure_each,
    build_index,
    measure_build,
    run_knn_queries,
    run_range_queries,
    run_updates,
    shared_pivots,
)
from .workloads import Workload, make_workload

__all__ = [
    "exp_table2_datasets",
    "exp_table4_construction",
    "exp_table5_ranking",
    "exp_table6_updates",
    "exp_table7_ranking",
    "exp_fig14_ept",
    "exp_fig15_mindex",
    "exp_fig16_range",
    "exp_fig17_knn",
    "exp_fig18_pivots",
    "exp_ablation_pivot_selection",
    "exp_ablation_mvpt_arity",
    "exp_ablation_sfc",
    "build_all",
    "paper_order_knn",
    "storage_order_knn",
]

N_PIVOTS_DEFAULT = 5


def exp_table2_datasets(workloads: dict[str, Workload]) -> list[dict]:
    """Table 2: dataset statistics."""
    return [
        dataset_statistics(wl.dataset).row() for wl in workloads.values()
    ]


def build_all(
    workload: Workload,
    index_names,
    n_pivots: int = N_PIVOTS_DEFAULT,
    seed: int = 0,
    **overrides,
):
    """Build every applicable index once; returns {name: BuildResult}."""
    pivots = shared_pivots(workload, n_pivots, seed=seed)
    out = {}
    for name in index_names:
        if name in ("BKT", "FQT", "FQA") and not workload.dataset.distance.is_discrete:
            continue  # the paper's blank cells (discrete-only indexes)
        out[name] = measure_build(name, workload, pivots, seed=seed, **overrides)
    return out


def exp_table4_construction(
    workloads: dict[str, Workload],
    index_names,
    n_pivots: int = N_PIVOTS_DEFAULT,
) -> tuple[list[dict], dict]:
    """Table 4: construction PA / compdists / time / storage per dataset.

    Also returns the built indexes ({workload: {index: BuildResult}}) so
    downstream experiments reuse them.
    """
    rows = []
    built: dict[str, dict] = {}
    for wl_name, workload in workloads.items():
        built[wl_name] = build_all(workload, index_names, n_pivots)
        for index_name, result in built[wl_name].items():
            rows.append(
                {
                    "Dataset": wl_name,
                    "Index": index_name,
                    "PA": result.page_accesses,
                    "Compdists": result.compdists,
                    "Time (s)": round(result.seconds, 3),
                    "Mem (KB)": round(result.memory_bytes / 1024, 1),
                    "Disk (KB)": round(result.disk_bytes / 1024, 1),
                }
            )
    return rows, built


def exp_table5_ranking(table4_rows: list[dict]) -> dict[str, dict[str, float]]:
    """Table 5: per-metric totals across datasets (lower = better rank)."""
    metrics = {"PA": {}, "Compdists": {}, "Time (s)": {}, "Storage (KB)": {}}
    for row in table4_rows:
        name = row["Index"]
        metrics["PA"][name] = metrics["PA"].get(name, 0) + row["PA"]
        metrics["Compdists"][name] = metrics["Compdists"].get(name, 0) + row["Compdists"]
        metrics["Time (s)"][name] = metrics["Time (s)"].get(name, 0) + row["Time (s)"]
        metrics["Storage (KB)"][name] = (
            metrics["Storage (KB)"].get(name, 0) + row["Mem (KB)"] + row["Disk (KB)"]
        )
    return metrics


def exp_table6_updates(
    workloads: dict[str, Workload],
    index_names,
    n_pivots: int = N_PIVOTS_DEFAULT,
    n_updates: int = 20,
    built: dict | None = None,
) -> list[dict]:
    """Table 6: mean delete+reinsert cost."""
    rows = []
    for wl_name, workload in workloads.items():
        indexes = (built or {}).get(wl_name) or build_all(
            workload, index_names, n_pivots
        )
        victims = list(range(10, 10 + n_updates))
        for index_name, result in indexes.items():
            if index_name == "AESA":
                continue
            cost = run_updates(result.index, victims)
            rows.append(
                {
                    "Dataset": wl_name,
                    "Index": index_name,
                    "PA": round(cost.mean_page_accesses, 1),
                    "Compdists": round(cost.mean_compdists, 1),
                    "Time (s)": round(cost.mean_cpu_seconds, 5),
                }
            )
    return rows


def exp_table7_ranking(table6_rows: list[dict]) -> dict[str, dict[str, float]]:
    """Table 7: update-cost totals per numeric metric column."""
    metrics: dict[str, dict[str, float]] = {}
    for row in table6_rows:
        name = row["Index"]
        for column, value in row.items():
            if column in ("Dataset", "Index") or not isinstance(value, (int, float)):
                continue
            metrics.setdefault(column, {})
            metrics[column][name] = metrics[column].get(name, 0) + value
    return metrics


def _cost_columns(cost: QueryStats) -> dict:
    return {
        "Compdists": round(cost.mean_compdists, 1),
        "PA": round(cost.mean_page_accesses, 1),
        "CPU (ms)": round(cost.mean_cpu_seconds * 1000, 2),
    }


def storage_order_knn(
    lower_bounds: np.ndarray,
    row_ids: Sequence[int],
    k: int,
    verify_many: Callable[[list[int]], np.ndarray],
    tighten: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[Neighbor]:
    """Exact MkNNQ over a pre-computed lower-bound column, in storage order.

    The paper's LAESA MkNNQ (Section 3.1, and the reason its Fig. 17
    compdists exceed the tree-based orders): rows are visited as stored,
    a row is verified unless its lower bound already exceeds the running
    k-th nearest distance.  The first k rows meet an infinite radius, so
    they are verified in one call; after that every verification may
    tighten the radius the next row is tested against, so the paper's
    count needs one object per call.  Same arguments and same answer as
    :func:`~repro.core.queries.best_first_knn`; ``tighten`` is applied to
    the rows whose cheap bound is within the radius the first k leave
    behind -- a row above it can never be verified, whatever its final
    bound.  A NaN row holds no object (a table's tombstone) and is skipped.
    """
    heap = KnnHeap(k)
    lower_bounds = np.asarray(lower_bounds, dtype=np.float64)
    rows = np.flatnonzero(~np.isnan(lower_bounds))
    if k == 0 or rows.size == 0:
        return []
    ids = [int(row_ids[pos]) for pos in rows[:k]]
    for object_id, d in zip(ids, verify_many(ids)):
        heap.consider(object_id, float(d))
    rest = rows[k:]
    positions = rest[lower_bounds[rest] <= heap.radius]
    bounds = lower_bounds[positions] if tighten is None else tighten(positions)
    reachable = bounds <= heap.radius
    for pos, bound in zip(positions[reachable], bounds[reachable]):
        if bound > heap.radius:
            continue
        object_id = int(row_ids[pos])
        heap.consider(object_id, float(verify_many([object_id])[0]))
    return heap.neighbors()


def paper_order_knn(index, query_obj, k: int) -> list[Neighbor]:
    """MkNNQ(q, k) on a scanning table, verified in the paper's storage
    order from the columns (``index._knn_columns``) its ``knn_query``
    verifies best-first: the same query mapping, bounds and page cache."""
    row_ids, lower, tighteners, verifiers = index._knn_columns([query_obj])
    return storage_order_knn(lower[0], row_ids, k, verifiers[0], tighteners[0])


def _knn_series(index, workload, ks) -> list[dict]:
    """One row per k: the index's MkNNQ cost, and for a scanning table the
    paper-order cost beside it."""
    rows = []
    for k in ks:
        row = {"k": k, **_cost_columns(run_knn_queries(index, workload.queries, k))}
        if hasattr(index, "_knn_columns"):
            paper = _measure_each(
                index,
                KNN_CACHE_BYTES,
                lambda q: paper_order_knn(index, q, k),
                workload.queries,
            )
            row["Compdists (paper order)"] = round(paper.mean_compdists, 1)
            row["PA (paper order)"] = round(paper.mean_page_accesses, 1)
        rows.append(row)
    return rows


def exp_fig14_ept(
    workloads: dict[str, Workload],
    ks=(5, 10, 20, 50, 100),
    n_pivots: int = N_PIVOTS_DEFAULT,
) -> list[dict]:
    """Figure 14: EPT vs EPT* MkNNQ cost vs k."""
    rows = []
    for wl_name, workload in workloads.items():
        for index_name in ("EPT", "EPT*"):
            result = measure_build(index_name, workload, shared_pivots(workload, n_pivots))
            for row in _knn_series(result.index, workload, ks):
                rows.append({"Dataset": wl_name, "Index": index_name, **row})
    return rows


def exp_fig15_mindex(
    workloads: dict[str, Workload],
    ks=(5, 10, 20, 50, 100),
    n_pivots: int = N_PIVOTS_DEFAULT,
) -> list[dict]:
    """Figure 15: M-index vs M-index* MkNNQ cost vs k."""
    rows = []
    for wl_name, workload in workloads.items():
        pivots = shared_pivots(workload, n_pivots)
        for index_name in ("M-index", "M-index*"):
            result = measure_build(index_name, workload, pivots)
            for row in _knn_series(result.index, workload, ks):
                rows.append({"Dataset": wl_name, "Index": index_name, **row})
    return rows


def exp_fig16_range(
    workloads: dict[str, Workload],
    index_names,
    selectivities=(0.04, 0.08, 0.16, 0.32, 0.64),
    n_pivots: int = N_PIVOTS_DEFAULT,
    built: dict | None = None,
) -> list[dict]:
    """Figure 16: MRQ cost vs radius (as result selectivity) for all indexes."""
    rows = []
    for wl_name, workload in workloads.items():
        indexes = (built or {}).get(wl_name) or build_all(
            workload, index_names, n_pivots
        )
        for selectivity in selectivities:
            radius = workload.radius_for(selectivity)
            for index_name, result in indexes.items():
                cost = run_range_queries(result.index, workload.queries, radius)
                rows.append(
                    {
                        "Dataset": wl_name,
                        "Index": index_name,
                        "r (%)": int(selectivity * 100),
                        "Width": result.table_width,
                        **_cost_columns(cost),
                    }
                )
    return rows


def exp_fig17_knn(
    workloads: dict[str, Workload],
    index_names,
    ks=(5, 10, 20, 50, 100),
    n_pivots: int = N_PIVOTS_DEFAULT,
    built: dict | None = None,
) -> list[dict]:
    """Figure 17: MkNNQ cost vs k for all indexes."""
    rows = []
    for wl_name, workload in workloads.items():
        indexes = (built or {}).get(wl_name) or build_all(
            workload, index_names, n_pivots
        )
        for index_name, result in indexes.items():
            for row in _knn_series(result.index, workload, ks):
                rows.append(
                    {
                        "Dataset": wl_name,
                        "Index": index_name,
                        "Width": result.table_width,
                        **row,
                    }
                )
    return rows


def exp_fig18_pivots(
    workloads: dict[str, Workload],
    index_names,
    pivot_counts=(1, 3, 5, 7, 9),
    k: int = 20,
) -> list[dict]:
    """Figure 18: MkNNQ cost vs the number of pivots |P| (LA + Synthetic)."""
    rows = []
    for wl_name, workload in workloads.items():
        for n_pivots in pivot_counts:
            indexes = build_all(workload, index_names, n_pivots)
            for index_name, result in indexes.items():
                if index_name in ("M-index", "M-index*") and n_pivots < 2:
                    continue  # hyperplane partitioning needs >= 2 pivots
                cost = run_knn_queries(result.index, workload.queries, k)
                rows.append(
                    {
                        "Dataset": wl_name,
                        "Index": index_name,
                        "|P|": n_pivots,
                        "Width": result.table_width,
                        **_cost_columns(cost),
                    }
                )
    return rows


def exp_ablation_pivot_selection(
    workload: Workload,
    strategies=("random", "max_variance", "hf", "hfi"),
    n_pivots: int = N_PIVOTS_DEFAULT,
    selectivity: float = 0.16,
) -> list[dict]:
    """Ablation: how much the pivot selection strategy matters (Section 1).

    Runs LAESA (pure pivot filtering, no structural effects) under each
    strategy -- the paper's motivation for fixing HFI across the study.
    """
    rows = []
    radius = workload.radius_for(selectivity)
    for strategy in strategies:
        scratch = MetricSpace(workload.dataset)
        pivots = select_pivots(scratch, n_pivots, strategy=strategy, seed=0)
        space = workload.fresh_space()
        index = build_index("LAESA", space, pivots, workload_name=workload.name)
        cost = run_range_queries(index, workload.queries, radius)
        rows.append(
            {
                "Strategy": strategy,
                "Compdists": round(cost.mean_compdists, 1),
                "CPU (ms)": round(cost.mean_cpu_seconds * 1000, 2),
            }
        )
    return rows


def exp_ablation_mvpt_arity(
    workload: Workload,
    arities=(2, 3, 5, 9),
    n_pivots: int = N_PIVOTS_DEFAULT,
    k: int = 20,
) -> list[dict]:
    """Ablation: MVPT arity m (Section 4.3 -- pruning rises then falls)."""
    rows = []
    pivots = shared_pivots(workload, n_pivots)
    for arity in arities:
        space = workload.fresh_space()
        index = build_index(
            "MVPT", space, pivots, workload_name=workload.name, arity=arity
        )
        cost = run_knn_queries(index, workload.queries, k)
        rows.append(
            {
                "m": arity,
                "Compdists": round(cost.mean_compdists, 1),
                "CPU (ms)": round(cost.mean_cpu_seconds * 1000, 2),
            }
        )
    return rows


def exp_ablation_sfc(
    workload: Workload,
    n_pivots: int = N_PIVOTS_DEFAULT,
    selectivity: float = 0.16,
) -> list[dict]:
    """Ablation: SPB-tree with Hilbert vs Z-order keys (Section 5.4)."""
    rows = []
    pivots = shared_pivots(workload, n_pivots)
    radius = workload.radius_for(selectivity)
    for curve_name, curve_cls in (("Hilbert", HilbertCurve), ("Z-order", ZOrderCurve)):
        space = workload.fresh_space()
        index = build_index(
            "SPB-tree", space, pivots, workload_name=workload.name, curve_cls=curve_cls
        )
        range_cost = run_range_queries(index, workload.queries, radius)
        knn_cost = run_knn_queries(index, workload.queries, 20)
        rows.append(
            {
                "Curve": curve_name,
                "MRQ PA": round(range_cost.mean_page_accesses, 1),
                "kNN PA": round(knn_cost.mean_page_accesses, 1),
                "Compdists": round(range_cost.mean_compdists, 1),
            }
        )
    return rows


def default_workloads(
    n: int = 2000,
    color_n: int | None = None,
    n_queries: int = 10,
    names=("LA", "Words", "Color", "Synthetic"),
) -> dict[str, Workload]:
    """The paper's four workloads at a configurable scale."""
    out = {}
    for name in names:
        size = color_n if (name == "Color" and color_n) else n
        out[name] = make_workload(name, n=size, n_queries=n_queries)
    return out
