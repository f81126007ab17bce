"""Tables 6 + 7: update (delete + reinsert) costs and rankings.

Paper shapes (Section 6.3): trees (BKT/FQT/MVPT) cheapest in time;
EPT/EPT* costliest in compdists (per-object pivot selection); LAESA pays a
sequential scan but few computations; SPB-tree / M-index* cheap on PA.
"""

from __future__ import annotations

import pytest

from repro.bench import (
    DEFAULT_INDEX_NAMES,
    build_all,
    exp_table7_ranking,
    format_ranking,
    format_table,
    run_updates,
)

from _bench_common import N_QUERIES, emit, workloads  # noqa: F401  (fixtures)

N_UPDATES = max(10, N_QUERIES)


@pytest.fixture(scope="module")
def updated_indexes(workloads):
    """Indexes of this module's own, not the session's ``built_indexes``: a
    re-insert no longer moves a table row or a RAF record (each goes back
    where its delete left it), but EPT* may choose an object's pivots
    again and append its row, and the trees' nodes split and merge, so
    updating the shared indexes could still change the storage -- and so
    the paper-order counts -- of a bench that runs later in the session."""
    return {
        wl_name: build_all(workloads[wl_name], DEFAULT_INDEX_NAMES)
        for wl_name in ("LA", "Words")
    }


@pytest.fixture(scope="module")
def table6(updated_indexes):
    rows = []
    for wl_name, indexes in updated_indexes.items():
        victims = list(range(10, 10 + N_UPDATES))
        for index_name, result in indexes.items():
            held = result.index.storage_bytes()
            cost = run_updates(result.index, victims)
            # a put-back takes its own RAF slot or table row back: the RAF
            # indexes and LAESA store what they stored; CPT's table does
            # (its M-tree may split a node)
            if index_name in ("SPB-tree", "M-index*", "OmniR-tree", "LAESA"):
                assert result.index.storage_bytes() == held, (wl_name, index_name)
            if index_name == "CPT":
                assert result.index.storage_bytes()["memory"] == held["memory"], wl_name
            rows.append(
                {
                    "Dataset": wl_name,
                    "Index": index_name,
                    "PA": round(cost.mean_page_accesses, 1),
                    "Compdists": round(cost.mean_compdists, 1),
                    "Time (ms)": round(cost.mean_cpu_seconds * 1000, 3),
                }
            )
    return rows


def test_table6_update_costs(table6, benchmark, updated_indexes):
    emit(
        "table6_updates",
        format_table(table6, title="Table 6: update costs", first_column="Dataset"),
    )
    by_key = {(r["Dataset"], r["Index"]): r for r in table6}
    for wl_name in ("LA", "Words"):
        # EPT(*) update compdists dominate everyone else's (paper Table 6)
        assert (
            by_key[(wl_name, "EPT*")]["Compdists"]
            > by_key[(wl_name, "MVPT")]["Compdists"]
        )
        # LAESA deletes by scan: few computations
        assert by_key[(wl_name, "LAESA")]["Compdists"] <= 2 * 5 + 1
    index = updated_indexes["Words"]["MVPT"].index
    benchmark.pedantic(
        lambda: run_updates(index, [40, 41, 42]), rounds=3, iterations=1
    )


def test_table7_update_ranking(table6, benchmark):
    metrics = exp_table7_ranking(table6)
    # normalise key names for the ranking helper
    lines = []
    for metric, scores in metrics.items():
        if scores:
            lines.append(format_ranking(scores, metric))
    emit("table7_ranking", "Table 7: update-cost ranking\n" + "\n".join(lines))
    benchmark.pedantic(lambda: exp_table7_ranking(table6), rounds=3, iterations=1)
