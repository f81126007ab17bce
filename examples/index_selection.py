#!/usr/bin/env python3
"""Which index should I use?  The paper's Section 7 guidance, measured live.

The study's conclusions, paraphrased:

* small dataset + expensive distance function  -> EPT* (fewest compdists);
* small dataset + cheap distance function      -> MVPT (lowest CPU);
* large / disk-resident dataset                -> SPB-tree or M-index*.

This example builds the recommended candidates (plus LAESA as the baseline)
on a workload you choose, measures exactly the paper's three metrics, and
prints the recommendation that the measurements support.

Run:  python examples/index_selection.py [LA|Words|Color|Synthetic]
"""

from __future__ import annotations

import sys

from repro.bench import (
    format_table,
    make_workload,
    measure_build,
    run_knn_queries,
    shared_pivots,
)

CANDIDATES = ("LAESA", "EPT*", "MVPT", "OmniR-tree", "M-index*", "SPB-tree")


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "Words"
    workload = make_workload(name, n=4000, n_queries=10)
    pivots = shared_pivots(workload, 5)
    print(f"workload: {workload.name} (n={len(workload.dataset)}), MkNNQ k=20\n")

    rows = []
    measured = {}
    for index_name in CANDIDATES:
        build = measure_build(index_name, workload, pivots)
        cost = run_knn_queries(build.index, workload.queries, k=20)
        measured[index_name] = cost
        rows.append(
            {
                "Index": index_name,
                "Build comp": build.compdists,
                "Build s": round(build.seconds, 2),
                "kNN comp": round(cost.mean_compdists, 1),
                "kNN PA": round(cost.mean_page_accesses, 1),
                "kNN ms": round(cost.mean_cpu_seconds * 1000, 2),
                "Where": "disk" if build.index.is_disk_based else "memory",
            }
        )
    print(format_table(rows, first_column="Index"))

    fewest_comp = min(measured, key=lambda n: measured[n].mean_compdists)
    fastest = min(measured, key=lambda n: measured[n].mean_cpu_seconds)
    disk_best = min(
        (n for n, r in zip(CANDIDATES, rows) if r["Where"] == "disk"),
        key=lambda n: measured[n].mean_page_accesses,
    )
    print(
        f"\nmeasured guidance for {workload.name}:"
        f"\n  expensive distance function (minimise compdists) -> {fewest_comp}"
        f"\n  cheap distance function (minimise CPU)           -> {fastest}"
        f"\n  dataset exceeds memory (minimise PA)             -> {disk_best}"
        "\n\npaper's Section 7: EPT* for small data + costly metrics, MVPT for"
        "\nsmall data + cheap metrics, SPB-tree / M-index* for large data."
    )


if __name__ == "__main__":
    main()
