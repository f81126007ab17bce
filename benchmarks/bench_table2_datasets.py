"""Table 2: statistics of the (substituted) datasets.

Paper reference values: LA (n=1,073,727, dim 2, int.dim 5.4, MaxD 14000,
L2), Words (611,756, 1~34, 1.2, 34, edit), Color (1,000,000, 282, 6.5,
100000, L1), Synthetic (1,000,000, 20, 6.6, 10000, Linf).  Our substitutes
match dimensionality, distance domain and (except LA, whose 2-d L2 points
cap it near 2) are close on intrinsic dimension; cardinality is scaled down.
"""

from __future__ import annotations

from repro.bench import exp_table2_datasets, format_table
from repro.core.dataset import dataset_statistics

from _bench_common import built_indexes, emit, workloads  # noqa: F401  (fixtures)


def test_table2_dataset_statistics(workloads, benchmark):
    rows = exp_table2_datasets(workloads)
    emit(
        "table2_datasets",
        format_table(rows, title="Table 2: dataset statistics", first_column="Dataset"),
    )
    # sanity: the shape facts the paper relies on
    by_name = {row["Dataset"]: row for row in rows}
    assert by_name["Color"]["Dim."] == "282"
    assert by_name["Synthetic"]["Dis. Measure"] == "Linf"
    assert float(by_name["Words"]["Int. Dim."]) < float(
        by_name["Synthetic"]["Int. Dim."]
    )
    benchmark(dataset_statistics, workloads["LA"].dataset, 5000)
