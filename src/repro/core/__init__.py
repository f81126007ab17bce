"""Core framework: metric spaces, datasets, pivots, filtering, queries."""

from .counters import CostCounters, CostSnapshot, Measurement, QueryStats
from .dataset import (
    DATASET_FACTORIES,
    Dataset,
    DatasetStats,
    dataset_statistics,
    make_color,
    load_dataset,
    make_la,
    make_synthetic,
    make_uniform,
    make_words,
    save_dataset,
)
from .distances import (
    DiscreteMetricAdapter,
    EditDistance,
    HammingDistance,
    L1,
    L2,
    LInf,
    LPDistance,
    MetricDistance,
    QuadraticFormDistance,
)
from .index import (
    MetricIndex,
    UnsupportedOperation,
    brute_force_knn,
    brute_force_knn_many,
    brute_force_range,
    brute_force_range_many,
)
from .mapping import PivotMapping
from .metric_space import MetricSpace
from .pivot_selection import hf, hfi, max_variance_pivots, psa, random_pivots, select_pivots
from .queries import KnnHeap, Neighbor
from .sharded import ShardedIndex

__all__ = [
    "CostCounters",
    "CostSnapshot",
    "Measurement",
    "QueryStats",
    "DATASET_FACTORIES",
    "Dataset",
    "DatasetStats",
    "dataset_statistics",
    "make_color",
    "make_la",
    "make_synthetic",
    "make_uniform",
    "make_words",
    "load_dataset",
    "save_dataset",
    "DiscreteMetricAdapter",
    "EditDistance",
    "HammingDistance",
    "L1",
    "L2",
    "LInf",
    "LPDistance",
    "MetricDistance",
    "QuadraticFormDistance",
    "MetricIndex",
    "UnsupportedOperation",
    "brute_force_knn",
    "brute_force_knn_many",
    "brute_force_range",
    "brute_force_range_many",
    "PivotMapping",
    "MetricSpace",
    "hf",
    "hfi",
    "max_variance_pivots",
    "psa",
    "random_pivots",
    "select_pivots",
    "KnnHeap",
    "Neighbor",
    "ShardedIndex",
]
