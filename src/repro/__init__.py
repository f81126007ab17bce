"""repro: pivot-based metric indexing.

A faithful, pure-Python reproduction of

    Lu Chen, Yunjun Gao, Baihua Zheng, Christian S. Jensen, Hanyu Yang,
    Keyu Yang: "Pivot-based Metric Indexing", PVLDB 10(10), 2017.

The package implements every index of the study on shared substrates:

* **tables** -- AESA, LAESA, EPT, EPT* (the paper's improved extreme pivot
  table), CPT;
* **trees** -- BKT, FQT, FQA, VPT, MVPT;
* **external** -- PM-tree, Omni-family (sequential / B+ / R-tree), M-index,
  M-index* (the paper's MBB-augmented M-index), SPB-tree;
* **substrates** -- counted metric spaces, pivot selection (HF/HFI/PSA),
  simulated paged disk with an LRU buffer pool, B+-tree, R-tree, M-tree,
  Hilbert/Z-order curves.

Quick start::

    from repro import make_words, MetricSpace, select_pivots
    from repro.trees import MVPT

    dataset = make_words(10_000)
    space = MetricSpace(dataset)
    pivots = select_pivots(space, 5, strategy="hfi")
    index = MVPT.build(space, pivots)
    hits = index.range_query("defoliate", radius=1)
    nearest = index.knn_query("defoliate", k=2)
"""

from .core import (
    CostCounters,
    CostSnapshot,
    DATASET_FACTORIES,
    Dataset,
    DatasetStats,
    DiscreteMetricAdapter,
    EditDistance,
    HammingDistance,
    KnnHeap,
    L1,
    L2,
    LInf,
    LPDistance,
    Measurement,
    MetricDistance,
    MetricIndex,
    MetricSpace,
    Neighbor,
    PivotMapping,
    QuadraticFormDistance,
    QueryStats,
    UnsupportedOperation,
    ShardedIndex,
    brute_force_knn,
    brute_force_knn_many,
    brute_force_range,
    brute_force_range_many,
    dataset_statistics,
    hf,
    hfi,
    make_color,
    make_la,
    make_synthetic,
    make_uniform,
    make_words,
    max_variance_pivots,
    psa,
    random_pivots,
    select_pivots,
)
from .external import (
    DEPT,
    MIndex,
    MIndexStar,
    MTreeIndex,
    OmniBPlusTree,
    OmniRTree,
    OmniSequentialFile,
    PMTree,
    SPBTree,
)
from .obs import MetricsRegistry
from .service import (
    ClusterIndex,
    ClusterSupervisor,
    HttpQueryServer,
    IndexCatalog,
    MicroBatchDispatcher,
    QueryPlanner,
    QueryResultCache,
    QueryService,
    ServiceClient,
    ServiceClientError,
    SnapshotError,
    SnapshotInfo,
    load_index,
    save_index,
    snapshot_info,
)
from .tables import AESA, CPT, EPT, EPTStar, LAESA
from .trees import BKT, FQA, FQT, MVPT, VPT

__version__ = "1.0.0"

ALL_INDEXES = {
    "AESA": AESA,
    "LAESA": LAESA,
    "EPT": EPT,
    "EPT*": EPTStar,
    "CPT": CPT,
    "BKT": BKT,
    "FQT": FQT,
    "FQA": FQA,
    "VPT": VPT,
    "MVPT": MVPT,
    "PM-tree": PMTree,
    "Omni-seq": OmniSequentialFile,
    "OmniB+": OmniBPlusTree,
    "OmniR-tree": OmniRTree,
    "M-index": MIndex,
    "M-index*": MIndexStar,
    "SPB-tree": SPBTree,
    "DEPT": DEPT,
    "M-tree": MTreeIndex,
}

__all__ = [
    "ALL_INDEXES",
    "AESA",
    "BKT",
    "CPT",
    "CostCounters",
    "CostSnapshot",
    "DATASET_FACTORIES",
    "Dataset",
    "DatasetStats",
    "DEPT",
    "DiscreteMetricAdapter",
    "EPT",
    "EPTStar",
    "EditDistance",
    "FQA",
    "FQT",
    "HammingDistance",
    "KnnHeap",
    "L1",
    "L2",
    "LAESA",
    "LInf",
    "LPDistance",
    "MIndex",
    "MIndexStar",
    "MTreeIndex",
    "MVPT",
    "Measurement",
    "MetricDistance",
    "MetricIndex",
    "ClusterIndex",
    "ClusterSupervisor",
    "HttpQueryServer",
    "IndexCatalog",
    "MetricSpace",
    "MetricsRegistry",
    "MicroBatchDispatcher",
    "QueryPlanner",
    "Neighbor",
    "OmniBPlusTree",
    "OmniRTree",
    "OmniSequentialFile",
    "PMTree",
    "PivotMapping",
    "QuadraticFormDistance",
    "QueryResultCache",
    "QueryService",
    "QueryStats",
    "SPBTree",
    "ServiceClient",
    "ServiceClientError",
    "ShardedIndex",
    "SnapshotError",
    "SnapshotInfo",
    "UnsupportedOperation",
    "VPT",
    "brute_force_knn",
    "brute_force_knn_many",
    "brute_force_range",
    "brute_force_range_many",
    "dataset_statistics",
    "hf",
    "hfi",
    "load_index",
    "make_color",
    "make_la",
    "make_synthetic",
    "make_uniform",
    "make_words",
    "max_variance_pivots",
    "psa",
    "random_pivots",
    "save_index",
    "select_pivots",
    "snapshot_info",
]
