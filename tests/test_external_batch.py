"""External-category query paths: batch == sequential == brute force.

The external indexes (Omni family, M-index/M-index*, SPB-tree, PM-tree,
DEPT) have one body per query type and a view for the other entry point
(``repro.external.batch``): MRQ is one shared traversal with 2-D bounds and
page-grouped RAF fetches, MkNNQ the per-query best-first walk (or lockstep
rounds, or a scan) over a batch-scoped record cache.  These tests pin the
contract across three metric families -- Euclidean (continuous, unique
distances), Hamming (discrete, tie-heavy -- the hard case for canonical kNN
tie-breaking), and QuadraticForm (the expensive-distance representative):

* batch answers are bit-for-bit the sequential and brute-force answers for
  MRQ and MkNNQ;
* cost parity for the whole family: batch MRQ and MkNNQ perform exactly
  the sequential loop's counted distance computations, at ``q = 1`` too;
  the one-query calls cost what they cost before the bodies were merged
  (values pinned from that commit), the scans' MkNNQ what their best-first
  order costs; and the scans' paper-order MkNNQ (``repro.bench``) is the
  paper's per-object loop, computation for computation;
* the RAF-backed indexes read each touched page at most once per batch:
  batch page accesses undercut the sequential loop's, with the saved I/O
  visible as ``grouped_hits``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CostCounters,
    MetricSpace,
    brute_force_knn_many,
    brute_force_range_many,
    select_pivots,
)
from repro.core.dataset import Dataset
from repro.core.distances import (
    HammingDistance,
    L2,
    QuadraticFormDistance,
)
from repro.bench import paper_order_knn
from repro.core.queries import KnnHeap
from repro.core.mapping import PivotMapping
from repro.core.pivot_filter import lower_bound_many_queries
from repro.external.batch import expanding_radius_knn, key_run_slices
from repro.external import (
    DEPT,
    MIndex,
    MIndexStar,
    OmniBPlusTree,
    OmniRTree,
    OmniSequentialFile,
    PMTree,
    SPBTree,
)

N = 240
N_PIVOTS = 4
K = 7
BATCH = 12

EXTERNAL = (
    "Omni-seq",
    "OmniB+",
    "OmniR-tree",
    "M-index",
    "M-index*",
    "SPB-tree",
    "PM-tree",
    "DEPT",
)
# indexes that keep objects in a RandomAccessFile (PM-tree stores objects
# inside its nodes, so it has no RAF to group -- its batch win is reading
# each *node* once per batch instead)
RAF_BACKED = tuple(name for name in EXTERNAL if name != "PM-tree")
# the scans: MkNNQ verifies best-first from one bound matrix; the paper's
# storage order over the same columns is ``repro.bench.paper_order_knn``
SCANS = ("Omni-seq", "DEPT")

# distance computations of the 12 one-query calls, (euclidean, hamming,
# quadratic), measured at the commit before the sequential bodies became
# views: a view costs what the body it replaced cost.  The SPB-tree's moved
# when its grid became marks refining the uniform grid; on the uniform grid
# it read (466, 2850, 1331) here and (388, 1684, 1116) for MkNNQ.  They fell
# again when its grid went from 2^8 to 2^10 cells a pivot: on 2^8 marks they
# read (463, 2850, 1319) here and (382, 1679, 1112) for MkNNQ
PINNED_RANGE_COMPDISTS = {
    "Omni-seq": (456, 2894, 1307),
    "OmniB+": (456, 2894, 1307),
    "OmniR-tree": (456, 2894, 1307),
    "M-index": (456, 2894, 1307),
    "M-index*": (455, 2850, 1306),
    "SPB-tree": (456, 2850, 1308),
    "PM-tree": (618, 3230, 1331),
    "DEPT": (703, 2955, 1466),
}
# The scans' MkNNQ counts are their best-first order's since one-query
# calls became views of the batch body; as the paper's storage-order scan
# they read Omni-seq (875, 2482, 1536) and DEPT (1137, 2207, 1590); that
# scan is ``repro.bench.paper_order_knn`` now, and
# ``test_scan_knn_query_is_the_storage_order_loop`` holds it to the
# per-object loop.  The hamming column fell when candidates tied with the
# radius and an id above the k-th answer's stopped being verified
# (``KnnHeap.admits``); before: Omni-seq / OmniR-tree / SPB-tree 2077,
# M-index* 2209, PM-tree 2143, DEPT 1743.  OmniB+ and the M-index verify in
# expanding-radius rounds, which the rule does not reach.
PINNED_KNN_COMPDISTS = {
    "Omni-seq": (480, 1674, 1125),
    "OmniB+": (1064, 2297, 1790),
    "OmniR-tree": (377, 1665, 1103),
    "M-index": (1064, 2297, 1790),
    "M-index*": (581, 1802, 1221),
    "SPB-tree": (379, 1679, 1104),
    "PM-tree": (676, 1709, 1258),
    "DEPT": (744, 1376, 1205),
}

_BUILDERS = {
    "Omni-seq": lambda space, pivots: OmniSequentialFile.build(space, pivots),
    "OmniB+": lambda space, pivots: OmniBPlusTree.build(space, pivots),
    "OmniR-tree": lambda space, pivots: OmniRTree.build(space, pivots),
    "M-index": lambda space, pivots: MIndex.build(space, pivots, maxnum=64),
    "M-index*": lambda space, pivots: MIndexStar.build(space, pivots, maxnum=64),
    "SPB-tree": lambda space, pivots: SPBTree.build(space, pivots),
    "PM-tree": lambda space, pivots: PMTree.build(space, pivots, page_size=4096),
    "DEPT": lambda space, pivots: DEPT.build(
        space, n_pivots_per_object=len(pivots), seed=3
    ),
}


def _quadratic_form(dim: int, seed: int) -> QuadraticFormDistance:
    rng = np.random.default_rng(seed)
    basis = rng.normal(size=(dim, dim))
    return QuadraticFormDistance(basis @ basis.T + dim * np.eye(dim))


def _make_dataset(metric_name: str) -> Dataset:
    rng = np.random.default_rng(29)
    if metric_name == "euclidean":
        return Dataset(rng.normal(size=(N, 4)) * 50.0, L2, name="euclidean")
    if metric_name == "hamming":
        # tiny alphabet: distances collide constantly, so kNN boundaries
        # are decided by the canonical (distance, id) tie-breaking
        return Dataset(
            rng.integers(0, 3, size=(N, 8)), HammingDistance(), name="hamming"
        )
    if metric_name == "quadratic":
        return Dataset(
            rng.normal(size=(N, 6)) * 10.0, _quadratic_form(6, 31), name="quadratic"
        )
    raise ValueError(metric_name)


RADIUS = {"euclidean": 60.0, "hamming": 5.0, "quadratic": 60.0}
METRICS = ("euclidean", "hamming", "quadratic")


@pytest.fixture(scope="module")
def metric_datasets():
    return {name: _make_dataset(name) for name in METRICS}


@pytest.fixture(scope="module")
def built_externals(metric_datasets):
    cache: dict = {}

    def get(metric_name: str, index_name: str):
        key = (metric_name, index_name)
        if key not in cache:
            dataset = metric_datasets[metric_name]
            space = MetricSpace(dataset, CostCounters())
            pivots = select_pivots(
                MetricSpace(dataset), N_PIVOTS, strategy="hfi", seed=3
            )
            cache[key] = _BUILDERS[index_name](space, pivots)
        return cache[key]

    return get


def _queries(dataset) -> list:
    return [dataset[i] for i in range(BATCH)]


def _measure(index, run, cache_bytes=16 * 1024):
    """``run()`` from an identical cold pool of ``cache_bytes``: (answers, cost)."""
    pager = getattr(index, "pager", None) or index.mtree.pager
    counters = index.space.counters
    pager.set_cache_bytes(cache_bytes)
    before = counters.snapshot()
    answers = run()
    cost = counters.snapshot() - before
    pager.set_cache_bytes(0)
    return answers, cost


@pytest.mark.parametrize("index_name", EXTERNAL)
@pytest.mark.parametrize("metric_name", METRICS)
def test_batch_range_matches_sequential_and_brute_force(
    metric_datasets, built_externals, metric_name, index_name
):
    dataset = metric_datasets[metric_name]
    index = built_externals(metric_name, index_name)
    queries = _queries(dataset)
    radius = RADIUS[metric_name]

    sequential, seq_cost = _measure(
        index, lambda: [index.range_query(q, radius) for q in queries]
    )
    batch, batch_cost = _measure(index, lambda: index.range_query_many(queries, radius))
    singles, singles_cost = _measure(
        index, lambda: [index.range_query_many([q], radius)[0] for q in queries]
    )

    assert batch == sequential == singles
    assert batch == brute_force_range_many(MetricSpace(dataset), queries, radius)
    # batch MRQ must pay exactly the sequential loop's distance computations,
    # whatever the batch size: range_query is the q = 1 view of one body, and
    # the descent computes a (query, entry) distance only where that query's
    # own descent would
    assert batch_cost.distance_computations == seq_cost.distance_computations
    assert singles_cost.distance_computations == seq_cost.distance_computations
    pinned = PINNED_RANGE_COMPDISTS[index_name][METRICS.index(metric_name)]
    assert seq_cost.distance_computations == pinned


@pytest.mark.parametrize("index_name", EXTERNAL)
@pytest.mark.parametrize("metric_name", METRICS)
def test_batch_knn_matches_sequential_and_brute_force(
    metric_datasets, built_externals, metric_name, index_name
):
    dataset = metric_datasets[metric_name]
    index = built_externals(metric_name, index_name)
    queries = _queries(dataset)

    sequential, seq_cost = _measure(
        index, lambda: [index.knn_query(q, K) for q in queries]
    )
    batch, batch_cost = _measure(index, lambda: index.knn_query_many(queries, K))

    assert batch == sequential
    assert batch == brute_force_knn_many(MetricSpace(dataset), queries, K)
    # a batch is its queries' walks (or rounds, or verification orders):
    # the sum of their computations, not a shared frontier's
    assert batch_cost.distance_computations == seq_cost.distance_computations
    pinned = PINNED_KNN_COMPDISTS[index_name][METRICS.index(metric_name)]
    assert seq_cost.distance_computations == pinned
    # the batch-scoped record cache can only save reads
    assert batch_cost.page_accesses <= seq_cost.page_accesses, (batch_cost, seq_cost)
    if index_name in RAF_BACKED:
        assert batch_cost.grouped_hits > 0, batch_cost


def _storage_order_reference(index, lower_bounds, ids, query_obj, k):
    """The per-object MkNNQ scan the Omni sequential file and DEPT ran as
    their ``knn_query`` before the paper's order moved to ``repro.bench``:
    rows as stored, a row verified unless its bound exceeds the running
    k-th distance."""
    heap = KnnHeap(min(k, len(ids)))
    for object_id, bound in zip(ids, lower_bounds):
        if bound > heap.radius:
            continue
        _, obj = index.raf.read(object_id)
        heap.consider(object_id, index.space.d(query_obj, obj))
    return heap.neighbors()


@pytest.mark.parametrize("k", [1, K])
@pytest.mark.parametrize("index_name", SCANS)
@pytest.mark.parametrize("metric_name", METRICS)
def test_scan_knn_query_is_the_storage_order_loop(
    metric_datasets, built_externals, metric_name, index_name, k
):
    """The scans' paper-order MkNNQ (``repro.bench.paper_order_knn``, what
    Fig. 17 reports beside ``knn_query``): the paper's count, object for
    object."""
    dataset = metric_datasets[metric_name]
    index = built_externals(metric_name, index_name)
    counters = index.space.counters
    for q in _queries(dataset)[:4]:
        before = counters.snapshot()
        got = paper_order_knn(index, q, k)
        cost = (counters.snapshot() - before).distance_computations
        # the bound row costs the query-pivot distances once more; only the
        # verifications are compared
        before = counters.snapshot()
        if index_name == "DEPT":
            ids, lower = index._scan_bounds_many([q])
        else:
            ids, lower = index._scan_bounds_many(index.mapping.map_query_many([q]))
        mapping_cost = (counters.snapshot() - before).distance_computations
        before = counters.snapshot()
        want = _storage_order_reference(index, lower[0], ids, q, k)
        loop_cost = (counters.snapshot() - before).distance_computations
        assert got == want
        assert cost == mapping_cost + loop_cost


@pytest.mark.parametrize("index_name", RAF_BACKED)
def test_batch_range_groups_page_reads(metric_datasets, built_externals, index_name):
    """Each touched page is read at most once per batch (counter-asserted)."""
    dataset = metric_datasets["euclidean"]
    index = built_externals("euclidean", index_name)
    queries = _queries(dataset)
    radius = RADIUS["euclidean"]

    # a pool of two pages holds none of these indexes whole (the SPB-tree
    # fits in 16 KB), so a page the loop reads again shows as a page read
    pool = 8 * 1024
    sequential, seq_cost = _measure(
        index, lambda: [index.range_query(q, radius) for q in queries], pool
    )
    batch, batch_cost = _measure(
        index, lambda: index.range_query_many(queries, radius), pool
    )
    assert batch == sequential
    assert batch_cost.page_accesses < seq_cost.page_accesses, (
        index_name,
        batch_cost,
        seq_cost,
    )
    # the saved I/O must show up as grouped hits, not vanish
    assert batch_cost.grouped_hits > 0, (index_name, batch_cost)


def test_empty_batch_and_empty_results(metric_datasets, built_externals):
    dataset = metric_datasets["euclidean"]
    for index_name in EXTERNAL:
        index = built_externals("euclidean", index_name)
        assert index.range_query_many([], 10.0) == []
        assert index.knn_query_many([], K) == []
        far = dataset[0] + 1e7  # far outside the data: empty answers
        assert index.range_query_many([far, far], 1.0) == [[], []]


def test_key_run_slices_equal_one_scan_per_span():
    """The merged key-run scan yields each query what a scan of its span
    alone would, and scans each merged run once."""
    entries = [(1.0, 10), (2.0, 11), (2.0, 12), (3.0, 13), (5.0, 14), (5.0, 15),
               (6.0, 16), (7.0, 17), (9.0, 18), (9.0, 19), (12.0, 20)]
    calls = []

    def scan(lo, hi):
        calls.append((lo, hi))
        # id 15 is skipped, as a deleted entry is
        return ((key, i) for key, i in entries if lo <= key <= hi and i != 15)

    spans = {
        0: (2.0, 5.0),  # ties at both inclusive edges
        1: (3.0, 4.0),  # nested in 0
        2: (5.0, 7.0),  # touches 0 at 5.0
        3: (6.0, 9.0),  # overlaps 2, ties at its upper edge
        4: (11.0, 12.0),  # a run of its own
        5: (8.0, 7.5),  # empty
        6: (0.0, 1.0),  # tie at the upper edge of the first run
    }
    sliced = key_run_slices(spans, scan)
    assert calls == [(0.0, 1.0), (2.0, 9.0), (11.0, 12.0)]
    alone = {qi: [i for _, i in scan(lo, hi)] for qi, (lo, hi) in spans.items()}
    assert sliced == alone
    assert sliced[0] == [11, 12, 13, 14] and sliced[3] == [16, 17, 18, 19]


def test_expanding_radius_rounds_stop_once_every_object_is_verified(
    metric_datasets, built_externals
):
    """A query that has verified every live object stops, even while its
    k-th distance still exceeds the round's radius."""
    dataset = metric_datasets["euclidean"]
    index = built_externals("euclidean", "OmniB+")
    query, live = dataset[0], len(index.raf)
    qmat = index.mapping.map_query_many([query])
    # every object's Lemma 1 bound is within the first round's radius
    table = PivotMapping(MetricSpace(dataset), index.mapping.pivot_ids).build_table()
    radius = float(lower_bound_many_queries(qmat, table).max()) * (1 + 1e-9)
    radii = []

    def candidates_many(qmat, radius, active):
        radii.append(radius)
        return index._candidates_many(qmat, radius, active)

    answers = expanding_radius_knn(index, [query], live, radius, candidates_many)
    assert answers == brute_force_knn_many(MetricSpace(dataset), [query], live)
    assert answers[0][-1].distance > radius and radii == [radius]


def test_expanding_radius_rounds_read_records_in_page_order(metric_datasets, monkeypatch):
    """Each round reads a query's new candidates in page order, which on
    the M-index (records in cluster order) is not id order -- also after
    updates, which put each record back into its own slot."""
    dataset = metric_datasets["euclidean"]
    pivots = select_pivots(MetricSpace(dataset), N_PIVOTS, strategy="hfi", seed=3)
    index = MIndex.build(MetricSpace(dataset, CostCounters()), pivots)
    for object_id in range(0, 120, 3):
        index.delete(object_id)
        index.insert(dataset[object_id], object_id)
    rounds: list[list[int]] = []
    read_cached = index.raf.read_cached
    pages = index.pager.batch_reader()

    def spy(cache, object_id):
        rounds[-1].append(object_id)
        return read_cached(cache, object_id)

    def candidates_many(qmat, radius, active):
        rounds.append([])
        return index._candidates_many(qmat, radius, active, pages)

    monkeypatch.setattr(index.raf, "read_cached", spy)
    answers = expanding_radius_knn(index, [dataset[1]], 40, 1.0, candidates_many)
    assert answers == brute_force_knn_many(MetricSpace(dataset), [dataset[1]], 40)
    assert all(ids == index.raf.page_order(ids) for ids in rounds)
    assert any(ids != sorted(ids) for ids in rounds)


@pytest.mark.parametrize("index_name", ("M-index", "M-index*"))
def test_mindex_scans_skip_an_entry_without_a_live_record(metric_datasets, index_name):
    """A B+-tree entry whose record is tombstoned is never a candidate."""
    dataset = metric_datasets["euclidean"]
    pivots = select_pivots(MetricSpace(dataset), N_PIVOTS, strategy="hfi", seed=3)
    index = _BUILDERS[index_name](MetricSpace(dataset, CostCounters()), pivots)
    index.raf.mark_deleted(5)  # the B+-tree keeps its entry
    queries = [dataset[5], dataset[6]]
    radius = RADIUS["euclidean"]
    golden = brute_force_range_many(MetricSpace(dataset), queries, radius)
    assert index.range_query_many(queries, radius) == [
        [i for i in ids if i != 5] for ids in golden
    ]
    golden = brute_force_knn_many(MetricSpace(dataset), queries, K + 1)
    assert index.knn_query_many(queries, K) == [
        [n for n in neighbors if n.object_id != 5][:K] for neighbors in golden
    ]
