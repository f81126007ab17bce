"""Tree traversals: batch == sequential == brute force, in answers and cost.

The engine (``repro.trees.common.FrontierTreeMixin``) answers an MRQ batch
in one frontier descent and an MkNNQ batch as the per-query walk, query
after query; these tests pin its exactness and its compdists for every
tree index across three metric families -- Euclidean (continuous,
unique distances), Hamming (discrete, tie-heavy -- the hard case for
canonical kNN tie-breaking), and QuadraticForm (the expensive-distance
representative) -- plus sharded fan-out, and the leaf-grouped paging
contract of CPT's batch verification.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import (
    CostCounters,
    MetricSpace,
    ShardedIndex,
    brute_force_knn_many,
    brute_force_range_many,
    select_pivots,
)
from repro.core.dataset import Dataset
from repro.core.distances import (
    DiscreteMetricAdapter,
    HammingDistance,
    L2,
    QuadraticFormDistance,
)
from repro.external import MIndexStar, OmniBPlusTree, SPBTree
from repro.storage import pager as pager_module
from repro.storage.pager import Pager
from repro.tables import CPT
from repro.trees import BKT, FQA, FQT, MVPT, VPT
from repro.trees.common import FrontierTreeMixin

N = 240
N_PIVOTS = 4


def _quadratic_form(dim: int, seed: int) -> QuadraticFormDistance:
    rng = np.random.default_rng(seed)
    basis = rng.normal(size=(dim, dim))
    return QuadraticFormDistance(basis @ basis.T + dim * np.eye(dim))


def _make_dataset(metric_name: str) -> Dataset:
    rng = np.random.default_rng(17)
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
            rng.normal(size=(N, 6)) * 10.0, _quadratic_form(6, 23), name="quadratic"
        )
    raise ValueError(metric_name)


# a radius with moderate selectivity per metric family
RADIUS = {"euclidean": 60.0, "hamming": 5.0, "quadratic": 60.0}
METRICS = ("euclidean", "hamming", "quadratic")
TREES = ("VPT", "MVPT", "BKT", "FQT", "FQA")
DISCRETE_ONLY = ("BKT", "FQT", "FQA")
# build distance computations per metric, in TREES order
BUILD_COMPDISTS = {
    "euclidean": (960, 720, 421, 670, 960),
    "hamming": (929, 752, 517, 885, 960),
    "quadratic": (960, 720, 419, 677, 960),
}


@pytest.fixture(scope="module")
def metric_datasets():
    out = {}
    for name in METRICS:
        dataset = _make_dataset(name)
        if name != "hamming":
            # the discrete-only trees run on the ceiled metric (the module's
            # documented route for continuous distances)
            out[name] = (
                dataset,
                Dataset(
                    dataset.objects,
                    DiscreteMetricAdapter(dataset.distance),
                    name=f"{name}-ceil",
                ),
            )
        else:
            out[name] = (dataset, dataset)
    return out


def _build_tree(tree_name: str, dataset: Dataset):
    space = MetricSpace(dataset, CostCounters())
    pivots = select_pivots(MetricSpace(dataset), N_PIVOTS, strategy="hfi", seed=3)
    if tree_name == "VPT":
        return VPT.build(space, pivots)
    if tree_name == "MVPT":
        return MVPT.build(space, pivots, arity=3)
    if tree_name == "BKT":
        return BKT.build(space, seed=5)
    if tree_name == "FQT":
        return FQT.build(space, pivots)
    if tree_name == "FQA":
        return FQA.build(space, pivots)
    raise ValueError(tree_name)


@pytest.fixture(scope="module")
def built_trees(metric_datasets):
    cache: dict = {}

    def get(metric_name: str, tree_name: str):
        key = (metric_name, tree_name)
        if key not in cache:
            continuous, discrete = metric_datasets[metric_name]
            dataset = discrete if tree_name in DISCRETE_ONLY else continuous
            cache[key] = (_build_tree(tree_name, dataset), dataset)
        return cache[key]

    return get


def _queries(dataset: Dataset) -> list:
    # members (exact-zero distances and their ties) plus a foreign blend
    blend = np.asarray(dataset[0]) * 0.5 + np.asarray(dataset[1]) * 0.5
    if dataset.distance.is_discrete:
        blend = np.rint(blend)
    return [dataset[3], dataset[len(dataset) // 2], blend]


@pytest.mark.parametrize("metric_name", METRICS)
@pytest.mark.parametrize("tree_name", TREES)
class TestTreeBatchEquality:
    def test_range(self, built_trees, metric_name, tree_name):
        index, dataset = built_trees(metric_name, tree_name)
        queries = _queries(dataset)
        radius = RADIUS[metric_name]
        batch = index.range_query_many(queries, radius)
        sequential = [index.range_query(q, radius) for q in queries]
        golden = brute_force_range_many(MetricSpace(dataset), queries, radius)
        assert batch == sequential == golden, f"{tree_name} on {metric_name}"

    def test_knn_with_ties(self, built_trees, metric_name, tree_name):
        index, dataset = built_trees(metric_name, tree_name)
        queries = _queries(dataset)
        for k in (1, 7, 25):
            batch = index.knn_query_many(queries, k)
            sequential = [index.knn_query(q, k) for q in queries]
            golden = brute_force_knn_many(MetricSpace(dataset), queries, k)
            assert batch == sequential == golden, (
                f"{tree_name} on {metric_name}, k={k}"
            )

    def test_batch_compdists_match_sequential_range(
        self, built_trees, metric_name, tree_name
    ):
        """The frontier engine amortises calls, never hides or adds work."""
        index, dataset = built_trees(metric_name, tree_name)
        queries = _queries(dataset)
        radius = RADIUS[metric_name]
        counters = index.space.counters
        counters.reset()
        for q in queries:
            index.range_query(q, radius)
        sequential = counters.distance_computations
        counters.reset()
        index.range_query_many(queries, radius)
        assert counters.distance_computations == sequential


    @pytest.mark.parametrize("k", [1, 10])
    def test_batch_compdists_match_sequential_knn(
        self, built_trees, metric_name, tree_name, k
    ):
        """``knn_query_many`` is the per-query walk, query after query.

        The frontier the batch used to share cut off at the largest radius
        among its heaps, so every query's own radius tightened late and the
        batch computed more distances than the loop it stood for.
        """
        index, dataset = built_trees(metric_name, tree_name)
        queries = _queries(dataset)
        counters = index.space.counters
        counters.reset()
        sequential = [index.knn_query(q, k) for q in queries]
        cost = counters.distance_computations
        counters.reset()
        assert index.knn_query_many(queries, k) == sequential
        assert counters.distance_computations == cost

    def test_build_compdists(self, metric_datasets, metric_name, tree_name):
        """One counted distance per object per level it is split on: the
        counts of the recursive per-node build (recorded at its last commit)."""
        continuous, discrete = metric_datasets[metric_name]
        dataset = discrete if tree_name in DISCRETE_ONLY else continuous
        index = _build_tree(tree_name, dataset)
        assert (
            index.space.counters.distance_computations
            == BUILD_COMPDISTS[metric_name][TREES.index(tree_name)]
        )


@pytest.mark.parametrize("metric_name", METRICS)
@pytest.mark.parametrize("tree_name", ["VPT", "MVPT"])
def test_leaf_filter_only_removes_work(built_trees, metric_name, tree_name):
    """With the leaf filter's object bounds replaced by their leaf's bound
    (every reached id kept) the same walk verifies a superset, query for
    query."""
    index, dataset = built_trees(metric_name, tree_name)

    class Unfiltered(type(index)):
        _leaf_bounds = FrontierTreeMixin._leaf_bounds

    unfiltered = copy.copy(index)
    unfiltered.__class__ = Unfiltered
    counters = index.space.counters
    radius = RADIUS[metric_name]
    saved = 0
    for q in _queries(dataset) + [dataset[i] for i in range(0, N, 40)]:
        for ask in (
            lambda tree: tree.range_query(q, radius),
            lambda tree: tree.knn_query(q, 1),
            lambda tree: tree.knn_query(q, 10),
        ):
            counters.reset()
            want = ask(unfiltered)
            whole = counters.distance_computations
            counters.reset()
            assert ask(index) == want
            assert counters.distance_computations <= whole
            saved += whole - counters.distance_computations
    assert saved > 0


@pytest.mark.parametrize("tree_name", TREES)
def test_knn_deferred_leaf_verification_large_batch(built_trees, tree_name):
    """Many divergent queries exercise the deferred leaf verification.

    MkNNQ leaf verification is deferred across consecutive leaf pops and
    done in one leaf-filter pass and one ``d_many`` call when the next
    internal node arrives.  A stale radius may only admit *extra*
    candidates -- every admitted candidate still fights the canonical
    (distance, id) heap -- so the answers of the batch view and of the
    one-query view must agree bit for bit.
    """
    metric_name = "hamming" if tree_name in DISCRETE_ONLY else "euclidean"
    index, dataset = built_trees(metric_name, tree_name)
    rng = np.random.default_rng(5)
    picks = rng.choice(len(dataset), size=40, replace=False)
    queries = [dataset[int(i)] for i in picks]
    for k in (2, 9):
        batch = index.knn_query_many(queries, k)
        sequential = [index.knn_query(q, k) for q in queries]
        assert batch == sequential, f"{tree_name} k={k}"


@pytest.mark.parametrize("metric_name", METRICS)
def test_tree_batch_across_shard_fanout(metric_datasets, metric_name):
    """Sharded fan-out over tree shards: merged batch answers stay golden."""
    dataset, _ = metric_datasets[metric_name]

    def build_shard(space: MetricSpace):
        pivots = select_pivots(
            MetricSpace(space.dataset), N_PIVOTS, strategy="hfi", seed=3
        )
        return MVPT.build(space, pivots, arity=3)

    space = MetricSpace(dataset, CostCounters())
    sharded = ShardedIndex.build(space, build_shard, n_shards=3, seed=1)
    queries = _queries(dataset)
    radius = RADIUS[metric_name]
    golden_range = brute_force_range_many(MetricSpace(dataset), queries, radius)
    assert sharded.range_query_many(queries, radius) == golden_range
    for k in (1, 9):
        golden_knn = brute_force_knn_many(MetricSpace(dataset), queries, k)
        assert sharded.knn_query_many(queries, k) == golden_knn


PAGED = {"SPB-tree": SPBTree, "M-index*": MIndexStar, "OmniB+": OmniBPlusTree}


class TestCptLeafGroupedPaging:
    """CPT's batch verification reads each touched leaf once per batch (and
    the RAF-backed indexes share its chunked, page-ordered fetch)."""

    @pytest.fixture(scope="class")
    def cpt(self):
        dataset = _make_dataset("euclidean")
        space = MetricSpace(dataset, CostCounters())
        pivots = select_pivots(MetricSpace(dataset), N_PIVOTS, strategy="hfi", seed=3)
        # small pages -> several objects per leaf, many leaves; cache stays
        # 0 so every pager read is a counted cold read
        return CPT.build(space, pivots, pager=Pager(page_size=1024, counters=space.counters))

    def test_grouped_reads_do_not_exceed_sequential(self, cpt):
        dataset = cpt.space.dataset
        # a shared-leaf batch: close-by members whose candidate balls overlap
        queries = [dataset[5], dataset[5], dataset[6], dataset[7]]
        radius = RADIUS["euclidean"]
        counters = cpt.space.counters
        counters.reset()
        sequential = [cpt.range_query(q, radius) for q in queries]
        seq = counters.snapshot()
        counters.reset()
        batch = cpt.range_query_many(queries, radius)
        grouped = counters.snapshot()
        assert batch == sequential
        assert grouped.page_reads <= seq.page_reads
        # identical queries share every leaf, so grouping must actually bite
        assert grouped.page_reads < seq.page_reads
        assert grouped.grouped_hits > 0
        # compdists are untouched by the paging change
        assert grouped.distance_computations == seq.distance_computations

    def test_knn_batch_grouped_fetches(self, cpt):
        dataset = cpt.space.dataset
        queries = [dataset[10], dataset[11]]
        counters = cpt.space.counters
        counters.reset()
        sequential = [cpt.knn_query(q, 6) for q in queries]
        seq = counters.snapshot()
        counters.reset()
        batch = cpt.knn_query_many(queries, 6)
        grouped = counters.snapshot()
        assert batch == sequential
        assert grouped.grouped_hits > 0
        assert grouped.page_reads <= seq.page_reads

    @pytest.mark.parametrize("name", ("CPT", "SPB-tree", "M-index*", "OmniB+"))
    def test_chunked_fetch_stays_exact(self, cpt, name, monkeypatch):
        """Tiny fetch chunks (bounded memory) change I/O, never answers or
        compdists; in page order a page is read again only where a chunk
        boundary splits its candidates."""
        if name == "CPT":
            index, owner, method = cpt, cpt.mtree, "fetch_objects_many"
        else:
            space = MetricSpace(cpt.space.dataset, CostCounters())
            index = PAGED[name].build(space, cpt.mapping.pivot_ids, page_size=1024)
            owner, method = index.raf, "read_many"
        chunks: list[int] = []
        fetched: list[int] = []
        fetch = getattr(owner, method)

        def spy(ids):
            chunks.append(len(ids))
            fetched.extend(ids)
            return fetch(ids)

        monkeypatch.setattr(owner, method, spy)
        dataset = index.space.dataset
        # the repeated query shares every candidate: each is fetched once
        queries = [dataset[5], dataset[120], dataset[200], dataset[5]]
        radius = RADIUS["euclidean"]
        counters = index.space.counters
        counters.reset()
        expected = index.range_query_many(queries, radius)
        whole = counters.snapshot()
        assert len(chunks) == 1
        monkeypatch.setattr(pager_module, "FETCH_CHUNK", 5)
        chunks.clear()
        fetched.clear()
        counters.reset()
        assert index.range_query_many(queries, radius) == expected
        small = counters.snapshot()
        assert small.distance_computations == whole.distance_computations
        assert len(chunks) > 2 and max(chunks) == 5
        assert len(fetched) == len(set(fetched))
        assert whole.page_reads <= small.page_reads <= whole.page_reads + len(chunks) - 1

    def test_fetch_objects_many_matches_singles(self, cpt):
        ids = [3, 50, 3, 121, 50]
        many = cpt.mtree.fetch_objects_many(ids)
        singles = [cpt.mtree.fetch_object(i) for i in ids]
        for a, b in zip(many, singles):
            assert np.array_equal(a, b)
        with pytest.raises(KeyError):
            cpt.mtree.fetch_objects_many([3, 10_000])


class TestPagerCounters:
    """page_reads counts cold I/O; buffer and grouped hits are separate."""

    def test_buffer_hit_counted_separately(self):
        counters = CostCounters()
        pager = Pager(page_size=4096, counters=counters, cache_bytes=64 * 1024)
        page = pager.allocate()
        pager.write(page, {"payload": list(range(10))})
        pager.flush()
        counters.reset()
        pager.read(page)  # served by the pool: no cold read
        assert counters.page_reads == 0
        assert counters.buffer_hits == 1
        pager.set_cache_bytes(0)
        counters.reset()
        pager.read(page)  # pool disabled: a real page access
        assert counters.page_reads == 1
        assert counters.buffer_hits == 0

    def test_read_many_counts_grouped_hits(self):
        counters = CostCounters()
        pager = Pager(page_size=4096, counters=counters)
        pages = [pager.allocate() for _ in range(3)]
        for page in pages:
            pager.write(page, ("node", page))
        counters.reset()
        nodes = pager.read_many([pages[0], pages[1], pages[0], pages[0], pages[2]])
        assert set(nodes) == set(pages)
        assert counters.page_reads == 3  # one cold read per distinct page
        assert counters.grouped_hits == 2  # the repeats rode along
