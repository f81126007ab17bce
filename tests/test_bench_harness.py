"""Benchmark harness: workloads, calibration, runner, reporting."""

from __future__ import annotations

import pytest

from repro import MetricSpace, brute_force_range
from repro.bench import (
    KNN_CACHE_BYTES,
    RANGE_CACHE_BYTES,
    calibrate_radius,
    format_markdown,
    format_ranking,
    format_table,
    human_bytes,
    make_workload,
    measure_build,
    run_knn_queries,
    run_range_queries,
    run_updates,
    sample_queries,
    set_cache,
    shared_pivots,
)


@pytest.fixture(scope="module")
def words_workload():
    return make_workload("Words", n=500, n_queries=4, selectivities=(0.16,))


@pytest.fixture(scope="module")
def words_pivots(words_workload):
    return shared_pivots(words_workload, 4, seed=1)


@pytest.fixture(scope="module")
def la_workload():
    return make_workload("LA", n=500, n_queries=6, selectivities=(0.16,))


class TestWorkloads:
    def test_make_workload_unknown(self):
        with pytest.raises(ValueError):
            make_workload("Nope")

    def test_queries_sampled_from_dataset(self, words_workload):
        members = set(words_workload.dataset.objects)
        assert all(q in members for q in words_workload.queries)

    def test_radius_calibration_hits_selectivity(self, words_workload):
        dataset = words_workload.dataset
        radius = words_workload.radius_for(0.16)
        space = MetricSpace(dataset)
        fractions = [
            len(brute_force_range(space, q, radius)) / len(dataset)
            for q in words_workload.queries
        ]
        mean = sum(fractions) / len(fractions)
        assert 0.02 < mean < 0.6  # rough but sane around 16%

    def test_calibrate_radius_validation(self, words_workload):
        with pytest.raises(ValueError):
            calibrate_radius(words_workload.dataset, 0.0)

    def test_sample_queries_deterministic(self, words_workload):
        a = sample_queries(words_workload.dataset, 5, seed=3)
        b = sample_queries(words_workload.dataset, 5, seed=3)
        assert a == b


class TestRunner:
    def test_measure_build_counts(self, words_workload, words_pivots):
        result = measure_build("LAESA", words_workload, words_pivots)
        # LAESA's build is exactly the pivot mapping: |P| * n computations
        assert result.compdists == 4 * 500
        assert result.memory_bytes > 0
        assert result.seconds >= 0

    def test_query_runs_average(self, words_workload, words_pivots):
        result = measure_build("SPB-tree", words_workload, words_pivots)
        radius = words_workload.radius_for(0.16)
        range_cost = run_range_queries(result.index, words_workload.queries, radius)
        assert range_cost.mean_compdists > 0
        assert range_cost.mean_page_accesses > 0
        knn_cost = run_knn_queries(result.index, words_workload.queries, 5)
        assert knn_cost.mean_compdists > 0

    def test_knn_cache_reduces_pa(self, words_workload, words_pivots):
        result = measure_build("SPB-tree", words_workload, words_pivots)
        cached = run_knn_queries(result.index, words_workload.queries, 5)
        uncached = run_knn_queries(
            result.index, words_workload.queries, 5, cache_bytes=0
        )
        assert cached.mean_page_accesses <= uncached.mean_page_accesses

    @pytest.mark.parametrize("index_name", ("LAESA", "MVPT", "SPB-tree"))
    @pytest.mark.parametrize("workload_name", ("words_workload", "la_workload"))
    def test_one_query_per_call_protocol(self, request, workload_name, index_name):
        """Section 6.1: a reported figure is the mean over queries answered
        one at a time -- never a batch's (which shares page reads between
        queries) -- from the buffer state the paper prescribes."""
        workload = request.getfixturevalue(workload_name)
        pivots = shared_pivots(workload, 4, seed=1)
        index = measure_build(index_name, workload, pivots).index
        counters = index.space.counters
        pager = getattr(index, "pager", None)
        assert (pager is not None) == (index_name == "SPB-tree")
        queries, radius, k = workload.queries, workload.radius_for(0.16), 5

        def one_query_loop(cache_bytes, one):
            set_cache(index, cache_bytes)  # the same cold pool the runner starts from
            before = counters.snapshot()
            for q in queries:
                one(q)
            return counters.snapshot() - before

        for cache_bytes, one, measured in (
            (
                RANGE_CACHE_BYTES,
                lambda q: index.range_query(q, radius),
                lambda: run_range_queries(index, queries, radius),
            ),
            (
                KNN_CACHE_BYTES,
                lambda q: index.knn_query(q, k),
                lambda: run_knn_queries(index, queries, k),
            ),
        ):
            want = one_query_loop(cache_bytes, one)
            got = measured()
            assert got.queries == len(queries)
            assert got.mean_compdists == want.distance_computations / len(queries)
            assert got.mean_page_accesses == want.page_accesses / len(queries)
            if pager is not None:
                assert pager.pool.capacity_bytes == 0

    def test_run_updates(self, words_workload, words_pivots):
        result = measure_build("MVPT", words_workload, words_pivots)
        cost = run_updates(result.index, [3, 8, 21])
        assert cost.mean_compdists > 0
        # the index still answers correctly afterwards
        q = words_workload.queries[0]
        space = MetricSpace(words_workload.dataset)
        assert result.index.range_query(q, 4.0) == brute_force_range(space, q, 4.0)


class TestReporting:
    ROWS = [
        {"Index": "A", "compdists": 120.0, "PA": 3.5},
        {"Index": "B", "compdists": 80.0, "PA": 12.0},
    ]

    def test_format_table(self):
        text = format_table(self.ROWS, title="T", first_column="Index")
        assert "T" in text and "compdists" in text
        lines = text.splitlines()
        assert lines[1].startswith("Index")

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="x")

    def test_format_markdown(self):
        md = format_markdown(self.ROWS, first_column="Index")
        assert md.startswith("| Index |")
        assert md.splitlines()[1] == "|---|---|---|"

    def test_format_ranking(self):
        line = format_ranking({"A": 10.0, "B": 2.0}, "PA")
        assert line.startswith("PA: 1. B")

    def test_human_bytes(self):
        assert human_bytes(512) == "512 B"
        assert human_bytes(2048) == "2.0 KB"
        assert human_bytes(3 * 1024 * 1024) == "3.0 MB"
