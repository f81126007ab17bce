"""Detailed behaviour of the pivot-based tables (paper Section 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AESA,
    CPT,
    CostCounters,
    EPT,
    EPTStar,
    LAESA,
    MetricSpace,
    brute_force_knn,
    brute_force_range,
    make_la,
    make_words,
    select_pivots,
)

from conftest import lemma1_baseline


@pytest.fixture(scope="module")
def la():
    return make_la(400, seed=61)


@pytest.fixture(scope="module")
def la_pivots(la):
    return select_pivots(MetricSpace(la), 4, strategy="hfi", seed=1)


class TestAESADetail:
    def test_table_is_symmetric_with_zero_diagonal(self, la):
        index = AESA.build(MetricSpace(la, CostCounters()))
        assert np.allclose(index.table, index.table.T)
        assert np.allclose(np.diag(index.table), 0.0)

    def test_build_cost_is_half_matrix(self, la):
        counters = CostCounters()
        AESA.build(MetricSpace(la, counters))
        n = len(la)
        assert counters.distance_computations == n * (n - 1) // 2

    def test_query_compdists_sublinear(self, la):
        index = AESA.build(MetricSpace(la, CostCounters()))
        counters = index.space.counters
        counters.reset()
        index.knn_query(la[7], 5)
        # AESA's claim to fame: near-constant distance computations
        assert counters.distance_computations < len(la) / 4

    def test_storage_quadratic(self, la):
        index = AESA.build(MetricSpace(la, CostCounters()))
        assert index.storage_bytes()["memory"] >= 8 * len(la) ** 2


class TestLAESADetail:
    def test_range_compdists_is_pivots_plus_survivors(self, la, la_pivots):
        """The exact accounting the paper's cost model uses.

        Searched with the build's Lemma 1 baseline (its pruner without
        pivot pairs) so the survivor count is exactly Lemma 1's -- on L2
        the Ptolemaic stage may (provably) prune more, which is asserted
        separately below.
        """
        index = lemma1_baseline(
            LAESA.build(MetricSpace(la, CostCounters()), la_pivots)
        )
        counters = index.space.counters
        q = la[9]
        radius = 500.0
        counters.reset()
        result = index.range_query(q, radius)
        # recompute survivors independently
        from repro.core.pivot_filter import lower_bound_many_queries

        qd = np.asarray([la.distance(q, la[p]) for p in la_pivots])
        # the mapping's column store is the table the index scans (``_rows``
        # is its live view inside LAESA), no build-time copy beside it
        assert index.mapping.table is index.table
        survivors = int((lower_bound_many_queries(qd, index._rows) <= radius).sum())
        assert counters.distance_computations == len(la_pivots) + survivors
        assert set(result) <= set(range(len(la)))

    def test_auto_bounds_verify_no_more_than_triangle(self, la, la_pivots):
        """Ptolemaic stage 4 can only shrink the verified candidate set."""
        built = LAESA.build(MetricSpace(la, CostCounters()), la_pivots)
        assert built.pruner.use_ptolemaic
        answers = {}
        compdists = {}
        for bounds, index in (("triangle", lemma1_baseline(built)), ("auto", built)):
            counters = index.space.counters
            counters.reset()
            answers[bounds] = index.range_query(la[9], 500.0)
            compdists[bounds] = counters.distance_computations
        assert answers["auto"] == answers["triangle"]
        assert compdists["auto"] <= compdists["triangle"]

    def test_pivot_rows_are_zero_at_pivot(self, la, la_pivots):
        index = LAESA.build(MetricSpace(la, CostCounters()), la_pivots)
        # the live table: the given pivots are its first columns (16-byte LA
        # points get no continuation columns after them)
        assert index.mapping.pivot_ids == [int(p) for p in la_pivots]
        for j, p in enumerate(la_pivots):
            assert index._rows[p, j] == 0.0

    def test_knn_equals_range_at_kth_distance(self, la, la_pivots):
        index = LAESA.build(MetricSpace(la, CostCounters()), la_pivots)
        q = la[3]
        neighbors = index.knn_query(q, 10)
        radius = neighbors[-1].distance
        hits = index.range_query(q, radius)
        assert set(n.object_id for n in neighbors) <= set(hits)

    def test_delete_then_query_excludes(self, la, la_pivots):
        index = LAESA.build(MetricSpace(la, CostCounters()), la_pivots)
        target = index.knn_query(la[3], 1)[0].object_id
        index.delete(target)
        assert target not in index.range_query(la[3], 1000.0)

    def test_delete_missing(self, la, la_pivots):
        index = LAESA.build(MetricSpace(la, CostCounters()), la_pivots)
        with pytest.raises(KeyError):
            index.delete(40_000)


class TestEPTDetail:
    def test_equation1_m_estimate_bounds(self, la):
        space = MetricSpace(la, CostCounters())
        rng = np.random.default_rng(0)
        m = EPT._estimate_group_size(space, l=5, rng=rng)
        assert m in (1, 2, 4, 8, 16, 32)

    def test_insert_uses_extreme_pivot(self, la):
        index = EPT.build(MetricSpace(la, CostCounters()), n_groups=2, group_size=3, seed=1)
        index.delete(0)
        new_id = index.insert(la[0], object_id=0)  # re-register same object
        assert new_id == 0
        row = index._pivot_idx[-1]
        # each group pick lies in its own block
        assert 0 <= row[0] < 3 and 3 <= row[1] < 6

    def test_words_support(self):
        words = make_words(300, seed=62)
        reference = MetricSpace(words)
        index = EPT.build(MetricSpace(words, CostCounters()), n_groups=3, seed=2)
        q = words[5]
        assert index.range_query(q, 4.0) == brute_force_range(reference, q, 4.0)


class TestEPTStarDetail:
    def test_per_object_pivots_differ(self, la):
        index = EPTStar.build(
            MetricSpace(la, CostCounters()), n_pivots_per_object=3, seed=1
        )
        distinct_rows = {tuple(row) for row in index._pivot_idx}
        assert len(distinct_rows) > 1  # objects really get different pivots

    def test_insert_runs_single_object_psa(self, la):
        index = EPTStar.build(
            MetricSpace(la, CostCounters()), n_pivots_per_object=3, seed=1
        )
        counters = index.space.counters
        counters.reset()
        index.delete(5)
        index.insert(la[5], object_id=5)
        # |CP| + |S| + |CP|*|S| distances (the per-object PSA estimate)
        n_cp = len(index.pivot_ids)
        n_s = len(index._sample_ids)
        assert counters.distance_computations == n_cp + n_s + n_cp * n_s

    def test_row_distances_true(self, la):
        index = EPTStar.build(
            MetricSpace(la, CostCounters()), n_pivots_per_object=3, seed=1
        )
        for o in (0, 57, 211):
            for j in range(3):
                pivot_id = index.pivot_ids[index._pivot_idx[o, j]]
                assert index._pivot_dist[o, j] == pytest.approx(
                    la.distance(la[o], la[pivot_id])
                )


class TestCPTDetail:
    def test_verification_reads_pages(self, la, la_pivots):
        index = CPT.build(
            MetricSpace(la, CostCounters()), la_pivots, page_size=4096
        )
        counters = index.space.counters
        counters.reset()
        index.range_query(la[4], 400.0)
        assert counters.page_reads > 0  # objects come from the M-tree

    def test_mtree_holds_every_object(self, la, la_pivots):
        index = CPT.build(
            MetricSpace(la, CostCounters()), la_pivots, page_size=4096
        )
        ids = sorted(i for _, leaf in index.mtree.iter_leaves() for i in leaf.ids.tolist())
        assert ids == list(range(len(la)))

    def test_knn_matches_brute_force_after_updates(self, la, la_pivots):
        index = CPT.build(
            MetricSpace(la, CostCounters()), la_pivots, page_size=4096
        )
        index.delete(10)
        index.insert(la[10], object_id=10)
        got = [round(n.distance, 6) for n in index.knn_query(la[2], 6)]
        want = [
            round(n.distance, 6) for n in brute_force_knn(MetricSpace(la), la[2], 6)
        ]
        assert got == want

    def test_storage_split(self, la, la_pivots):
        index = CPT.build(
            MetricSpace(la, CostCounters()), la_pivots, page_size=4096
        )
        storage = index.storage_bytes()
        assert storage["memory"] > 0 and storage["disk"] > 0
