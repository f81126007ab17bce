"""Behaviour-level properties of individual indexes beyond golden answers:

cost shapes the paper reports (who computes fewer distances, who touches
fewer pages), storage accounting, category flags, and index-specific
mechanics (EPT group structure, M-index cluster splits, SPB discretisation).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AESA,
    CostCounters,
    EPT,
    EPTStar,
    LAESA,
    MIndex,
    MIndexStar,
    MetricSpace,
    SPBTree,
    make_la,
    make_words,
    select_pivots,
)
from repro.bench.runner import build_index

from conftest import fresh_index


@pytest.fixture(scope="module")
def la_dataset():
    return make_la(600, seed=31)


@pytest.fixture(scope="module")
def la_pivots(la_dataset):
    return select_pivots(MetricSpace(la_dataset), 4, strategy="hfi", seed=2)


def _query_compdists(index, q, radius) -> int:
    counters = index.space.counters
    before = counters.distance_computations
    index.range_query(q, radius)
    return counters.distance_computations - before


class TestCostShapes:
    def test_aesa_fewest_compdists(self, la_dataset, la_pivots):
        """AESA's full table should beat LAESA's pivot table on compdists."""
        q = la_dataset[17]
        aesa = AESA.build(MetricSpace(la_dataset, CostCounters()))
        laesa = LAESA.build(MetricSpace(la_dataset, CostCounters()), la_pivots)
        assert _query_compdists(aesa, q, 500.0) <= _query_compdists(
            laesa, q, 500.0
        )

    def test_pivot_filtering_beats_linear_scan(self, la_dataset, la_pivots):
        """Any pivot index must compute far fewer distances than n."""
        laesa = LAESA.build(MetricSpace(la_dataset, CostCounters()), la_pivots)
        compdists = _query_compdists(laesa, la_dataset[3], 300.0)
        assert compdists < len(la_dataset) / 2

    def test_more_pivots_prune_more(self, la_dataset):
        """Fig. 18: compdists drop as |P| grows."""
        q = la_dataset[9]
        costs = []
        for n_pivots in (1, 3, 7):
            pivots = select_pivots(
                MetricSpace(la_dataset), n_pivots, strategy="hfi", seed=2
            )
            laesa = LAESA.build(MetricSpace(la_dataset, CostCounters()), pivots)
            costs.append(_query_compdists(laesa, q, 400.0))
        assert costs[-1] <= costs[0]

    def test_validation_reduces_compdists(self, la_dataset, la_pivots):
        """Lemma 4 saves verifications at large radii (paper Section 6.5.1)."""
        plain = LAESA.build(
            MetricSpace(la_dataset, CostCounters()), la_pivots, use_validation=False
        )
        validated = LAESA.build(
            MetricSpace(la_dataset, CostCounters()), la_pivots, use_validation=True
        )
        q = la_dataset[3]
        radius = 6000.0  # large radius: many validatable answers
        assert _query_compdists(validated, q, radius) <= _query_compdists(
            plain, q, radius
        )
        assert validated.range_query(q, radius) == plain.range_query(q, radius)


class TestEPT:
    def test_group_structure(self, la_dataset):
        space = MetricSpace(la_dataset, CostCounters())
        ept = EPT.build(space, n_groups=3, group_size=4, seed=1)
        assert ept._pivot_idx.shape == (len(la_dataset), 3)
        # each group's picks stay within the group's pivot block
        for j in range(3):
            block = ept._pivot_idx[:, j]
            assert block.min() >= j * 4 and block.max() < (j + 1) * 4

    def test_stored_distances_are_real(self, la_dataset):
        space = MetricSpace(la_dataset, CostCounters())
        ept = EPT.build(space, n_groups=2, group_size=2, seed=1)
        view = ept.table.view  # codes: each decodes within the grid's slack
        for o in (0, 10, 99):
            for j in range(2):
                pivot_id = ept.pivot_ids[ept._pivot_idx[o, j]]
                want = la_dataset.distance(la_dataset[o], la_dataset[pivot_id])
                assert ept._pivot_dist[o, j] == int(want // view.grid.step)
                assert abs(view.values[o, j] - want) <= view.grid.slack

    def test_group_size_estimated_when_omitted(self, la_dataset):
        space = MetricSpace(la_dataset, CostCounters())
        ept = EPT.build(space, n_groups=2, seed=1)
        assert ept.group_size >= 1

    def test_eptstar_build_costlier_but_queries_cheaper(self, la_dataset):
        """The paper's EPT* trade: construction up, query verifications down.

        Verifications = compdists minus the fixed up-front query-to-pivot
        distances (|CP| for EPT*, m*l for EPT) -- at paper scale the up-front
        part is noise; at test scale it would drown the signal.
        """
        c_ept, c_star = CostCounters(), CostCounters()
        ept = EPT.build(MetricSpace(la_dataset, c_ept), n_groups=4, seed=1)
        star = EPTStar.build(
            MetricSpace(la_dataset, c_star), n_pivots_per_object=4, seed=1
        )
        assert c_star.distance_computations > c_ept.distance_computations
        verifications = []
        for index in (ept, star):
            total = 0
            for qi in (3, 50, 200, 400):
                total += _query_compdists(index, la_dataset[qi], 400.0)
                total -= len(index.pivot_ids)
            verifications.append(total)
        assert verifications[1] <= verifications[0] * 1.25


class TestDiskAccounting:
    def test_disk_indexes_report_disk_bytes(self, datasets, pivots):
        for name in ("CPT", "PM-tree", "OmniR-tree", "M-index*", "SPB-tree"):
            index = fresh_index(datasets, pivots, "LA", name)
            storage = index.storage_bytes()
            assert storage["disk"] > 0, name
            assert index.is_disk_based

    def test_memory_indexes_report_no_disk(self, datasets, pivots):
        for name in ("LAESA", "EPT*", "MVPT"):
            index = fresh_index(datasets, pivots, "LA", name)
            storage = index.storage_bytes()
            assert storage["disk"] == 0, name
            assert storage["memory"] > 0, name
            assert not index.is_disk_based

    def test_queries_touch_pages_only_for_disk_indexes(self, datasets, pivots):
        dataset = datasets["LA"]
        q = dataset[0]
        mem = fresh_index(datasets, pivots, "LA", "LAESA")
        mem.space.counters.reset()
        mem.range_query(q, 500.0)
        assert mem.space.counters.page_reads == 0
        disk = fresh_index(datasets, pivots, "LA", "SPB-tree")
        disk.space.counters.reset()
        disk.range_query(q, 500.0)
        assert disk.space.counters.page_reads > 0

    def test_ept_storage_exceeds_laesa(self, la_dataset, la_pivots):
        """EPT stores (pivot id, distance) pairs -> more bytes than LAESA."""
        laesa = LAESA.build(MetricSpace(la_dataset, CostCounters()), la_pivots)
        ept = EPT.build(
            MetricSpace(la_dataset, CostCounters()), n_groups=4, seed=1
        )
        assert (
            ept.storage_bytes()["memory"] > laesa.storage_bytes()["memory"]
        )


class TestMIndexMechanics:
    def test_cluster_split_on_insert(self):
        dataset = make_la(300, seed=41)
        space = MetricSpace(dataset, CostCounters())
        pivots = select_pivots(MetricSpace(dataset), 4, strategy="hfi", seed=3)
        index = MIndex.build(space, pivots, maxnum=32)

        def depth(node):
            if node.is_leaf:
                return 1
            return 1 + max(depth(c) for c in node.children.values())

        assert depth(index.root) > 2  # 300 objects / maxnum 32 forces splits
        q = dataset[0]
        from repro import brute_force_range

        assert index.range_query(q, 700.0) == brute_force_range(
            MetricSpace(dataset), q, 700.0
        )

    def test_star_tracks_mbbs(self, datasets, pivots):
        index = fresh_index(datasets, pivots, "LA", "M-index*")
        leaves = [node for node in index._nodes(index.root) if node.is_leaf]
        assert any(leaf.mbb_lows is not None for leaf in leaves)
        for leaf in leaves:
            if leaf.mbb_lows is not None:
                assert np.all(leaf.mbb_lows <= leaf.mbb_highs)

    def test_star_beats_plain_on_knn_work(self):
        """Fig. 15 shape: M-index* does no repeated traversals for kNN."""
        dataset = make_la(1500, seed=42)
        pivots = select_pivots(MetricSpace(dataset), 5, strategy="hfi", seed=3)
        work = {}
        for cls in (MIndex, MIndexStar):
            counters = CostCounters()
            index = cls.build(MetricSpace(dataset, counters), pivots, maxnum=128)
            counters.reset()
            for qi in range(0, 100, 10):
                index.knn_query(dataset[qi], 10)
            work[cls.__name__] = counters.distance_computations
        assert work["MIndexStar"] <= work["MIndex"]


class TestSPBMechanics:
    def test_grid_roundtrip_bounds(self, datasets, pivots):
        index = fresh_index(datasets, pivots, "LA", "SPB-tree")
        for object_id in (0, 7, 123):
            # the mapping table is build-only: map the object again
            vec = index.mapping.map_object(index.space.dataset[object_id])
            cell = index.marks.encode(vec)
            lows, highs = index.marks.bounds(cell)
            assert np.all(lows <= vec + 1e-9)
            assert np.all(vec <= highs + 1e-9)

    def test_keys_fit_curve(self, datasets, pivots):
        index = fresh_index(datasets, pivots, "LA", "SPB-tree")
        for key, _ in index.btree.items():
            assert 0 <= key <= index.curve.max_key

    def test_zorder_variant_is_correct(self):
        from repro import brute_force_range
        from repro.sfc import ZOrderCurve

        dataset = make_words(300, seed=43)
        pivots = select_pivots(MetricSpace(dataset), 4, strategy="hfi", seed=3)
        space = MetricSpace(dataset, CostCounters())
        index = SPBTree.build(space, pivots, curve_cls=ZOrderCurve)
        q = dataset[9]
        assert index.range_query(q, 4.0) == brute_force_range(
            MetricSpace(dataset), q, 4.0
        )

    def test_coarse_grid_still_correct(self):
        """Fewer bits = weaker pruning but never wrong answers."""
        from repro import brute_force_range

        dataset = make_la(300, seed=44)
        pivots = select_pivots(MetricSpace(dataset), 3, strategy="hfi", seed=3)
        for bits in (2, 4, 12):
            space = MetricSpace(dataset, CostCounters())
            index = SPBTree.build(space, pivots, bits=bits)
            q = dataset[5]
            assert index.range_query(q, 600.0) == brute_force_range(
                MetricSpace(dataset), q, 600.0
            )

    def test_finer_grid_prunes_better(self):
        dataset = make_la(600, seed=45)
        pivots = select_pivots(MetricSpace(dataset), 4, strategy="hfi", seed=3)
        costs = []
        for bits in (2, 8):
            counters = CostCounters()
            index = SPBTree.build(MetricSpace(dataset, counters), pivots, bits=bits)
            counters.reset()
            index.range_query(dataset[3], 400.0)
            costs.append(counters.distance_computations)
        assert costs[1] <= costs[0]


class TestBuilderFactory:
    def test_unknown_index_rejected(self, datasets, pivots):
        space = MetricSpace(datasets["LA"], CostCounters())
        with pytest.raises(ValueError):
            build_index("NoSuchIndex", space, pivots["LA"])

    def test_page_size_rule(self):
        from repro.bench.runner import _page_size_for

        assert _page_size_for("CPT", "Color") == 40960
        assert _page_size_for("PM-tree", "Synthetic") == 40960
        assert _page_size_for("CPT", "LA") == 4096
        assert _page_size_for("SPB-tree", "Color") == 4096
