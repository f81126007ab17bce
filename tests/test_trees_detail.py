"""Detailed behaviour of the pivot-based trees (paper Section 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BKT,
    CostCounters,
    Dataset,
    DiscreteMetricAdapter,
    FQA,
    FQT,
    L1,
    L2,
    MVPT,
    MetricSpace,
    VPT,
    brute_force_knn,
    brute_force_range,
    make_color,
    make_la,
    make_synthetic,
    make_words,
    select_pivots,
)
from repro.trees.common import interval_gap

from conftest import assert_codes_hold, leaf_code_rows, tree_root


@pytest.fixture(scope="module")
def words():
    return make_words(500, seed=71)


@pytest.fixture(scope="module")
def words_pivots(words):
    return select_pivots(MetricSpace(words), 4, strategy="hfi", seed=1)


class TestIntervalGap:
    def test_inside(self):
        assert interval_gap(5.0, 3.0, 7.0) == 0.0

    def test_below(self):
        assert interval_gap(1.0, 3.0, 7.0) == 2.0

    def test_above(self):
        assert interval_gap(9.0, 3.0, 7.0) == 2.0

    def test_is_lower_bound_of_difference(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            lo, width = rng.uniform(0, 10), rng.uniform(0, 5)
            hi = lo + width
            d_o = rng.uniform(lo, hi)  # object distance inside interval
            d_q = rng.uniform(0, 15)
            assert interval_gap(d_q, lo, hi) <= abs(d_q - d_o) + 1e-12


class TestBKTDetail:
    def test_random_pivots_per_subtree(self, words):
        """BKT keeps random pivots (the paper's stated exception)."""
        a = BKT.build(MetricSpace(words, CostCounters()), seed=1)
        b = BKT.build(MetricSpace(words, CostCounters()), seed=2)
        assert tree_root(a).pivot_id != tree_root(b).pivot_id or True  # seeds may collide
        # structure itself must differ somewhere for different seeds
        assert tree_root(a).pivot_id is not None

    def test_unbalanced_is_fine(self, words):
        index = BKT.build(MetricSpace(words, CostCounters()), leaf_size=4, seed=1)

        def depth(node):
            if node.is_leaf:
                return 1
            return 1 + max(depth(c) for c in node.children)

        def min_depth(node):
            if node.is_leaf:
                return 1
            return 1 + min(min_depth(c) for c in node.children)

        assert depth(tree_root(index)) >= min_depth(tree_root(index))

    def test_pivot_delete_tombstones(self, words):
        index = BKT.build(MetricSpace(words, CostCounters()), seed=1)
        root_pivot = tree_root(index).pivot_id
        index.delete(root_pivot)
        assert tree_root(index).pivot_id == -1
        q = words[3]
        want = [i for i in brute_force_range(MetricSpace(words), q, 4.0) if i != root_pivot]
        assert index.range_query(q, 4.0) == want
        # insert after tombstone still works
        index.insert(words[root_pivot], object_id=root_pivot)
        assert index.range_query(q, 4.0) == brute_force_range(
            MetricSpace(words), q, 4.0
        )

    def test_a_batch_through_a_level_of_tombstones(self, words):
        """Every pivot of the first two levels deleted: a batch meets a wide
        level whose nodes none can prune, and stays exact."""
        index = BKT.build(MetricSpace(words, CostCounters()), leaf_size=4, seed=1)
        root = tree_root(index)
        gone = [root.pivot_id] + [c.pivot_id for c in root.children if not c.is_leaf]
        for pivot_id in gone:
            index.delete(pivot_id)
        queries = [words[i] for i in range(40)]
        oracle = MetricSpace(words)
        assert index.range_query_many(queries, 2.0) == [
            [i for i in brute_force_range(oracle, q, 2.0) if i not in gone] for q in queries
        ]

    def test_interval_coverage(self, words):
        """Every stored object's pivot distance lies inside its child interval."""
        index = BKT.build(MetricSpace(words, CostCounters()), seed=3)

        def check(node, ids_expected=None):
            if node.is_leaf:
                return list(node.ids)
            collected = [] if node.pivot_id < 0 else [node.pivot_id]
            pivot = words[node.pivot_id] if node.pivot_id >= 0 else None
            for lo, hi, child in zip(node.lows, node.highs, node.children):
                child_ids = check(child)
                if pivot is not None:
                    for i in child_ids:
                        d = words.distance(words[i], pivot)
                        assert lo - 1e-9 <= d <= hi + 1e-9
                collected.extend(child_ids)
            return collected

        assert sorted(check(tree_root(index))) == list(range(len(words)))


class TestFQTDetail:
    def test_shared_pivot_per_level(self, words, words_pivots):
        index = FQT.build(MetricSpace(words, CostCounters()), words_pivots)

        def check_levels(node, level):
            if node.is_leaf:
                return
            assert node.level == level
            for child in node.children:
                check_levels(child, level + 1)

        check_levels(tree_root(index), 0)

    def test_query_computes_one_distance_per_level(self, words, words_pivots):
        index = FQT.build(MetricSpace(words, CostCounters()), words_pivots)
        counters = index.space.counters
        counters.reset()
        index.range_query(words[7], 2.0)
        # at most |P| pivot distances + the leaf verifications
        leaf_verifications = counters.distance_computations - len(words_pivots)
        assert leaf_verifications >= 0

    def test_beats_bkt_with_good_pivots(self, words, words_pivots):
        """Section 4.2: with well-chosen pivots FQT should beat BKT."""
        fqt = FQT.build(MetricSpace(words, CostCounters()), words_pivots)
        bkt = BKT.build(MetricSpace(words, CostCounters()), seed=9)
        totals = {}
        for name, index in (("fqt", fqt), ("bkt", bkt)):
            counters = index.space.counters
            counters.reset()
            for qi in (3, 50, 100, 200, 400):
                index.range_query(words[qi], 3.0)
            totals[name] = counters.distance_computations
        assert totals["fqt"] <= totals["bkt"] * 1.2


class TestFQADetail:
    def test_signatures_sorted_lexicographically(self, words, words_pivots):
        index = FQA.build(MetricSpace(words, CostCounters()), words_pivots)
        sigs = [tuple(row) for row in index._signatures]
        assert sigs == sorted(sigs)

    def test_insert_keeps_order(self, words, words_pivots):
        index = FQA.build(MetricSpace(words, CostCounters()), words_pivots)
        index.delete(7)
        index.insert(words[7], object_id=7)
        sigs = [tuple(row) for row in index._signatures]
        assert sigs == sorted(sigs)
        assert index._signatures.dtype == np.uint8  # one byte a coordinate


class TestVptMvptDetail:
    def test_vpt_is_binary(self, words, words_pivots):
        index = VPT.build(MetricSpace(words, CostCounters()), words_pivots)

        def check(node):
            if node.is_leaf:
                return
            assert len(node.children) <= 2
            for child in node.children:
                check(child)

        check(tree_root(index))

    def test_mvpt_arity_bound(self, words, words_pivots):
        for arity in (2, 3, 5, 9):
            index = MVPT.build(
                MetricSpace(words, CostCounters()), words_pivots, arity=arity
            )

            def check(node):
                if node.is_leaf:
                    return
                assert len(node.children) <= arity
                for child in node.children:
                    check(child)

            check(tree_root(index))

    def test_invalid_arity(self, words, words_pivots):
        with pytest.raises(ValueError):
            MVPT.build(MetricSpace(words, CostCounters()), words_pivots, arity=1)

    def test_depth_bounded_by_pivots(self, words, words_pivots):
        index = MVPT.build(
            MetricSpace(words, CostCounters()), words_pivots, leaf_size=1
        )

        def depth(node):
            if node.is_leaf:
                return 0
            return 1 + max(depth(c) for c in node.children)

        assert depth(tree_root(index)) <= len(words_pivots)

    def test_balanced_quantile_split(self):
        """MVPT children should be roughly equal-sized on continuous data."""
        synthetic = make_synthetic(625, seed=72)
        pivots = select_pivots(MetricSpace(synthetic), 3, strategy="hfi", seed=1)
        index = MVPT.build(
            MetricSpace(synthetic, CostCounters()), pivots, arity=5, leaf_size=4
        )
        root = tree_root(index)
        sizes = []

        def count(node):
            if node.is_leaf:
                return len(node.ids)
            return sum(count(c) for c in node.children)

        for child in root.children:
            sizes.append(count(child))
        assert max(sizes) <= 3 * min(sizes) + 10

    def test_only_split_values_stored(self, words, words_pivots):
        """Section 4.3: trees store split bounds, not per-object distances --
        storage must be far below the full LAESA table, |O| x |P| distances
        of 8 bytes.  (LAESA's own table, 2-byte codes and a 4-byte id a
        row, is smaller than MVPT's bounds and path codes on Words.)"""
        mvpt = MVPT.build(MetricSpace(words, CostCounters()), words_pivots)
        objects = sum(words.object_nbytes(i) for i in range(len(words)))
        structure = mvpt.storage_bytes()["memory"] - objects
        assert structure < len(words) * len(words_pivots) * 8


def _leaves(index):
    stack, out = [tree_root(index)], []
    while stack:
        node = stack.pop()
        if node.is_leaf:
            out.append(node)
        else:
            stack.extend(node.children)
    return out


def _assert_exact(index, queries, radius, k, gone=()):
    """MRQ and MkNNQ against brute force over the live objects."""
    dataset = index.space.dataset
    oracle = MetricSpace(dataset)
    gone = set(gone)
    for q in queries:
        want = [i for i in brute_force_range(oracle, q, radius) if i not in gone]
        assert index.range_query(q, radius) == want
        nearest = [
            n for n in brute_force_knn(oracle, q, k + len(gone)) if n.object_id not in gone
        ][:k]
        assert index.knn_query(q, k) == nearest
    assert index.knn_query_many(queries, k) == [index.knn_query(q, k) for q in queries]
    assert index.range_query_many(queries, radius) == [
        index.range_query(q, radius) for q in queries
    ]


class TestLeafCodes:
    """MVPT / VPT leaves: 4-byte ids beside one code byte per path level,
    each code a cell of the band its path's node at that level holds the
    object's subtree in, decoding to an interval that holds the exact pivot
    distance."""

    @pytest.mark.parametrize("tree", [MVPT, VPT])
    def test_discrete_codes_are_the_distances(self, words, words_pivots, tree):
        """Words bands fit a byte: a code is the distance less its band's
        low end, and decodes to that distance alone."""
        index = tree.build(MetricSpace(words, CostCounters()), words_pivots)
        rows = leaf_code_rows(index)
        assert sorted(object_id for _, _, object_id, _, _, _ in rows) == list(range(len(words)))
        assert any(len(exact) for _, _, _, exact, _, _ in rows)
        for leaf, slot, _, exact, decoded, bands in rows:
            codes = leaf.codes[slot * leaf.depth : (slot + 1) * leaf.depth]
            assert [d - band[0] for d, (band, _) in zip(exact, bands)] == list(codes)
            assert [(d, d) for d in exact] == decoded

    @pytest.mark.parametrize("tree", [MVPT, VPT])
    @pytest.mark.parametrize("maker", [make_la, make_color])
    def test_continuous_codes_hold_their_distance(self, maker, tree):
        dataset = maker(300, seed=73)
        pivots = select_pivots(MetricSpace(dataset), 4, strategy="hfi", seed=1)
        index = tree.build(MetricSpace(dataset, CostCounters()), pivots)
        assert assert_codes_hold(index) >= len(dataset)
        # a cell is 1/256 of its band, which is the node's child bounds
        for _, _, _, _, decoded, bands in leaf_code_rows(index):
            for (low, high), (band, now) in zip(decoded, bands):
                assert band == now and np.isfinite(low) and np.isfinite(high)
                assert high - low <= (band[1] - band[0]) / 256 * (1 + 1e-9)

    def test_storage_counts_real_item_sizes(self, words, words_pivots):
        index = MVPT.build(MetricSpace(words, CostCounters()), words_pivots)
        leaves = _leaves(index)
        leaf_bytes = sum(
            leaf.ids.itemsize * len(leaf.ids) + len(leaf.codes) for leaf in leaves
        )
        assert leaf_bytes == 4 * len(words) + sum(leaf.depth * len(leaf.ids) for leaf in leaves)
        before = index.storage_bytes()["memory"]
        leaf = max(leaves, key=lambda leaf: leaf.depth)
        index.delete(leaf.ids[0])
        assert index.storage_bytes()["memory"] == before - 4 - leaf.depth

    def test_inserts_outside_the_frame_stay_conservative(self):
        """The root (pivot x = 0) holds its children in [0, 50] and [60, 61];
        its first child (pivot x = 60) holds its own in [10, 58] and [59,
        110].  Objects inserted past those bands stretch them; the codes
        already there, and the new ones, stay cells of the band as it was
        (its end cells now reaching the stretched bounds)."""
        xs = [0, 1, 2, 3, 4] + [50] * 15 + [-50] * 15 + [60, 61]
        dataset = Dataset(np.asarray(xs, dtype=np.float64).reshape(-1, 1), L2, name="line")
        index = VPT.build(
            MetricSpace(dataset, CostCounters()), [0, len(xs) - 2], leaf_size=4
        )
        root, first = tree_root(index), tree_root(index).children[0]
        assert (root.lows.tolist(), root.highs.tolist()) == ([0.0, 60.0], [50.0, 61.0])
        assert (first.lows.tolist(), first.highs.tolist()) == ([10.0, 59.0], [58.0, 110.0])
        before = {object_id: decoded for _, _, object_id, _, decoded, _ in leaf_code_rows(index)}
        assert index._stretched == {}
        below = index.insert(np.array([54.0]))  # 54 from pivot 0, 6 from pivot 1
        above = index.insert(np.array([-52.0]))  # 52 and 112
        beyond = index.insert(np.array([700.0]))  # past the root's [60, 61]: 700
        # the low bound's position in ``_bounds`` -> the band before
        assert index._stretched == {0: (0.0, 50.0), 4: (10.0, 58.0), 5: (59.0, 110.0), 1: (60.0, 61.0)}
        rows = {object_id: (leaf, slot, decoded) for leaf, slot, object_id, _, decoded, _ in leaf_code_rows(index)}
        leaf, slot, _ = rows[below]
        assert leaf.depth == 2 and leaf.codes[2 * slot : 2 * slot + 2] == bytes([255, 0])
        leaf, slot, _ = rows[above]
        assert leaf.depth == 2 and leaf.codes[2 * slot + 1] == 255
        leaf, slot, _ = rows[beyond]
        assert leaf.depth == 1 and leaf.codes[slot] == 255
        for object_id, decoded in before.items():  # only the end cells reach further
            leaf, slot, now = rows[object_id]
            codes = leaf.codes[slot * leaf.depth : (slot + 1) * leaf.depth]
            for code, (was_low, was_high), (low, high) in zip(codes, decoded, now):
                assert low <= was_low and was_high <= high
                if 0 < code < 255:
                    assert (low, high) == (was_low, was_high)
        assert_codes_hold(index)
        queries = [np.array([x]) for x in (54.0, 57.0, -52.0, -60.0, 700.0, 640.0, 20.0)]
        for radius in (0.0, 3.0, 6.0, 60.0):
            _assert_exact(index, queries, radius, k=3)

    @pytest.mark.parametrize("tree", [MVPT, VPT])
    def test_discrete_distances_past_a_byte(self, tree):
        rng = np.random.default_rng(74)
        dataset = Dataset(
            rng.integers(0, 2000, size=(260, 3)).astype(np.float64),
            DiscreteMetricAdapter(L1),
            name="grid",
        )
        pivots = select_pivots(MetricSpace(dataset), 3, strategy="hfi", seed=1)
        index = tree.build(MetricSpace(dataset, CostCounters()), pivots)
        rows = leaf_code_rows(index)
        # bands past a byte: cells of several distances, their edges whole
        wide = [
            (low, high)
            for _, _, _, _, decoded, bands in rows
            for (low, high), (band, _) in zip(decoded, bands)
            if band[1] - band[0] > 255
        ]
        assert wide and any(high > low for low, high in wide)
        assert all(low == int(low) and high == int(high) for low, high in wide)
        assert_codes_hold(index)
        _assert_exact(index, [dataset[3], dataset[90], dataset[3] + 1.0], 700.0, k=9)

    def test_identical_objects_make_a_leaf_of_the_root(self):
        """Every level-0 distance is 0: a zero-width frame, a root no pivot
        can split, so a leaf of depth 0 that holds no codes."""
        dataset = Dataset(np.full((40, 2), 3.0), L2, name="same")
        index = MVPT.build(MetricSpace(dataset, CostCounters()), [0, 1])
        assert index.space.counters.distance_computations == 40
        assert len(index._rows) == 1 and not len(index._bounds)
        root = tree_root(index)
        assert root.is_leaf and root.depth == 0 and len(root.ids) == 40 and not root.codes
        new_id = index.insert(np.array([9.0, 9.0]))
        assert not root.codes
        _assert_exact(index, [dataset[0], dataset[new_id]], 1.0, k=3)

    def test_small_dataset_is_one_leaf(self):
        dataset = make_la(10, seed=75)
        index = VPT.build(MetricSpace(dataset, CostCounters()), [0, 1])
        assert index.space.counters.distance_computations == 0
        assert tree_root(index).is_leaf and tree_root(index).depth == 0 and not len(index._bounds)
        _assert_exact(index, [dataset[2]], 500.0, k=4)

    def test_unseparable_node_becomes_a_leaf(self):
        """Sixty copies of one point outgrow a leaf yet cannot be split:
        they end as one leaf above the last pivot level, coded by the
        levels above it."""
        base = make_la(300, seed=76)
        objects = np.concatenate([base.objects, np.repeat(base.objects[7:8], 60, axis=0)])
        dataset = Dataset(objects, base.distance, name="LA+copies")
        pivots = select_pivots(MetricSpace(base), 4, strategy="hfi", seed=1)
        index = MVPT.build(MetricSpace(dataset, CostCounters()), pivots)
        stuck = [
            leaf
            for leaf in _leaves(index)
            if len(leaf.ids) > index.leaf_size and leaf.depth < len(pivots)
        ]
        assert stuck and all(set(leaf.ids) == {7, *range(300, 360)} for leaf in stuck)
        assert_codes_hold(index)
        _assert_exact(index, [dataset[7], dataset[8]], 900.0, k=25)

    def test_emptied_leaves_are_skipped(self):
        dataset = make_la(300, seed=77)
        pivots = select_pivots(MetricSpace(dataset), 4, strategy="hfi", seed=1)
        index = MVPT.build(MetricSpace(dataset, CostCounters()), pivots)
        gone = []
        for leaf in _leaves(index)[:3]:
            for object_id in list(leaf.ids):
                index.delete(object_id)
                gone.append(object_id)
            assert len(leaf.ids) == 0 and len(leaf.codes) == 0
        assert_codes_hold(index)
        _assert_exact(index, [dataset[gone[0]], dataset[5]], 900.0, k=8, gone=gone)

    def test_objects_exactly_at_the_radius_survive_the_filter(self, words, words_pivots):
        """Words at r = 2: answers at distance exactly 2 whose Lemma 1 bound
        is exactly 2 too -- ``lb <= r`` keeps them."""
        index = MVPT.build(MetricSpace(words, CostCounters()), words_pivots)
        path = {object_id: exact for _, _, object_id, exact, _, _ in leaf_code_rows(index)}
        ties = 0
        for q in words.objects[:60]:
            got = index.range_query(q, 2.0)
            assert got == brute_force_range(MetricSpace(words), q, 2.0)
            to_pivots = [words.distance(q, words[p]) for p in words_pivots]
            for object_id in got:
                bound = max(
                    (abs(to_pivots[level] - d) for level, d in enumerate(path[object_id])),
                    default=0.0,
                )
                ties += bound == 2.0 == words.distance(q, words[object_id])
        assert ties > 0

    def test_delete_drops_the_code_row_of_its_own_slot(self):
        dataset = make_la(300, seed=78)
        pivots = select_pivots(MetricSpace(dataset), 4, strategy="hfi", seed=1)
        index = MVPT.build(MetricSpace(dataset, CostCounters()), pivots)

        def code_rows(leaf):
            return {
                object_id: bytes(leaf.codes[slot * leaf.depth : (slot + 1) * leaf.depth])
                for slot, object_id in enumerate(leaf.ids)
            }

        leaf = next(
            leaf
            for leaf in _leaves(index)
            if leaf.depth and len(set(code_rows(leaf).values())) == len(leaf.ids) >= 3
        )
        before = code_rows(leaf)
        victim = leaf.ids[1]  # neither the first nor the last slot
        index.delete(victim)
        del before[victim]
        assert code_rows(leaf) == before
        assert_codes_hold(index)

    @pytest.mark.parametrize("tree", [MVPT, VPT])
    @pytest.mark.parametrize("name", ["LA", "Color", "Words"])
    def test_exact_after_interleaved_updates(self, name, tree):
        maker, radius = {
            "LA": (make_la, 900.0),
            "Color": (make_color, 9000.0),
            "Words": (make_words, 3.0),
        }[name]
        dataset = maker(260, seed=79)  # private: inserts grow it
        extra = maker(60, seed=80).objects
        pivots = select_pivots(MetricSpace(dataset), 4, strategy="hfi", seed=1)
        index = tree.build(MetricSpace(dataset, CostCounters()), pivots, leaf_size=6)
        rng = np.random.default_rng(81)
        live, gone, fresh = set(range(len(dataset))), set(), 0
        for _ in range(200):
            op = rng.integers(3)
            if op == 0 and len(live) > 20:
                object_id = int(rng.choice(sorted(live)))
                index.delete(object_id)
                live.remove(object_id)
                gone.add(object_id)
            elif op == 1 and gone:
                object_id = int(rng.choice(sorted(gone)))
                assert index.insert(dataset[object_id], object_id=object_id) == object_id
                gone.remove(object_id)
                live.add(object_id)
            elif fresh < len(extra):
                live.add(index.insert(extra[fresh]))
                fresh += 1
        assert gone and fresh > 20
        assert sorted(i for leaf in _leaves(index) for i in leaf.ids) == sorted(live)
        assert_codes_hold(index)
        queries = [dataset[i] for i in (3, 100, len(dataset) - 1, sorted(gone)[0])]
        _assert_exact(index, queries, radius, k=7, gone=gone)


# (dataset, tree) -> compdists of 40 held-out queries, one a call: MRQ (LA
# r = 400, Words r = 2), MkNNQ k = 10.  ``level_frames`` is the commit whose
# codes were cells of one frame a level and whose MkNNQ verified each
# reached leaf whole; ``bands`` is this one.  Words codes are exact both
# ways, so its MRQ counts are equal; MkNNQ now verifies object by object in
# bound order, and never costs more.
TREE_COUNTS = {
    ("LA", "MVPT"): {"level_frames": (1931, 1854), "bands": (1833, 781)},
    ("LA", "VPT"): {"level_frames": (1846, 3873), "bands": (1763, 678)},
    # kNN bands (54 085 / 53 088) fell once ties the heap refuses went unverified
    ("Words", "MVPT"): {"level_frames": (12886, 54218), "bands": (12886, 50136)},
    ("Words", "VPT"): {"level_frames": (11807, 53737), "bands": (11807, 48887)},
}


@pytest.mark.parametrize("dataset_name,tree_name", sorted(TREE_COUNTS))
def test_tree_counts_against_the_level_frame_walk(dataset_name, tree_name):
    maker, radius = {"LA": (make_la, 400.0), "Words": (make_words, 2.0)}[dataset_name]
    full = maker(2040, seed=5)
    dataset = Dataset(full.objects[:2000], full.distance, name=full.name)
    queries = [full[i] for i in range(2000, 2040)]
    pivots = select_pivots(MetricSpace(dataset), 5, strategy="hfi", seed=0)
    space = MetricSpace(dataset, CostCounters())
    index = {"MVPT": MVPT, "VPT": VPT}[tree_name].build(space, pivots)
    oracle = MetricSpace(dataset)
    counters = space.counters
    counters.reset()
    ranges = [index.range_query(q, radius) for q in queries]
    mrq = counters.distance_computations
    counters.reset()
    knns = [index.knn_query(q, 10) for q in queries]
    knn = counters.distance_computations
    counters.reset()
    assert index.knn_query_many(queries, 10) == knns
    assert counters.distance_computations == knn  # the batch is the loop
    assert ranges == [brute_force_range(oracle, q, radius) for q in queries]
    assert knns == [brute_force_knn(oracle, q, 10) for q in queries]
    pinned = TREE_COUNTS[dataset_name, tree_name]
    assert (mrq, knn) == pinned["bands"]
    old_mrq, old_knn = pinned["level_frames"]
    assert mrq <= old_mrq and knn <= old_knn
    if dataset_name == "Words":
        assert mrq == old_mrq


def _reference_structure(dataset, pivot_ids, arity, leaf_size, ids=None, level=0):
    """The per-node recursive build the level-at-a-time one replaced: the
    same splits drawn with one ``np.quantile`` call per node."""
    ids = list(range(len(dataset))) if ids is None else ids
    if level >= len(pivot_ids) or len(ids) <= leaf_size:
        return sorted(ids)
    pivot = dataset[pivot_ids[level]]
    dists = dataset.distance.one_to_many(pivot, dataset.gather(ids))
    cuts = np.quantile(dists, np.linspace(0, 1, arity + 1)[1:-1])
    assignments = np.searchsorted(cuts, dists, side="left")
    lows, highs, children = [], [], []
    for child in range(arity):
        mask = assignments == child
        if mask.any():
            lows.append(float(dists[mask].min()))
            highs.append(float(dists[mask].max()))
            children.append([ids[i] for i in np.flatnonzero(mask)])
    if len(children) <= 1:
        return sorted(ids)
    return (
        level,
        lows,
        highs,
        [
            _reference_structure(dataset, pivot_ids, arity, leaf_size, child, level + 1)
            for child in children
        ],
    )


def _structure(node):
    if node.is_leaf:
        return sorted(node.ids)
    return (
        node.level,
        node.lows.tolist(),
        node.highs.tolist(),
        [_structure(child) for child in node.children],
    )


def _random_fanouts(rng, n_max=300):
    """Per node (fanout, level) of a random tree, in preorder."""
    rows = []

    def node(depth):
        fanout = 0 if depth > 5 or rng.random() < 0.4 or len(rows) > n_max else int(rng.integers(1, 7))
        rows.append((fanout, depth))
        for _ in range(fanout):
            node(depth + 1)

    node(0)
    return np.array(rows, dtype=np.intc)


def test_child_positions_derived_from_the_fanouts_are_the_recursive_walks():
    """Where each node's children and each leaf's rank sit, derived from
    the fanouts in numpy, against a recursive walk of the same rows."""
    from repro.trees.common import _placed

    rng = np.random.default_rng(85)
    for _ in range(200):
        rows = _random_fanouts(rng)
        fanouts = rows[:, 0].tolist()
        firsts = np.cumsum(fanouts) - fanouts
        ranks = np.cumsum([f == 0 for f in fanouts]) - 1
        want = [None] * sum(fanouts)
        row = 0

        def walk():
            nonlocal row
            me = row
            row += 1
            for j in range(fanouts[me]):
                want[firsts[me] + j] = row
                walk()

        walk()
        at, child = _placed(rows)
        assert child.tolist() == want
        assert at.tolist() == [
            int(ranks[i]) if f == 0 else int(firsts[i]) for i, f in enumerate(fanouts)
        ]


class TestLevelAtATimeBuild:
    def test_segment_quantiles_are_numpys(self):
        """Bit for bit, not approximately: a split that moved by an ulp
        could move an object to another child."""
        from repro.trees.mvpt import _segment_quantiles

        rng = np.random.default_rng(82)
        for arity in (2, 3, 5, 7):
            fractions = np.linspace(0, 1, arity + 1)[1:-1]
            sizes = rng.integers(1, 60, size=40)
            segments = [
                np.sort(rng.integers(0, 9, size=m).astype(np.float64) if i % 2 else rng.normal(size=m) * 1e3)
                for i, m in enumerate(sizes)
            ]
            first = np.cumsum(sizes) - sizes
            got = _segment_quantiles(np.concatenate(segments), first, sizes, fractions)
            want = np.stack([np.quantile(seg, fractions) for seg in segments])
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("arity,leaf_size", [(2, 16), (3, 4), (5, 16), (5, 0)])
    @pytest.mark.parametrize("name", ["LA", "Words", "Color", "copies"])
    def test_same_tree_as_the_recursive_build(self, name, arity, leaf_size):
        if name == "copies":  # heavy ties, and nodes no pivot can split
            rng = np.random.default_rng(83)
            dataset = Dataset(
                np.repeat(rng.normal(size=(12, 3)), 25, axis=0), L2, name="copies"
            )
        else:
            maker = {"LA": make_la, "Words": make_words, "Color": make_color}[name]
            dataset = maker(330, seed=84)
        pivots = select_pivots(MetricSpace(dataset), 4, strategy="hfi", seed=1)
        space = MetricSpace(dataset, CostCounters())
        index = MVPT.build(space, pivots, arity=arity, leaf_size=leaf_size)
        assert _structure(tree_root(index)) == _reference_structure(
            dataset, pivots, arity, leaf_size
        )
        # one counted distance per object per level it is split on
        internal_levels = sum(
            leaf.depth * len(leaf.ids)
            + (len(leaf.ids) if len(leaf.ids) > leaf_size and leaf.depth < 4 else 0)
            for leaf in _leaves(index)
        )
        assert space.counters.distance_computations == internal_levels
