"""Detailed behaviour of the external indexes (paper Section 5)."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro import (
    DEPT,
    CostCounters,
    Dataset,
    L2,
    MIndex,
    MIndexStar,
    MetricSpace,
    OmniBPlusTree,
    OmniRTree,
    OmniSequentialFile,
    PMTree,
    PivotMapping,
    SPBTree,
    brute_force_knn,
    brute_force_range,
    make_la,
    make_words,
    select_pivots,
)


@pytest.fixture(scope="module")
def la():
    return make_la(500, seed=81)


@pytest.fixture(scope="module")
def la_pivots(la):
    return select_pivots(MetricSpace(la), 4, strategy="hfi", seed=1)


class TestPMTreeDetail:
    def test_leaf_entries_carry_vectors(self, la, la_pivots):
        index = PMTree.build(
            MetricSpace(la, CostCounters()), la_pivots, page_size=4096
        )
        leaves = list(index.mtree.iter_leaves())
        assert sum(len(leaf) for _, leaf in leaves) == len(la)
        table = PivotMapping(MetricSpace(la), la_pivots).build_table()
        for _, leaf in leaves:
            assert leaf.vecs.shape == (len(leaf), len(la_pivots))
            assert np.array_equal(leaf.vecs, table[leaf.ids])

    def test_routing_mbbs_cover_subtrees(self, la, la_pivots):
        index = PMTree.build(
            MetricSpace(la, CostCounters()), la_pivots, page_size=4096
        )
        tree = index.mtree

        def check(page_id):
            node = tree.read_node(page_id)
            if node.is_leaf:
                return node.vecs.min(axis=0), node.vecs.max(axis=0)
            assert node.lows.shape == node.highs.shape == (len(node), len(la_pivots))
            for child, lows, highs in zip(node.child_pages, node.lows, node.highs):
                child_lows, child_highs = check(child)
                assert np.all(lows <= child_lows) and np.all(highs >= child_highs)
            return node.lows.min(axis=0), node.highs.max(axis=0)

        assert tree.height > 1
        check(tree.root_page)
        tree.check_invariants()

    def test_box_pruning_reduces_compdists(self, la, la_pivots):
        """PM-tree (ball+box) should verify fewer than the plain M-tree."""
        from repro import MTreeIndex

        pm = PMTree.build(MetricSpace(la, CostCounters()), la_pivots, page_size=4096)
        mt = MTreeIndex.build(MetricSpace(la, CostCounters()), page_size=4096, seed=0)
        costs = {}
        for name, index in (("pm", pm), ("mt", mt)):
            counters = index.space.counters
            counters.reset()
            for qi in (3, 70, 140):
                index.range_query(la[qi], 400.0)
            costs[name] = counters.distance_computations
        assert costs["pm"] <= costs["mt"]


class TestOmniDetail:
    def test_sequential_scans_every_vector_page(self, la, la_pivots):
        index = OmniSequentialFile.build(MetricSpace(la, CostCounters()), la_pivots)
        counters = index.space.counters
        counters.reset()
        index.range_query(la[0], 100.0)
        assert counters.page_reads >= len(index._vector_pages)

    def test_bplus_one_tree_per_pivot(self, la, la_pivots):
        index = OmniBPlusTree.build(MetricSpace(la, CostCounters()), la_pivots)
        assert len(index.trees) == len(la_pivots)
        for j, tree in enumerate(index.trees):
            keys = [k for k, _ in tree.items()]
            assert keys == sorted(keys)
            assert len(keys) == len(la)

    def test_rtree_leaf_count(self, la, la_pivots):
        index = OmniRTree.build(MetricSpace(la, CostCounters()), la_pivots)
        assert len(index.rtree) == len(la)
        index.rtree.check_invariants()

    def test_raf_fetch_costs_pages(self, la, la_pivots):
        index = OmniRTree.build(MetricSpace(la, CostCounters()), la_pivots)
        counters = index.space.counters
        counters.reset()
        object_id, obj = index.raf.read(42)
        assert object_id == 42 and np.array_equal(obj, la[42])
        assert counters.page_reads == 1

    def test_rtree_knn_skips_an_entry_whose_record_is_gone(self, la, la_pivots, monkeypatch):
        """A delete whose R-tree entry is not found leaves the entry behind;
        the walk drops it at its pop, without reading its record."""
        index = OmniRTree.build(MetricSpace(la, CostCounters()), la_pivots)
        monkeypatch.setattr(index.rtree, "delete", lambda point, payload: False)
        q = la[17]
        nearest = [n.object_id for n in brute_force_knn(MetricSpace(la), q, 4)]
        index.delete(nearest[0])
        assert len(index.rtree) == len(la)  # the entry is still there
        assert [n.object_id for n in index.knn_query(q, 3)] == nearest[1:]

    @pytest.mark.parametrize(
        "cls", [OmniSequentialFile, OmniBPlusTree, OmniRTree]
    )
    def test_family_agreement(self, la, la_pivots, cls):
        index = cls.build(MetricSpace(la, CostCounters()), la_pivots)
        q = la[17]
        assert index.range_query(q, 600.0) == brute_force_range(
            MetricSpace(la), q, 600.0
        )


class TestMIndexDetail:
    def _build(self, dataset, pivots, star=False, maxnum=48):
        cls = MIndexStar if star else MIndex
        return cls.build(MetricSpace(dataset, CostCounters()), pivots, maxnum=maxnum)

    def test_cluster_paths_partition_dataset(self, la, la_pivots):
        index = self._build(la, la_pivots)
        total = 0
        for leaf in self._leaves(index.root):
            members = list(
                index.btree.range_scan(
                    (leaf.path, -float("inf")), (leaf.path, float("inf"))
                )
            )
            assert len(members) == leaf.count
            total += leaf.count
        assert total == len(la)

    def _leaves(self, node):
        if node.is_leaf:
            yield node
            return
        for child in node.children.values():
            yield from self._leaves(child)

    def test_keys_use_first_path_pivot(self, la, la_pivots):
        index = self._build(la, la_pivots)
        for key, object_id in index.btree.items():
            path, dist = key
            assert dist == pytest.approx(float(index.raf.read(object_id)[2][path[0]]))

    def test_nearest_pivot_assignment(self, la, la_pivots):
        index = self._build(la, la_pivots)
        for key, object_id in index.btree.items():
            path, _ = key
            _, _, vec = index.raf.read(object_id)
            assert path[0] == int(np.argmin(vec))

    def test_maxnum_respected_after_build(self, la, la_pivots):
        index = self._build(la, la_pivots, maxnum=32)
        for leaf in self._leaves(index.root):
            if len(leaf.path) < len(la_pivots):
                assert leaf.count <= 32

    def test_star_validation_skips_work_at_large_radius(self, la, la_pivots):
        plain = self._build(la, la_pivots, star=False)
        star = self._build(la, la_pivots, star=True)
        q = la[3]
        radius = 6000.0  # most of the dataset qualifies
        costs = {}
        for name, index in (("plain", plain), ("star", star)):
            counters = index.space.counters
            counters.reset()
            a = index.range_query(q, radius)
            costs[name] = (counters.distance_computations, a)
        assert costs["plain"][1] == costs["star"][1]
        assert costs["star"][0] <= costs["plain"][0]

    def test_insert_splits_cluster(self, la, la_pivots):
        index = self._build(la, la_pivots, maxnum=600)  # one fat cluster
        pre_leaves = sum(1 for _ in self._leaves(index.root))
        index.maxnum = 32  # force the next inserts to split
        for i in range(5):
            index.delete(i)
            index.insert(la[i], object_id=i)
        post_leaves = sum(1 for _ in self._leaves(index.root))
        assert post_leaves >= pre_leaves
        q = la[2]
        assert index.range_query(q, 700.0) == brute_force_range(
            MetricSpace(la), q, 700.0
        )


class TestSPBTreeDetail:
    def test_raf_in_key_order(self, la, la_pivots):
        index = SPBTree.build(MetricSpace(la, CostCounters()), la_pivots)
        pages_in_key_order = [index.raf._where(i)[0] for _, i in index.btree.items()]
        # RAF pages must be non-decreasing when walked in key order
        assert pages_in_key_order == sorted(pages_in_key_order)

    def test_validation_avoids_raf_reads(self, la, la_pivots):
        index = SPBTree.build(MetricSpace(la, CostCounters()), la_pivots)
        counters = index.space.counters
        q = la[3]
        radius = 9000.0  # nearly everything validates via Lemma 4
        counters.reset()
        result = index.range_query(q, radius)
        want = brute_force_range(MetricSpace(la), q, radius)
        assert result == want
        # far fewer computations than answers: validation did the work
        assert counters.distance_computations < len(want) / 2

    def test_mbb_aux_covers_leaf_cells(self, la, la_pivots):
        index = SPBTree.build(MetricSpace(la, CostCounters()), la_pivots)

        def check(page_id):
            node = index.btree.read_node(page_id)
            if node.is_leaf:
                if not len(node):
                    return None
                return node.cells.min(axis=0), node.cells.max(axis=0)
            for child, lows, highs in zip(node.children, node.lows, node.highs):
                box = check(child)
                if box is None:
                    continue
                assert np.all(lows <= box[0]) and np.all(highs >= box[1])
            return None

        check(index.btree.root_page)

    # -- the array forms against the scalar references -------------------------
    #
    # The per-cell expressions below are what ``SPBTree`` evaluated an entry
    # (and a child box) at a time before its two bodies shared the array
    # functions ``_leaf_bounds`` / ``_child_bounds``; they stay here as the
    # oracle those are held to, cell for cell.

    @staticmethod
    def _cell_edges(index, coords):
        """[edges[p, c], edges[p, c + 1]] per pivot p; the grid's end cells
        are open: the top one since objects inserted past the build-time
        grid land there, cell 0 since objects nearer a pivot than any the
        build saw land there."""
        edges, top = index.marks.edges, index.curve.max_coordinate
        cell = np.asarray(coords, dtype=np.intp)
        pivots = np.arange(len(cell))
        lows = np.where(cell == 0, -np.inf, edges[pivots, cell])
        highs = np.where(cell >= top, np.inf, edges[pivots, np.minimum(cell + 1, top)])
        return lows, highs

    @classmethod
    def _cell_lower_bound(cls, index, qdists, coords) -> float:
        lows, highs = cls._cell_edges(index, coords)
        gaps = np.maximum(np.maximum(lows - qdists, qdists - highs), 0.0)
        return float(gaps.max())

    @classmethod
    def _cell_upper_bound(cls, index, qdists, coords) -> float:
        _, highs = cls._cell_edges(index, coords)
        return float((qdists + highs).min())

    @classmethod
    def _box_lower_bound(cls, index, qdists, box) -> float:
        clows, _ = cls._cell_edges(index, box[0])
        _, chighs = cls._cell_edges(index, box[1])
        gaps = np.maximum(np.maximum(clows - qdists, qdists - chighs), 0.0)
        return float(gaps.max())

    @staticmethod
    def _nodes(index):
        stack = [index.btree.root_page]
        while stack:
            node = index.btree.read_node(stack.pop())
            yield node
            if not node.is_leaf:
                stack.extend(node.children)

    @pytest.fixture()
    def grown(self, la, la_pivots):
        """An SPB-tree with objects beyond the build-time grid, a few
        tombstoned leaf entries, and a q x l matrix of mapped queries."""
        dataset = make_la(500, seed=81)  # private: inserts grow it
        index = SPBTree.build(MetricSpace(dataset, CostCounters()), la_pivots)
        far = [dataset[i] * 4.0 + 50_000.0 for i in (3, 30, 300)]
        far_ids = [index.insert(obj) for obj in far]
        # entries whose object is gone from the RAF but still in a leaf
        tombstoned = [7, 77, 177]
        for object_id in tombstoned:
            index.raf.mark_deleted(object_id)
        qmat = index.mapping.map_query_many(
            [dataset[1], dataset[250], far[0], dataset[42] + 3.0]
        )
        return index, qmat, far_ids, tombstoned

    def test_leaf_bounds_equal_the_scalar_cell_bounds(self, grown):
        index, qmat, far_ids, tombstoned = grown
        clipped_cells = seen = 0
        for node in self._nodes(index):
            if not node.is_leaf:
                continue
            rows, lower, upper = index._leaf_bounds(qmat, node)
            live = [j for j, object_id in enumerate(node.values) if object_id not in tombstoned]
            assert rows.tolist() == live
            assert lower.shape == upper.shape == (len(qmat), len(live))
            for j, row in enumerate(live):
                coords = tuple(node.cells[row].tolist())
                clipped_cells += max(coords) >= index.curve.max_coordinate
                for i, qdists in enumerate(qmat):
                    assert lower[i, j] == self._cell_lower_bound(index, qdists, coords)
                    assert upper[i, j] == self._cell_upper_bound(index, qdists, coords)
            seen += len(node) - len(live)
        assert seen == len(tombstoned)
        assert clipped_cells >= len(far_ids)

    def test_child_bounds_equal_the_scalar_box_bounds(self, grown):
        index, qmat, _, _ = grown
        internal = [node for node in self._nodes(index) if not node.is_leaf]
        assert internal
        # plus a node whose first and last children are emptied subtrees:
        # theirs is the inverted box (top cell low, cell 0 high)
        boxed = internal[0]
        lows, highs = boxed.lows.copy(), boxed.highs.copy()
        lows[[0, -1]], highs[[0, -1]] = index.curve.max_coordinate, 0
        holes = SimpleNamespace(children=list(boxed.children), lows=lows, highs=highs)
        for node in internal + [holes]:
            bounds = index._child_bounds(qmat, node)
            assert bounds.shape == (len(qmat), len(node.children))
            for j, box in enumerate(zip(node.lows, node.highs)):
                for i, qdists in enumerate(qmat):
                    assert bounds[i, j] == self._box_lower_bound(index, qdists, box)
        # no query reaches an emptied subtree
        assert (index._child_bounds(qmat, holes)[:, [0, -1]] > 0).all()

    def test_clipped_cell_never_validates(self, grown):
        """Lemma 4 must not fire on a cell at the grid edge: an object
        inserted beyond the build-time grid lies further than its cell says."""
        index, qmat, far_ids, _ = grown
        edge = index.curve.max_coordinate
        for node in self._nodes(index):
            if not node.is_leaf:
                continue
            rows, _, upper = index._leaf_bounds(qmat, node)
            for j, row in enumerate(rows):
                if node.values[row] in far_ids:
                    assert np.all(np.isinf(upper[:, j]))
        # end to end: a radius the clipped cell's nominal bound would
        # validate, around a query the far objects are nowhere near
        dataset = index.space.dataset
        q = dataset[1]
        nominal = float((qmat[0] + index.marks.edges[:, edge]).min())
        for far_id in far_ids:
            assert index.space.dataset.distance(q, dataset[far_id]) > nominal + 1.0
        got = index.range_query(q, nominal + 1.0)
        assert not set(got) & set(far_ids)
        live = [i for i in range(len(dataset)) if i in index.raf]
        assert got == [
            i for i in live if dataset.distance(q, dataset[i]) <= nominal + 1.0
        ]

    def test_the_build_stays_below_the_open_top_cell(self, la, la_pivots):
        index = SPBTree.build(MetricSpace(la, CostCounters()), la_pivots)
        # the table is build-only: the same pivots map the objects again
        assert "matrix" not in vars(index.mapping)
        matrix = PivotMapping(MetricSpace(la), la_pivots).build_table()
        max_cell = index.marks.encode(matrix.max(axis=0))
        # the build stays below the open top cell, which inserts may reach
        assert max_cell.max() < index.curve.max_coordinate

    def test_objects_inserted_past_the_grid_are_found(self):
        """Objects inserted far past the build-time grid land in its open
        top cell, as leaf entries and as the high corner of child boxes;
        neither Lemma 1 on an entry nor on a box may prune them."""
        rng = np.random.default_rng(0)
        dataset = Dataset(rng.uniform(0, 1, size=(300, 2)), L2, name="unit")
        index = SPBTree.build(MetricSpace(dataset, CostCounters()), [0, 1, 2])
        far = rng.uniform(49.5, 50.5, size=(150, 2))
        for obj in far:
            index.insert(obj)
        top = index.curve.max_coordinate
        boxes = [high for node in self._nodes(index) if not node.is_leaf for high in node.highs]
        assert any(min(high) >= top for high in boxes)  # a box wholly past the grid
        space = MetricSpace(dataset)
        for q in (np.array([50.0, 50.5]), far[17] + 0.01, np.array([0.5, 0.5])):
            assert index.range_query(q, 1.0) == brute_force_range(space, q, 1.0)
            want = brute_force_knn(space, q, 5)
            assert [n.object_id for n in index.knn_query(q, 5)] == [n.object_id for n in want]

    def test_k_past_the_live_count_walks_as_k_equal_to_it(self):
        """Once every live object is verified the radius is final: a walk
        for more neighbours than there are objects stops there, and does
        not read the subtrees of deleted far objects, whose boxes stay."""
        dataset = make_la(200, seed=5)
        pivots = select_pivots(MetricSpace(dataset), 4, strategy="hfi", seed=3)
        index = SPBTree.build(MetricSpace(dataset, CostCounters()), pivots, page_size=1024)
        for far_id in [index.insert(dataset[i] * 3.0 + 50_000.0) for i in range(120)]:
            index.delete(far_id)
        counters = index.space.counters
        costs = []
        for k in (200, 210):
            before = counters.counts()
            assert len(index.knn_query(dataset[3], k)) == 200
            costs.append(counters.delta_since(before))
        assert costs[0] == costs[1]


class TestDEPTDetail:
    """The per-group Lemma 1 kernel against the per-object expression."""

    @staticmethod
    def _reference(index, queries):
        """Rows as stored, each bounded over its own group's pivot columns."""
        dataset = index.space.dataset
        qdists = dataset.distance.pairwise(
            queries, dataset.gather(index.candidate_ids)
        )
        ids, columns = [], []
        for page in index._table_pages:
            block_ids, rows, block_groups = index.pager.read(page)
            for i, object_id in enumerate(block_ids):
                if index._row_page.get(object_id) != page:
                    continue
                cols = index.group_pivots[block_groups[i]]
                ids.append(object_id)
                columns.append(np.abs(qdists[:, cols] - rows[i]).max(axis=1))
        return ids, np.stack(columns, axis=1)

    def test_scan_bounds_equal_the_per_object_expression(self, la):
        index = DEPT.build(
            MetricSpace(la, CostCounters()), n_pivots_per_object=3, n_groups=5, seed=4
        )
        pages = [index.pager.read(page) for page in index._table_pages]
        mixed = [p for p, (_, _, groups) in enumerate(pages) if len(set(groups)) > 1]
        assert mixed, "the fixture needs a page that holds several groups"
        # a page whose live rows are all of one group: retire the others
        block_ids, _, groups = pages[mixed[0]]
        for object_id, group in zip(block_ids, groups):
            if group != groups[0]:
                index.delete(object_id)
        # a page with every row deleted
        emptied = next(p for p in range(len(pages)) if p not in mixed)
        for object_id in pages[emptied][0]:
            index.delete(object_id)
        # a put-back (its retired row live again) and a new row (the tail page)
        index.insert(la[pages[emptied][0][0]], object_id=pages[emptied][0][0])
        index.insert(la[17] + 1.0)
        assert len(mixed) > 1  # several groups on one page is still covered

        queries = [la[2], la[250], la[499] + 5.0]
        ids, bounds = index._scan_bounds_many(queries)
        want_ids, want = self._reference(index, queries)
        assert ids == want_ids and len(set(ids)) == len(ids)
        assert sorted(ids) == [i for i in range(len(index.space.dataset)) if i in index.raf]
        assert np.array_equal(bounds, want)


    def test_a_put_back_revives_its_row_and_a_new_row_fills_the_tail(self, la):
        """An insert routes as the build did, so deleting an object and
        putting it back points its id at its retired row again, writing no
        page; a new object's row goes to the open tail page, so ten of them
        take one page at most, not ten."""
        index = DEPT.build(MetricSpace(la, CostCounters()), n_pivots_per_object=3, seed=4)
        counters, held = index.space.counters, index.storage_bytes()
        pages = list(index._table_pages)
        for object_id in range(0, 500, 25):
            page = index._row_page[object_id]
            index.delete(object_id)
            writes = counters.page_writes
            index.insert(la[object_id], object_id=object_id)
            assert index._row_page[object_id] == page
            assert counters.page_writes == writes + 1  # the RAF record alone
        assert index.storage_bytes() == held and index._table_pages == pages
        for shift in range(10):
            index.insert(la[shift] + 1000.0)
        assert len(index._table_pages) <= len(pages) + 1
        q = la[3] + 1000.0
        assert index.range_query(q, 300.0) == brute_force_range(MetricSpace(index.space.dataset), q, 300.0)


class TestOmniSeqPutBack:
    def test_a_put_back_goes_into_the_page_its_delete_freed(self, la, la_pivots):
        """Omni-seq: a deleted vector put back under its id returns to its
        own page at its place in id order, so the file and its scan order
        are what they were; a new object's vector still appends."""
        index = OmniSequentialFile.build(MetricSpace(la, CostCounters()), la_pivots)

        def layout():
            return [index.pager.read(page)[0] for page in index._vector_pages]

        before, held = layout(), index.storage_bytes()
        for object_id in (0, 7, 260, 499):
            index.delete(object_id)
            index.insert(la[object_id], object_id=object_id)
        assert layout() == before and index.storage_bytes() == held
        new_id = index.insert(la[3] + 1.0)
        assert layout()[-1][-1] == new_id


class TestWordsExternal:
    """String objects through every external index (serialisation paths)."""

    @pytest.mark.parametrize(
        "builder",
        [
            lambda s, p: PMTree.build(s, p, page_size=4096),
            lambda s, p: OmniRTree.build(s, p),
            lambda s, p: MIndexStar.build(s, p, maxnum=48),
            lambda s, p: SPBTree.build(s, p),
        ],
    )
    def test_words_roundtrip(self, builder):
        words = make_words(300, seed=82)
        pivots = select_pivots(MetricSpace(words), 3, strategy="hfi", seed=1)
        index = builder(MetricSpace(words, CostCounters()), pivots)
        q = words[9]
        assert index.range_query(q, 4.0) == brute_force_range(
            MetricSpace(words), q, 4.0
        )
