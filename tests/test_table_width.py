"""LAESA widens its own table: the max-min continuation of the given pivots.

``LAESA.build`` keeps the caller's columns and continues the pivot set for
``object_nbytes // 256`` more (8 on the 2 256-byte Color vectors, none on LA,
Words and Synthetic), as one table: the extra pivots live in ``mapping`` and
``_rows`` like the given ones.  Held here: the width rule and its early stop,
exactness across updates and snapshots, what must not move on the small-object
datasets, and the gain as a count.
"""

from __future__ import annotations


import numpy as np
import pytest

from conftest import N_PIVOTS, RADIUS, fresh_index
from repro import (
    CostCounters,
    Dataset,
    L1,
    MetricSpace,
    QueryService,
    brute_force_knn,
    brute_force_knn_many,
    brute_force_range_many,
    load_index,
    make_color,
    save_index,
    select_pivots,
)
from repro.core.mapping import PivotMapping
from repro.tables import LAESA
from repro.tables.store import PivotTable

K = 10


def _queries(dataset, count=16, seed=5):
    rng = np.random.default_rng(seed)
    return [dataset[int(i)] for i in rng.choice(len(dataset), count, replace=False)]


def _assert_exact(index, dataset, queries, radius, gone=()):
    """Every query method against brute force over the objects still in."""
    oracle = MetricSpace(dataset)
    gone = set(gone)
    want_range = [
        [i for i in hits if i not in gone]
        for hits in brute_force_range_many(oracle, queries, radius)
    ]
    assert index.range_query_many(queries, radius) == want_range
    assert [index.range_query(q, radius) for q in queries[:4]] == want_range[:4]
    if gone:
        want_knn = [
            [nb for nb in brute_force_knn(oracle, q, K + len(gone)) if nb.object_id not in gone][:K]
            for q in queries
        ]
    else:
        want_knn = brute_force_knn_many(oracle, queries, K)
    assert index.knn_query_many(queries, K) == want_knn
    assert [index.knn_query(q, K) for q in queries[:4]] == want_knn[:4]


# -- the width rule ------------------------------------------------------------


def test_color_width_is_given_plus_one_column_per_256_object_bytes(datasets, pivots):
    index = fresh_index(datasets, pivots, "Color", "LAESA")
    dataset = datasets["Color"]
    assert dataset.object_nbytes(0) == 2256
    extra = dataset.object_nbytes(0) // 256
    assert index.mapping.n_pivots == N_PIVOTS + extra == 12
    # the caller's pivots seed the table, in their order
    assert index.mapping.pivot_ids[:N_PIVOTS] == [int(p) for p in pivots["Color"]]
    assert len(set(index.mapping.pivot_ids)) == 12
    # one table: the mapping's column store holds the live rows, every
    # column a real one, coded on the table's grid within the slack of its
    # distances, each column contiguous
    assert index.table is index.mapping.table and index._rows.shape == (200, 12)
    assert index._rows.T.flags.c_contiguous
    assert index._rows.dtype == np.uint16 and index._row_ids.dtype == np.int32
    grid = index.table.view.grid
    for column, pivot_id in enumerate(index.mapping.pivot_ids):
        exact = L1.one_to_many(dataset[pivot_id], dataset.objects)
        assert np.array_equal(index._rows[:, column], np.floor(exact / grid.step))
        assert np.abs(index.table.view.values[:, column] - exact).max() <= index.slack
    # build cost: a column is n computations, choosing the next pivot none
    assert index.space.counters.distance_computations == 200 * 12
    # the cascade ranks and stages every column
    stats = index.pruner.stats()
    assert sorted(stats["order"]) == list(range(12)) and stats["prefix"] == 3
    with QueryService(index, cache_size=0, use_dispatcher=False) as service:
        assert service.stats()["pruning"] == [dict(stats, index="LAESA")]
    # +8 two-byte cells on 2 256 B + 4 cells + id: under the +0.8 % the
    # rule allows (+1.6 % with four-byte cells, +3.2 % with eight-byte cells
    # and ids)
    narrow = 200 * (2256 + 2 * N_PIVOTS + 4) + 8 * N_PIVOTS
    assert index.storage_bytes()["memory"] == narrow + 200 * 2 * extra + 8 * extra
    assert index.storage_bytes()["memory"] <= 1.008 * narrow


def test_each_continuation_pivot_is_the_object_farthest_from_its_nearest_pivot(datasets, pivots):
    index = fresh_index(datasets, pivots, "Color", "LAESA")
    dataset, ids = datasets["Color"], index.mapping.pivot_ids
    table = np.column_stack([L1.one_to_many(dataset[p], dataset.objects) for p in ids])
    for width in range(N_PIVOTS, len(ids)):
        nearest = table[:, :width].min(axis=1)
        assert ids[width] == int(nearest.argmax())


# (width, build compdists, 16-query MRQ compdists, MkNNQ k = 10 compdists,
# storage bytes): the counts as the commit before the continuation read
# them, the bytes those of uint16 codes and int32 row ids (with float32
# cells 14 432, 12 277 and 72 032; with float64 cells and intp ids 22 432,
# 20 277 and 80 032).  The MkNNQ
# counts on the discrete metrics fell (Words 4 129, Synthetic 1 971) when
# rows tied with the radius and an id above the k-th answer's stopped
# being verified.
UNMOVED = {
    "LA": (4, 1616, 455, 231, 11232),
    "Words": (4, 1600, 3242, 3903, 9077),
    "Synthetic": (4, 1600, 1337, 1969, 68832),
}


@pytest.mark.parametrize("name", sorted(UNMOVED))
def test_small_objects_get_exactly_the_given_columns(datasets, pivots, name):
    """Objects under 256 bytes: no extra column, so the counts are the
    given columns' to the unit, and the bytes 2 a cell and 4 a row id."""
    index = fresh_index(datasets, pivots, name, "LAESA")
    dataset, counters = datasets[name], index.space.counters
    build = counters.distance_computations
    queries = [dataset[i] for i in range(0, 160, 10)]
    counters.reset()
    index.range_query_many(queries, RADIUS[name])
    mrq = counters.distance_computations
    counters.reset()
    index.knn_query_many(queries, K)
    knn = counters.distance_computations
    got = (index.mapping.n_pivots, build, mrq, knn, index.storage_bytes()["memory"])
    assert got == UNMOVED[name]
    assert index.mapping.pivot_ids == [int(p) for p in pivots[name]]


def _line_dataset(n=300, dim=282, seed=0) -> Dataset:
    """``n`` points of a 282-d space that lie on one line."""
    rng = np.random.default_rng(seed)
    direction = rng.random(dim)
    return Dataset(np.outer(rng.random(n) * 100.0, direction), L1, name="line")


def test_early_stop_fires_on_data_a_line_explains():
    """2 256-byte objects ask for 8 more columns, but on a line one pivot
    already gives Lemma 1 the exact distance: the first continuation column
    is computed, found explained, and discarded."""
    dataset = _line_dataset()
    space = MetricSpace(dataset, CostCounters())
    index = LAESA.build(space, [0, 1])
    assert index.mapping.n_pivots == 2 and index.mapping.pivot_ids == [0, 1]
    assert index._rows.shape == (300, 2) and index._rows.T.flags.c_contiguous
    assert space.counters.distance_computations == 300 * 3
    queries = _queries(dataset, 8)
    _assert_exact(index, dataset, queries, 50.0)


def test_fewer_objects_than_the_requested_width_does_not_loop():
    """Six objects, two given pivots, eight more asked for: the continuation
    ends when the objects run out (here one sooner -- five pivots explain
    the sixth object's column)."""
    objects = np.asarray(make_color(6, seed=3).objects)
    dataset = Dataset(objects, L1, name="tiny")
    index = LAESA.build(MetricSpace(dataset, CostCounters()), [0, 1])
    ids = index.mapping.pivot_ids
    assert ids[:2] == [0, 1] and len(set(ids)) == len(ids) == 5
    assert index._rows.shape == (6, 5)
    _assert_exact(index, dataset, list(objects), 9000.0)
    # every object a copy of the pivot: nothing is left to choose, nothing is spent
    copies = Dataset(np.repeat(objects[:1], 4, axis=0), L1, name="copies")
    index = LAESA.build(MetricSpace(copies, CostCounters()), [0])
    assert index.mapping.pivot_ids == [0] and index._rows.shape == (4, 1)
    assert index.space.counters.distance_computations == 4


# -- exactness across updates and snapshots ----------------------------------------


@pytest.mark.parametrize("index_name", ["LAESA", "CPT"])
def test_widened_table_is_exact_across_updates_and_snapshots(
    datasets, pivots, tmp_path, index_name
):
    dataset = datasets["Color"]
    index = fresh_index(datasets, pivots, "Color", index_name)
    assert index.mapping.n_pivots == 12
    queries = _queries(dataset)
    radius = RADIUS["Color"]
    _assert_exact(index, dataset, queries, radius)

    # interleaved delete + re-insert, a continuation pivot among the victims
    victims = [3, index.mapping.pivot_ids[-1], 77, 150]
    rows = [index.table.find(object_id) for object_id in victims]
    counters = index.space.counters
    for object_id in victims:
        index.delete(object_id)
    _assert_exact(index, dataset, queries, radius, gone=victims)
    for object_id in victims[:3]:
        before = counters.distance_computations
        index.insert(dataset[object_id], object_id=object_id)
        if index_name == "LAESA":  # one counted call, one computation a column
            assert counters.distance_computations - before == 12
    # each re-insert revived its own row: the rows as built, the fourth a tombstone
    assert index._rows.shape == (200, 12) and len(index.table) == 199
    assert [index.table.find(object_id) for object_id in victims[:3]] == rows[:3]
    _assert_exact(index, dataset, queries, radius, gone=victims[3:])

    save_index(index, tmp_path / "wide.snap")
    restored = load_index(tmp_path / "wide.snap")
    assert restored.space.counters.distance_computations == 0
    assert restored.mapping.pivot_ids == index.mapping.pivot_ids
    assert restored.table is restored.mapping.table
    assert np.array_equal(restored._rows, index._rows)
    assert np.array_equal(restored._row_ids, index._row_ids)
    assert "_rows" not in vars(restored)  # the table travels once
    _assert_exact(restored, dataset, queries, radius, gone=victims[3:])
    restored.insert(dataset[150], object_id=150)
    _assert_exact(restored, dataset, queries, radius)
    # what a fresh build stores: every victim's row revived where it was built
    assert restored.table.view.dead == 0 and restored.table.find(150) == rows[3]
    assert restored.storage_bytes()["memory"] == fresh_index(
        datasets, pivots, "Color", index_name
    ).storage_bytes()["memory"]


def test_snapshot_written_with_two_table_copies_still_loads(migrated):
    """``tests/data/pr23_laesa_color64.snap``: LAESA on ``make_color(64,
    seed=11)`` and five HFI pivots, written by the commit that kept
    ``mapping.matrix`` beside ``_rows`` (object 7 deleted and put back, 31 --
    a pivot -- deleted, so the two had parted: 64 stale rows, 63 live)."""
    dataset = make_color(64, seed=11)
    index = load_index(migrated("pr23_laesa_color64.snap"))
    assert index.space.counters.distance_computations == 0
    assert index.mapping.n_pivots == 5  # widening happens at build, not at load
    assert index.table is index.mapping.table and index._rows.shape == (63, 5)
    assert "_rows" not in vars(index)
    assert [int(i) for i in index._row_ids[-2:]] == [63, 7]
    queries = [dataset[i] for i in (0, 7, 31, 40)]
    _assert_exact(index, dataset, queries, 9000.0, gone=[31])
    index.insert(dataset[31], object_id=31)
    index.delete(12)
    index.insert(dataset[12], object_id=12)
    _assert_exact(index, dataset, queries, 9000.0)


# -- insert maps in one call -------------------------------------------------------


@pytest.mark.parametrize("name", ["Color", "LA", "Words"])
def test_map_query_is_one_counted_call_with_the_scalar_loop_floats(datasets, pivots, name):
    dataset = datasets[name]
    space = MetricSpace(dataset, CostCounters())
    mapping = PivotMapping(space, pivots[name])
    space.counters.reset()
    got = mapping.map_query(dataset[17])
    assert space.counters.distance_computations == N_PIVOTS
    assert got.dtype == np.float64
    assert np.array_equal(got, [dataset.distance(dataset[17], p) for p in mapping.pivot_objects])
    assert np.array_equal(got, mapping.map_query_many([dataset[17]])[0])
    assert np.array_equal(mapping.map_object(dataset[17]), got)


# -- the gain, as a count -------------------------------------------------------------


def test_widened_table_verifies_at_most_four_fifths_of_the_given_columns_count():
    """Color L1, n = 2 000, 16 held-out queries a batch: the table
    ``LAESA.build`` makes from 5 HFI pivots costs <= 0.8 x the compdists of
    the table on exactly those 5 (query-pivot distances included), for an MRQ
    batch at 1 % selectivity and an MkNNQ batch at k = 10.  (Measured 0.64 and
    0.59 here, 0.60 on the spine's n = 20 000; the ratio is above 0.8 below
    n ~ 1 000 -- every column costs every query one computation.)"""
    full = np.asarray(make_color(2016, seed=11).objects)
    dataset = Dataset(full[:2000].copy(), L1, name="Color")
    queries = list(full[2000:])
    given = select_pivots(MetricSpace(dataset), 5, strategy="hfi", seed=3)
    wide = LAESA.build(MetricSpace(dataset, CostCounters()), given)
    space = MetricSpace(dataset, CostCounters())
    narrow = LAESA(space, PivotTable(space, given))
    assert (narrow.mapping.n_pivots, wide.mapping.n_pivots) == (5, 13)
    dists = np.concatenate([L1.one_to_many(q, dataset.objects) for q in queries])
    radius = float(np.quantile(dists, 0.01))

    def cost(index, run) -> int:
        counters = index.space.counters
        counters.reset()
        run(index)
        return counters.distance_computations

    oracle = MetricSpace(dataset)
    for run, want in (
        (lambda i: i.range_query_many(queries, radius), brute_force_range_many(oracle, queries, radius)),
        (lambda i: i.knn_query_many(queries, K), brute_force_knn_many(oracle, queries, K)),
    ):
        assert run(wide) == run(narrow) == want
        assert cost(wide, run) <= 0.8 * cost(narrow, run)
