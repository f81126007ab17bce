"""Update correctness: delete + insert keeps every index's answers exact.

Mirrors the paper's Table 6 update operation (delete a specific object, then
insert it back) and additionally leaves objects deleted to verify they stop
appearing in answers.
"""

from __future__ import annotations

import pytest

from repro import MetricSpace, UnsupportedOperation, brute_force_knn, brute_force_range

from conftest import DATASET_MAKERS, RADIUS, fresh_index, indexes_for, tree_root

UPDATABLE_CASES = [
    (dataset_name, index_name)
    for dataset_name in ("LA", "Words")
    # DEPT is in no conftest roster (it is the paper's future-work
    # extension, not one of its indexes) but updates like the others
    for index_name in indexes_for(dataset_name) + ("DEPT",)
    if index_name != "AESA"  # static by design
]


@pytest.mark.parametrize("dataset_name,index_name", UPDATABLE_CASES)
def test_delete_reinsert_roundtrip(datasets, pivots, dataset_name, index_name):
    dataset = datasets[dataset_name]
    index = fresh_index(datasets, pivots, dataset_name, index_name)
    victims = (5, 17, 44, 123, 250)
    for object_id in victims:
        index.delete(object_id)
        index.insert(dataset[object_id], object_id=object_id)
    radius = RADIUS[dataset_name]
    oracle = MetricSpace(dataset)
    # around an untouched object, and around one that went and came back: it
    # must be reported once (DEPT used to keep the deleted row beside the
    # new one, so the object answered twice and pushed a true neighbour out
    # of a k-nearest answer)
    for q in (dataset[2], dataset[victims[0]]):
        want = brute_force_range(oracle, q, radius)
        assert index.range_query(q, radius) == want
        assert index.range_query_many([q, q], radius) == [want, want]
        nearest = brute_force_knn(oracle, q, 10)
        assert index.knn_query(q, 10) == nearest
        assert index.knn_query_many([q], 10) == [nearest]


@pytest.mark.parametrize("dataset_name,index_name", UPDATABLE_CASES)
def test_deleted_objects_disappear(datasets, pivots, dataset_name, index_name):
    dataset = datasets[dataset_name]
    index = fresh_index(datasets, pivots, dataset_name, index_name)
    gone = {30, 31, 32, 99}
    for object_id in gone:
        index.delete(object_id)
    q = dataset[2]
    radius = RADIUS[dataset_name]
    got = index.range_query(q, radius)
    want = [
        i for i in brute_force_range(MetricSpace(dataset), q, radius) if i not in gone
    ]
    assert got == want
    nearest = brute_force_knn(MetricSpace(dataset), q, 10 + len(gone))
    assert index.knn_query(q, 10) == [
        n for n in nearest if n.object_id not in gone
    ][:10]


@pytest.mark.parametrize("dataset_name", ["LA", "Words"])
def test_delete_missing_raises(datasets, pivots, dataset_name):
    for index_name in ("LAESA", "MVPT", "SPB-tree", "M-index*"):
        index = fresh_index(datasets, pivots, dataset_name, index_name)
        with pytest.raises(KeyError):
            index.delete(999_999)


@pytest.mark.parametrize(
    "index_name",
    [
        "LAESA", "EPT", "EPT*", "CPT", "FQA",
        "PM-tree", "M-tree", "SPB-tree", "Omni-seq", "OmniB+", "OmniR-tree",
        "M-index", "M-index*", "DEPT",
    ],
)
def test_table_insert_rejects_live_and_unknown_ids(datasets, pivots, index_name):
    """One id check validates for the table family and the external category.

    ``insert(obj, object_id=i)`` with ``i`` still live used to leave a
    duplicate row or record (``[.., i, i, ..]`` in every later answer, ``i``
    twice in a k-nearest answer); with ``i`` outside the dataset every later
    verification raised ``IndexError``.  Both are refused before a distance
    is computed or a row or page is touched.
    """
    dataset = datasets["Words"]
    index = fresh_index(datasets, pivots, "Words", index_name)
    q, radius = dataset[5], RADIUS["Words"]
    want = index.range_query(q, radius), index.range_query(q, 0), index.knn_query(q, 3)
    assert 5 in want[0] and want[1] == [5]
    before = index.space.counters.snapshot()
    for bad_id in (5, len(dataset), -1):
        with pytest.raises(ValueError):
            index.insert(dataset[5], object_id=bad_id)
    cost = index.space.counters.snapshot() - before
    assert cost.distance_computations == cost.page_writes == 0
    assert (index.range_query(q, radius), index.range_query(q, 0), index.knn_query(q, 3)) == want
    index.delete(5)
    with pytest.raises(KeyError):
        index.delete(5)
    assert index.insert(dataset[5], object_id=5) == 5
    assert (index.range_query(q, radius), index.range_query(q, 0), index.knn_query(q, 3)) == want


@pytest.mark.parametrize(
    "index_name", [name for name in indexes_for("LA") + ("DEPT",) if name != "AESA"]
)
def test_insert_refuses_another_object_under_an_id(index_name):
    """``insert(obj, object_id=i)`` puts dataset slot ``i`` back, so ``obj``
    must be that slot's object (a copy is fine).

    Every family used to take another one: after ``delete(5)``, ``insert(
    la[7] + 5000, object_id=5)`` was accepted, the SPB-tree, M-index* and
    OmniR-tree then answered ``[5]`` to a range query around the stranger
    at r = 1 while ``dataset[5]`` was unchanged (brute force: ``[]``), and
    MVPT's next ``delete(5)`` raised ``KeyError``.  The insert is now
    refused before any row or page is written.
    """
    from repro import CostCounters, make_la, select_pivots
    from repro.bench.runner import build_index

    dataset = make_la(400, seed=11)
    space = MetricSpace(dataset, CostCounters())
    pivot_ids = select_pivots(MetricSpace(dataset), 4, strategy="hfi", seed=3)
    index = build_index(index_name, space, pivot_ids, workload_name="LA", seed=5)
    oracle = MetricSpace(dataset)
    q, radius = dataset[5], RADIUS["LA"]
    index.delete(5)
    stranger = dataset[7] + 5000.0
    before = space.counters.snapshot()
    with pytest.raises(ValueError, match="another object"):
        index.insert(stranger, object_id=5)
    assert (space.counters.snapshot() - before).page_writes == 0
    assert len(dataset) == 400
    assert index.range_query(stranger, 1.0) == []
    assert index.range_query(q, radius) == [
        i for i in brute_force_range(oracle, q, radius) if i != 5
    ]
    with pytest.raises(KeyError):
        index.delete(5)
    # a copy of the object itself goes back, and out again
    assert index.insert(dataset[5].copy(), object_id=5) == 5
    assert index.range_query(q, radius) == brute_force_range(oracle, q, radius)
    assert index.knn_query(q, 4) == brute_force_knn(oracle, q, 4)
    index.delete(5)
    assert 5 not in index.range_query(q, radius)


@pytest.mark.parametrize(
    "dataset_name,index_name",
    [("LA", "MVPT"), ("LA", "VPT"), ("Words", "MVPT"), ("Words", "BKT"), ("Words", "FQT")],
)
def test_tree_insert_rejects_live_and_unknown_ids(datasets, pivots, dataset_name, index_name):
    """A tree refuses an id it still holds, as the tables do.

    ``insert(obj, object_id=i)`` with ``i`` live used to hang a second copy
    in the leaf: ``range_query(q, 0)`` answered ``[5, 5]`` and a k-nearest
    answer lost a true neighbour to the duplicate.  The descent an insert
    pays for anyway finds the live copy, so the refusal costs what a
    successful insert costs and leaves every bound where it was.
    """
    dataset = datasets[dataset_name]
    index = fresh_index(datasets, pivots, dataset_name, index_name)
    oracle = MetricSpace(dataset)
    counters = index.space.counters
    q, radius = dataset[5], RADIUS[dataset_name]

    def ask():
        before = counters.snapshot()
        answers = (
            index.range_query(q, 0.0),
            index.range_query(q, radius),
            index.knn_query(q, 3),
            index.knn_query_many([q, dataset[2]], 10),
        )
        return answers, (counters.snapshot() - before).distance_computations

    want = ask()
    assert want[0][0] == [5]
    # what an accepted insert of this object costs: its descent
    index.delete(5)
    before = counters.snapshot()
    index.insert(dataset[5], object_id=5)
    descent = (counters.snapshot() - before).distance_computations
    assert ask() == want
    for bad_id in (5, len(dataset), -1):
        before = counters.snapshot()
        with pytest.raises(ValueError):
            index.insert(dataset[5], object_id=bad_id)
        assert (counters.snapshot() - before).distance_computations == descent
    assert ask() == want  # answers, and the compdists they take
    # delete -> re-insert under the same id -> exact again, then refused again
    index.delete(5)
    with pytest.raises(KeyError):
        index.delete(5)
    assert index.range_query(q, 0.0) == []
    assert index.insert(dataset[5], object_id=5) == 5
    with pytest.raises(ValueError):
        index.insert(dataset[5], object_id=5)
    for probe in (q, dataset[2]):
        assert index.range_query(probe, radius) == brute_force_range(oracle, probe, radius)
        assert index.knn_query(probe, 10) == brute_force_knn(oracle, probe, 10)


def test_bkt_insert_rejects_a_live_pivot(datasets, pivots):
    """A BKT pivot lives in a node, not a leaf; its id is taken all the same."""
    dataset = datasets["Words"]
    index = fresh_index(datasets, pivots, "Words", "BKT")
    pivot_id = next(c for c in tree_root(index).children if not c.is_leaf).pivot_id
    with pytest.raises(ValueError):
        index.insert(dataset[pivot_id], object_id=pivot_id)
    index.delete(pivot_id)
    assert index.insert(dataset[pivot_id], object_id=pivot_id) == pivot_id
    q = dataset[pivot_id]
    assert index.range_query(q, 1.0) == brute_force_range(MetricSpace(dataset), q, 1.0)


def test_aesa_is_static(datasets, pivots):
    index = fresh_index(datasets, pivots, "LA", "AESA")
    with pytest.raises(UnsupportedOperation):
        index.insert(datasets["LA"][0])


@pytest.mark.parametrize("index_name", ["LAESA", "EPT*", "SPB-tree", "OmniR-tree"])
def test_insert_fresh_object_gets_new_id(datasets, pivots, index_name):
    """Inserting without an explicit id appends to the dataset."""
    import numpy as np

    from repro import CostCounters, make_la, select_pivots
    from repro.bench.runner import build_index

    dataset = make_la(120, seed=21)  # private dataset: test mutates it
    space = MetricSpace(dataset, CostCounters())
    pivots_local = select_pivots(MetricSpace(dataset), 3, strategy="hfi", seed=0)
    index = build_index(index_name, space, pivots_local, workload_name="LA")
    new_obj = np.array([1234.0, 5678.0])
    new_id = index.insert(new_obj)
    assert new_id == 120
    assert len(dataset) == 121
    hits = index.range_query(new_obj, 0.5)
    assert new_id in hits
