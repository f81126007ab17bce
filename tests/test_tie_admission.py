"""MkNNQ's one admission rule (``KnnHeap.admits`` / ``KnnHeap.admitted``)
in every best-first body, on tie-heavy data.

A candidate of lower bound b and id o is verified only if ``(b, o) <
(radius, id of the k-th answer)``, or while the heap is not full.  Answers
rank by (distance, id), so a candidate refused this way could only have
tied the k-th answer and lost.  The bodies read the radius in many
legitimate places -- node pruning, chunk cuts -- so no grep can tell an
admission test from them; this file is the rule's guard instead.  On two
discrete corpora (Hamming over a 3-letter alphabet, and Words) each body
runs with a recording verify, and three things hold:

* the answer is brute force's, and the batch is the sequential loop;
* no verified candidate's (bound, id) pair is at or above the k-th pair of
  the heap at its turn;
* no query computes more distances than under the rule the bodies had
  before (``_RadiusRule``: every bound within the radius is verified).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.external.mindex
import repro.external.omni
import repro.external.spbtree
import repro.mtree.mtree
import repro.trees.common
import repro.trees.fqa
from repro import CostCounters, MetricSpace, brute_force_knn, make_words, select_pivots
from repro.bench.runner import build_index
from repro.core import queries
from repro.core.dataset import Dataset
from repro.core.distances import HammingDistance
from repro.core.queries import KnnHeap

N, N_QUERIES, N_PIVOTS = 300, 8, 5
KS = (1, 4, 10)

# the bodies in scope, by the index that runs each
BEST_FIRST_KNN = ("LAESA", "CPT", "EPT", "EPT*", "Omni-seq", "DEPT", "FQA")
BEST_FIRST_WALK = ("SPB-tree", "OmniR-tree", "M-index*", "PM-tree", "M-tree")
FRONTIER_WALK = ("MVPT", "VPT", "BKT", "FQT")
INDEXES = BEST_FIRST_KNN + BEST_FIRST_WALK + FRONTIER_WALK

WALK_MODULES = (
    repro.external.spbtree,
    repro.external.omni,
    repro.external.mindex,
    repro.mtree.mtree,
)


def _corpus(name: str):
    """``(dataset, held-out queries)``: distances collide constantly."""
    if name == "hamming":
        rng = np.random.default_rng(53)
        rows = rng.integers(0, 3, size=(N + N_QUERIES, 8))
        return Dataset(rows[:N], HammingDistance(), name="hamming"), list(rows[N:])
    made = make_words(N + N_QUERIES, seed=53)
    return Dataset(made.objects[:N], made.distance, name="Words"), made.objects[N:]


@pytest.fixture(scope="module")
def built():
    cache: dict = {}

    def get(corpus: str, index_name: str):
        if corpus not in cache:
            cache[corpus] = _corpus(corpus), {}
        (dataset, held_out), indexes = cache[corpus]
        if index_name not in indexes:
            pivots = select_pivots(MetricSpace(dataset), N_PIVOTS, strategy="hfi", seed=0)
            space = MetricSpace(dataset, CostCounters())
            indexes[index_name] = build_index(index_name, space, pivots, seed=3)
        return dataset, held_out, indexes[index_name]

    return get


class _Live(KnnHeap):
    """The heap of the body running now, for the recording verifies."""

    made: list = []

    def __init__(self, k):
        super().__init__(k)
        _Live.made.append(self)


class _RadiusRule(KnnHeap):
    """The reference: the rule before ties were refused -- every
    candidate whose bound is within the radius is verified."""

    def admits(self, bound, object_id):
        return bound <= self.radius

    def admitted(self, bounds, ids):
        return np.asarray(bounds) <= self.radius


def _refused(heap, bound, object_id) -> bool:
    """Whether ``(bound, object_id)`` is at or above the heap's k-th pair."""
    if len(heap) < heap.k:
        return False
    worst = heap.neighbors()[-1]
    return (bound, object_id) >= (worst.distance, worst.object_id)


def _use_heap(monkeypatch, heap_class):
    monkeypatch.setattr(queries, "KnnHeap", heap_class)
    monkeypatch.setattr(repro.trees.common, "KnnHeap", heap_class)


class _LeafHeap:
    """What an M-tree leaf expansion sees: it verifies each entry the heap
    admits and offers it at once, so an offer is a verification."""

    def __init__(self, heap, log):
        self.heap, self.log, self.bounds = heap, log, {}

    @property
    def radius(self):
        return self.heap.radius

    def admits(self, bound, object_id):
        self.bounds[object_id] = bound
        return self.heap.admits(bound, object_id)

    def consider(self, object_id, distance):
        bound = self.bounds[object_id]
        self.log.append((bound, object_id, _refused(self.heap, bound, object_id)))
        return self.heap.consider(object_id, distance)


def _record_verifications(monkeypatch, index, log: list) -> None:
    """Append ``(bound, id, refused at its turn)`` to ``log`` for every
    candidate a body verifies, at the seam where that body verifies."""
    _Live.made.clear()
    _use_heap(monkeypatch, _Live)
    column_body = queries.best_first_knn

    def best_first_knn(lower_bounds, row_ids, k, verify_many, tighten=None):
        ids = np.asarray(row_ids)
        bound_of = dict(zip(ids.tolist(), np.asarray(lower_bounds, dtype=float).tolist()))

        def tightened(positions):
            final = tighten(positions)
            bound_of.update(zip(ids[positions].tolist(), np.asarray(final).tolist()))
            return final

        def verify(cand):
            heap = _Live.made[-1]
            log.extend((bound_of[i], i, _refused(heap, bound_of[i], i)) for i in cand)
            return verify_many(cand)

        return column_body(lower_bounds, row_ids, k, verify, tighten and tightened)

    monkeypatch.setattr(queries, "best_first_knn", best_first_knn)
    monkeypatch.setattr(repro.trees.fqa, "best_first_knn", best_first_knn)
    walk_body = queries.best_first_walk

    def best_first_walk(k, root, expand, verify):
        bound_of: dict = {}

        def expanded(item, bound, heap):
            seen = heap if verify is not None else _LeafHeap(heap, log)
            items, bounds, are_entries = expand(item, bound, seen)
            if are_entries:
                bound_of.update(zip(items, bounds))
            return items, bounds, are_entries

        def verified(entry, heap):
            log.append((bound_of[entry], entry, _refused(heap, bound_of[entry], entry)))
            return verify(entry, heap)

        return walk_body(k, root, expanded, verify and verified)

    for module in WALK_MODULES:
        monkeypatch.setattr(module, "best_first_walk", best_first_walk)
    if isinstance(index, repro.trees.common.FrontierTreeMixin):
        bound_of: dict = {}
        leaf_bounds, gather = index._leaf_bounds, index.space.dataset.gather

        def recorded_leaf_bounds(*args):
            ids, lower = leaf_bounds(*args)
            bound_of.update(zip(ids.tolist(), lower.tolist()))
            return ids, lower

        def recorded_gather(ids):
            heap = _Live.made[-1]
            log.extend((bound_of[i], i, _refused(heap, bound_of[i], i)) for i in ids.tolist())
            return gather(ids)

        monkeypatch.setattr(index, "_leaf_bounds", recorded_leaf_bounds)
        monkeypatch.setattr(index.space.dataset, "gather", recorded_gather)


def _per_query_compdists(index, held_out, k):
    counters, out = index.space.counters, []
    for q in held_out:
        before = counters.distance_computations
        answer = index.knn_query(q, k)
        out.append((answer, counters.distance_computations - before))
    return out


@pytest.mark.parametrize("index_name", INDEXES)
@pytest.mark.parametrize("corpus", ["hamming", "words"])
def test_ties_the_heap_refuses_are_never_verified(built, monkeypatch, corpus, index_name):
    dataset, held_out, index = built(corpus, index_name)
    oracle = MetricSpace(dataset)
    with monkeypatch.context() as patch:
        _use_heap(patch, _RadiusRule)
        before = {k: _per_query_compdists(index, held_out, k) for k in KS}
    refused_ties = 0
    for k in KS:
        log: list = []
        with monkeypatch.context() as patch:
            _record_verifications(patch, index, log)
            now = _per_query_compdists(index, held_out, k)
        assert not [entry for entry in log if entry[2]], (k, index_name)
        assert [answer for answer, _ in now] == [brute_force_knn(oracle, q, k) for q in held_out]
        assert index.knn_query_many(held_out, k) == [answer for answer, _ in now]
        for (answer, cost), (old_answer, old_cost) in zip(now, before[k]):
            assert answer == old_answer
            assert cost <= old_cost, (k, cost, old_cost)
            refused_ties += old_cost - cost
        assert log, index_name  # the recording saw the verifications
    assert refused_ties > 0  # the corpus exercises the rule


@st.composite
def heaps_and_candidates(draw):
    """A heap over few distances and ids, and candidates drawn from the
    same few values: pairs equal to the k-th one are common."""
    k = draw(st.integers(1, 5))
    ids = draw(st.lists(st.integers(0, 9), min_size=0, max_size=8, unique=True))
    heap = KnnHeap(k)
    for object_id in ids:
        heap.consider(object_id, float(draw(st.integers(0, 3))))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 9)), min_size=1, max_size=12)
    )
    return heap, [(float(b), o) for b, o in pairs]


@given(case=heaps_and_candidates())
@settings(max_examples=300, deadline=None)
def test_admission_is_the_pair_below_the_kth(case):
    """Both forms of the rule against the literal pair comparison."""
    heap, pairs = case
    want = [not _refused(heap, b, o) for b, o in pairs]
    assert [heap.admits(b, o) for b, o in pairs] == want
    bounds, ids = (np.asarray(column) for column in zip(*pairs))
    assert heap.admitted(bounds, ids).tolist() == want
