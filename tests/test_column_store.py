"""The column store behind LAESA / CPT and EPT / EPT* (``repro.tables.store``).

* Queries beside a writer: threads answer while another thread deletes and
  re-inserts, through tombstones, compactions and growths; every answer is
  exact for a state the writes passed through, and no id comes from a torn
  row or a tombstone.
* The writes: a row is written before the view that counts it is
  published; growth and compaction keep an eighth to spare and the live
  rows in order.
* The build: ``LAESA.build`` on Color codes its ``uint16`` columns in
  place, so its traced peak stays below an ``n x l`` ``float64`` table
  above the codes it keeps.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro import CostCounters, Dataset, MetricSpace, make_color, make_la, select_pivots
from repro.core.index import NotIndexed
from repro.tables import EPT, LAESA
from repro.tables.store import ColumnStore

N = 600
K = 5


@pytest.fixture(scope="module")
def corpus():
    made = make_la(N + 8, seed=29)
    objects = made.objects
    return made, [objects[N + i] for i in range(8)]


def _answers_of(distances, live, radius):
    """MRQ and MkNNQ answers of every query over the live ids ``live``."""
    ids = np.fromiter(sorted(live), dtype=np.intp)
    ranged, nearest = [], []
    for row in distances:
        d = row[ids]
        ranged.append(ids[d <= radius].tolist())
        order = np.lexsort((ids, d))[:K]
        nearest.append([(float(d[i]), int(ids[i])) for i in order])
    return ranged, nearest


@pytest.mark.parametrize("name", ["LAESA", "EPT"])
def test_queries_beside_a_writer_see_one_state(corpus, name):
    made, queries = corpus
    dataset = Dataset(made.objects[:N].copy(), made.distance, name=made.name)
    space = MetricSpace(dataset, CostCounters())
    if name == "LAESA":
        index = LAESA.build(space, select_pivots(MetricSpace(dataset), 4, strategy="hfi", seed=3))
    else:
        index = EPT.build(space, n_groups=4, seed=3)
    distances = np.stack([made.distance.one_to_many(q, dataset.objects) for q in queries])
    radius = float(np.quantile(distances, 0.02))

    live = set(range(N))
    states = [frozenset(live)]  # states[j]: the live ids after j writes
    rng = np.random.default_rng(5)
    gone: list[int] = []
    layouts = set()
    done = threading.Event()
    failures: list[BaseException] = []
    seen: list[tuple[int, int, int, list]] = []  # (form, first, last, answers)

    def write():
        # 80 deletes first, so the store compacts; then every one put back,
        # past the spare room the compaction kept, so it grows; then at random
        try:
            for step in range(300):
                if step < 80:
                    put_back = False
                elif step < 160:
                    put_back = True
                else:
                    put_back = gone and (len(gone) > 90 or rng.random() < 0.4)
                if put_back:
                    object_id = gone.pop(int(rng.integers(len(gone))))
                    index.insert(dataset[object_id], object_id=object_id)
                    live.add(object_id)
                else:
                    object_id = int(rng.choice(sorted(live)))
                    index.delete(object_id)
                    live.remove(object_id)
                    gone.append(object_id)
                layouts.add(id(index.table.view.cells))
                states.append(frozenset(live))
                # a put-back writes no row, so the writes can outrun the
                # readers: pace them to a read every 25 writes
                while len(seen) < step // 25 and not failures:
                    time.sleep(1e-4)
        except BaseException as exc:  # surfaced by the main thread
            failures.append(exc)
        finally:
            done.set()

    def read():
        try:
            while not done.is_set():
                first = len(states) - 1
                got = index.range_query_many(queries, radius)
                seen.append((0, first, len(states), got))
                first = len(states) - 1
                got = index.knn_query_many(queries, K)
                got = [[(n.distance, n.object_id) for n in row] for row in got]
                seen.append((1, first, len(states), got))
        except BaseException as exc:
            failures.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=f) for f in (write, read, read)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=50)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    # the writes went through tombstones, compactions and growths
    assert len(states) == 301 and len(layouts) > 2
    assert len(seen) > 10
    answers = {}  # write count -> the answers of that state
    for form, first, last, got in seen:
        # the one view a call read is after at least ``first`` writes and
        # at most one more than were recorded when it returned
        options = []
        for j in range(first, min(last + 1, len(states))):
            if j not in answers:
                answers[j] = _answers_of(distances, states[j], radius)
            options.append(answers[j][form])
        assert got in options, (form, first, last)


class _Watched(ColumnStore):
    """A store that keeps a copy of every view it publishes."""

    def __setattr__(self, name, value):
        if name == "view":
            self.published.append((value.row_ids.copy(), value.values))
        super().__setattr__(name, value)


def test_a_row_is_written_before_the_view_that_counts_it():
    """Rows in spare room and past it, and past the top code (each
    re-grids): every published view decodes every live row to what was
    written (the distances are whole halves, exact on every grid here)."""
    store = _Watched.__new__(_Watched)
    store.published = []
    store.__init__(np.zeros((2, 3)), np.arange(3))
    rows = {0: [0.0, 0.0], 1: [0.0, 0.0], 2: [0.0, 0.0]}
    for object_id in range(3, 12):
        rows[object_id] = [object_id + 0.5, 2.0 * object_id]
        store.append(object_id, rows[object_id])
    store.remove(4)
    assert store.view.grid.step > 2.0**-15 and not store.view.grid.slack
    for ids, table in store.published:
        for object_id, row in zip(ids.tolist(), table.tolist()):
            assert object_id < 0 or row == rows[object_id]


def test_writers_in_two_threads_lose_no_row():
    """Appends and deletes from two threads at once: every row lands once,
    under its own id, and every delete leaves its tombstone."""
    store = ColumnStore(np.zeros((2, 1)), np.array([0]))

    def write(first):
        for object_id in range(first, first + 1500):
            store.append(object_id, [object_id, 2 * object_id])
            if object_id % 3 == 0:
                store.remove(object_id)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=write, args=(first,)) for first in (1, 2001)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=50)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    view = store.view
    live = view.row_ids >= 0
    want = [i for first in (1, 2001) for i in range(first, first + 1500) if i % 3]
    assert sorted(view.row_ids[live].tolist()) == sorted([0] + want)
    assert (view.values[live, 0] == view.row_ids[live]).all()


def test_growth_and_compaction_keep_an_eighth_to_spare():
    store = ColumnStore(np.arange(128.0).reshape(2, 64), np.arange(64))
    store.append(64, [200.0, 201.0])
    view = store.view
    assert (view.used, len(view.ids), view.cells.shape) == (65, 72, (2, 72))
    for object_id in range(0, 16, 2):  # 8 tombstones: 64 <= 65 used, kept
        store.remove(object_id)
    assert store.view.cells is view.cells and store.view.dead == 8
    with pytest.raises(NotIndexed):
        store.remove(0)
    store.remove(1)  # 72 > 65: the 56 live rows, in order, 7 to spare
    view = store.view
    assert (view.used, view.dead, len(view.ids), len(store)) == (56, 0, 63, 56)
    want = [i for i in range(65) if i not in range(0, 16, 2) and i != 1]
    assert view.row_ids.tolist() == want
    assert view.values[:, 0].tolist() == [float(i) for i in want[:-1]] + [200.0]
    assert store.find(64) == 55 and store.find(1) == -1


def test_laesa_build_makes_no_float64_table():
    """Color, n = 20 000, 5 given pivots and 8 continuation columns: the
    traced peak of ``LAESA.build`` above the ``uint16`` codes it keeps
    stays below one ``n x l`` ``float64`` table (2.08 MB here; measured
    1.15 MB, 1.73 MB while cells were ``float32``, and 3.15 MB when the
    table was built in ``float64`` and narrowed)."""
    dataset = make_color(20_000, seed=11)
    space = MetricSpace(dataset, CostCounters())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = LAESA.build(space, [0, 1, 2, 3, 4])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, l = len(dataset), index.mapping.n_pivots
    assert l == 13 and index._rows.dtype == np.uint16
    assert peak - before - n * l * 2 < n * l * 8


def test_a_put_back_revives_its_own_row_only_when_it_is_bit_equal():
    """An insert under a tombstoned id revives that row when it holds the
    insert's cells (and slots) bit for bit: a copy of the id column is
    published, no row is written, nothing grows.  Any other row appends."""
    cells = np.arange(32.0).reshape(2, 16)
    store = ColumnStore(cells, np.arange(16))
    store.remove(1)
    view = store.view
    assert view.row_ids[:3].tolist() == [0, ~1, 2] and view.dead == 1
    store.append(1, [1.0, 17.0])  # float64 distances, coded as the build coded
    revived = store.view
    assert revived.cells is view.cells and revived.ids is not view.ids
    assert (revived.used, revived.dead, store.find(1)) == (16, 0, 1)
    assert view.row_ids[1] == ~1  # the view published before keeps its state
    store.remove(1)
    store.append(1, [1.0, 17.0 + 1e-3])  # another row: the end one
    assert (store.view.used, store.find(1), store.view.row_ids[1]) == (17, 16, ~1)
    store.append(20, [1.0, 17.0])  # a tombstone revives under its own id only
    assert store.find(20) == 17 and store.view.dead == 1
    # a row that differs in its slots alone appends
    slotted = ColumnStore(cells, np.arange(16), slots=np.zeros((2, 16), np.int32))
    slotted.remove(2)
    slotted.append(2, [2.0, 18.0], slots=[0, 1])
    assert (slotted.view.used, slotted.find(2)) == (17, 16)
    slotted.remove(3)
    slotted.append(3, [3.0, 19.0], slots=[0, 0])
    assert (slotted.view.used, slotted.find(3)) == (17, 3)
