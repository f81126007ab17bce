"""A pivot table's grid cells: every bound gives up the grid's slack.

A pivot table's cells were ``float32`` before they were grid codes; this
module keeps its name and holds what replaced them.  Every
:class:`~repro.tables.store.ColumnStore` (LAESA, CPT, EPT, EPT*) keeps
``uint16`` codes on one uniform :class:`~repro.core.quantise.Grid` from 0:
distance ``v`` is code ``floor(v / step)``, decoded to its cell's centre
under a ``slack`` of half a step and a little arithmetic room, or -- when
every distance sits on its code's low edge, as whole numbers do -- decoded
exactly, slack 0.  An insert past the top code doubles the step and halves
every code.  Held here:

* the property: over drawn tables -- values on and a float64 ulp either
  side of cell edges among them, and rows appended past the top code,
  which re-grid -- every Lemma 1, MkNNQ and Ptolemaic bound over the codes
  is never above what the float64 table gives, Lemma 4 never below it, and
  the masks keep every cell the float64 table keeps;
* a value exactly on a cell edge, a re-grid by an insert past the top, a
  discrete metric's exact grid and a snapshot round trip;
* one small index per bound on which the grid flips a decision -- an
  answer at exactly the radius, a nearest neighbour by 2^-30 -- so a bound
  that forgets the slack (or an ``insert`` that does not widen it) returns
  a wrong answer;
* two tables over one mapping read its one store and grid.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rewrite_header
from repro import (
    L1,
    L2,
    CostCounters,
    Dataset,
    MetricSpace,
    brute_force_knn,
    brute_force_range,
    load_index,
    make_words,
    save_index,
    select_pivots,
)
from repro.core.pivot_filter import upper_bound_many_queries
from repro.core.quantise import GRID_CELLS, Grid, cell_slack
from repro.core.staged import StagedPruner, _slackened, prefix_size
from repro.service.migrate import migrate
from repro.tables import EPT, LAESA
from repro.tables.store import ColumnStore, PivotTable, coded


def _values(style: str, rng, shape, step: float) -> np.ndarray:
    if style == "uniform":
        return rng.uniform(0.0, 1e4, size=shape)
    if style == "integers":  # whole numbers: an exact grid
        return rng.integers(0, 50, size=shape).astype(np.float64)
    # cell edges of ``step``, on and a float64 ulp either side of them
    edges = rng.integers(0, 2**14, size=shape) * step
    edges = edges + rng.choice([-1.0, 0.0, 1.0], size=shape) * np.spacing(np.maximum(edges, step))
    return np.maximum(edges, 0.0)


@st.composite
def coded_tables(draw):
    """A float64 table, its first ``n0`` rows a built store and the rest
    appended (scaled up to 300x: past the top code, a re-grid), query-pivot
    rows (some far outside it), a pivot-pair matrix, and a generator."""
    n, l, m = draw(st.integers(1, 30)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = math.ldexp(1.0, draw(st.integers(-12, 4)))
    styles = ["uniform", "integers", "edges"]
    table = _values(draw(st.sampled_from(styles)), rng, (n, l), step)
    n0 = draw(st.integers(1, n))
    table[n0:] *= draw(st.sampled_from([1.0, 3.0, 300.0]))
    qmat = _values(draw(st.sampled_from(styles)), rng, (m, l), step)
    if draw(st.booleans()):
        qmat[0] *= 1e6  # a query far from every pivot
    pairs = rng.uniform(0.5, 1e4, size=(l, l))
    pairs = np.triu(pairs, 1) + np.triu(pairs, 1).T
    return table, n0, qmat, pairs, rng


def _store(table, n0) -> ColumnStore:
    """A store built on the first ``n0`` rows of ``table``, the rest appended."""
    store = ColumnStore(np.ascontiguousarray(table[:n0].T), np.arange(n0, dtype=np.int32))
    for at in range(n0, table.shape[0]):
        store.append(at, table[at])
    return store


def _tied_radius(bounds: np.ndarray, rng) -> np.ndarray:
    """Per query, one of its own float64 bounds: a cell sits on the radius."""
    return bounds[np.arange(bounds.shape[0]), rng.integers(0, bounds.shape[1], bounds.shape[0])]


@given(case=coded_tables())
@settings(max_examples=300, deadline=None)
def test_every_grid_bound_holds_to_the_float64_tables(case):
    table, n0, qmat, pair_matrix, rng = case
    view = _store(table, n0).view
    codes, grid = view.table, view.grid
    assert codes.dtype == np.uint16 and view.used == table.shape[0]
    # the step is a power of two with every distance below the top code,
    # and every code decodes within the slack of its distance
    assert math.frexp(grid.step)[0] == 0.5 and table.max() < GRID_CELLS * grid.step
    assert np.abs(view.values - table).max() <= grid.slack
    l = table.shape[1]
    order = np.arange(l)
    pruner = StagedPruner(order, prefix_size(l), pair_matrix=pair_matrix if l > 1 else None)
    lemma1 = StagedPruner(order, prefix_size(l))

    # the MkNNQ column (Lemma 1) and the fully tightened bound (Ptolemaic)
    lower16, _ = pruner.knn_bounds(qmat, codes, grid)
    lower64, _ = pruner.knn_bounds(qmat, table)
    assert lower16.dtype == np.float64 and (lower16 <= lower64).all()
    # ... giving up the slack, not more (two slacks: the cell's own error
    # and the slack given; the rest is the rounding of the bound)
    room = 4 * np.spacing(np.maximum(qmat.max(axis=1, keepdims=True), table.max()))
    assert (lower16 >= lower64 - 2 * grid.slack - room).all()
    full16 = pruner.lower_bounds_many_queries(qmat, codes, grid)
    full64 = pruner.lower_bounds_many_queries(qmat, table)
    assert full16.dtype == np.float64 and (full16 <= full64).all()
    if pruner.pairs.size:
        rows = np.arange(table.shape[0])
        for i in range(qmat.shape[0]):
            cell16 = pruner._ptolemaic_cells(qmat, codes, i, rows, grid)
            cell64 = pruner._ptolemaic_cells(qmat, table, i, rows)
            assert cell16.dtype == np.float64 and (cell16 <= cell64).all()

    # Lemma 4 from the query side the cascade adds the slack to: never
    # below the float64 table's
    upper16 = upper_bound_many_queries(_slackened(qmat, grid.slack)[1], codes, grid)
    upper64 = upper_bound_many_queries(qmat, table)
    assert upper16.dtype == np.float64 and (upper16 >= upper64).all()

    # the masks, at radii tied with a float64 bound: every cell the float64
    # table keeps survives, and a cell validated is one the float64 table's
    # Lemma 4 validates
    for bounds in (lower64, full64, upper64):
        radius = _tied_radius(bounds, rng)
        for cascade in (lemma1, pruner):
            alive16, _ = cascade.masks_many_queries(qmat, codes, radius, grid=grid)
            alive64, _ = cascade.masks_many_queries(qmat, table, radius)
            assert (alive16 >= alive64).all()
        alive16, validated16 = lemma1.masks_many_queries(
            qmat, codes, radius, validate=True, grid=grid
        )
        assert not (validated16 & (upper64 > radius[:, None])).any()


# -- the grid ------------------------------------------------------------------


def test_a_value_on_a_cell_edge_takes_that_cell():
    """``floor``: a distance exactly on an edge is the code above it, one a
    float64 ulp short of it the code below; on an exact grid the edge
    decodes to itself, on a centred one to its cell's centre, within the
    slack."""
    step = 2.0**-3
    edge = 5 * step
    values = np.array([[edge, np.nextafter(edge, 0.0), 0.0, 7 * step]])
    codes = np.empty(values.shape, dtype=np.uint16)
    grid = Grid(step).code(values, codes)
    assert codes.tolist() == [[5, 4, 0, 7]]
    assert grid.slack == cell_slack(step) and grid.decode(codes)[0, 0] == edge + step / 2
    assert np.abs(grid.decode(codes) - values).max() <= grid.slack
    exact = Grid(step).code(values[:, [0, 2, 3]], codes[:, :3])
    assert exact.slack == 0.0 and exact.decode(codes[:, :3]).tolist() == [[edge, 0.0, 7 * step]]


def _line(points, name="line") -> Dataset:
    return Dataset(np.asarray(points, dtype=np.float64).reshape(-1, 1), L1, name=name)


def _laesa(dataset, pivots=(0,), **kwargs) -> LAESA:
    return LAESA.build(MetricSpace(dataset, CostCounters()), list(pivots), **kwargs)


def test_a_build_puts_its_largest_distance_in_the_grid_lower_half():
    """The step is read off the build: the least power of two with the
    largest distance below half the grid's codes."""
    index = _laesa(_line([0.0, 0.3, 2.5, 3.0]))
    step = index.table.view.grid.step
    assert 3.0 < GRID_CELLS // 2 * step and not 3.0 < GRID_CELLS // 4 * step
    assert index._rows.dtype == np.uint16 and int(index._rows.max()) < GRID_CELLS // 2


def test_an_insert_past_the_top_code_regrids():
    """An insert at 40x the build's largest distance is past the top code:
    the step doubles until it fits, every code halves as often (``>>``),
    the slack doubles with the step, and the store publishes the re-gridded
    table and the new row in one view, answering as brute force."""
    dataset = _line([0.0, 0.3, 2.5, 3.0])
    index = _laesa(dataset)
    before = index.table.view
    assert before.grid.slack > 0.0  # 0.3 is off the grid: a centred grid
    new_id = index.insert(np.array([120.0]))
    after = index.table.view
    times = int(math.log2(after.grid.step / before.grid.step))
    assert times > 0 and 120.0 < GRID_CELLS * after.grid.step
    assert (after.table[: before.used] == before.table >> times).all()
    assert after.grid.slack == math.ldexp(before.grid.slack, times)
    assert after.cells is not before.cells  # the old view is untouched
    space = MetricSpace(dataset)
    for q, radius in ((np.array([119.0]), 1.0), (np.array([0.3]), 0.2), (np.array([60.0]), 60.0)):
        assert index.range_query(q, radius) == brute_force_range(space, q, radius)
    assert index.knn_query(np.array([100.0]), 2) == brute_force_knn(space, np.array([100.0]), 2)
    assert new_id in index.range_query(np.array([120.0]), 0.0)


def test_an_exact_grid_stays_exact_while_no_bit_is_shifted_out():
    """Whole-number distances sit on an exact grid; a re-grid that shifts
    out only zero bits keeps it exact, one that drops a bit centres it."""
    codes = np.array([[4, 8, 12]], dtype=np.uint16)
    grid = Grid(0.25).doubled(codes, 2)
    assert grid == Grid(1.0) and codes.tolist() == [[1, 2, 3]]
    grid = grid.doubled(codes, 1)
    assert grid == Grid(2.0, cell_slack(2.0)) and codes.tolist() == [[0, 1, 1]]


def test_a_discrete_metric_is_coded_exactly():
    """Edit distances are whole numbers: LAESA and EPT on Words keep a grid
    of slack 0 whose codes decode to the distances bit for bit, through an
    insert too."""
    dataset = make_words(200, seed=5)
    space = MetricSpace(dataset)
    pivots = select_pivots(space, 4, strategy="hfi", seed=0)
    for index in (LAESA.build(space, pivots), EPT.build(space, n_groups=3, seed=0)):
        index.insert("quintessentially")
        view = index.table.view
        assert view.grid.slack == 0.0 and (view.values == np.rint(view.values)).all()
    laesa = LAESA.build(MetricSpace(dataset), pivots)
    want = np.array([[space.d(dataset[i], dataset[p]) for p in pivots] for i in range(len(dataset))])
    assert (laesa.table.view.values == want).all()


def test_a_snapshot_round_trip_keeps_codes_and_grid(tmp_path):
    """A saved store comes back with its codes bit for bit and its grid
    (step and slack), after a re-grid, and answers as before at 0 distance
    computations."""
    dataset = _line([0.0, 0.3, 2.5, 3.0, 7.25])
    index = _laesa(dataset, pivots=(0, 2))
    index.insert(np.array([400.0]))
    index.delete(1)
    save_index(index, tmp_path / "grid.snap")
    restored = load_index(tmp_path / "grid.snap")
    assert restored.space.counters.distance_computations == 0
    view, back = index.table.view, restored.table.view
    assert back.grid == view.grid and back.table.dtype == np.uint16
    assert back.table.tobytes() == view.table.tobytes()
    assert (back.row_ids == view.row_ids).all()
    for q in (np.array([0.3]), np.array([300.0])):
        assert restored.range_query(q, 2.0) == index.range_query(q, 2.0)
        assert restored.knn_query(q, 3) == index.knn_query(q, 3)


# -- indexes on which the grid flips a decision --------------------------------

# On a line under L1 with the pivot at 0, every distance below is exact in
# float64, so Lemma 1 and Lemma 4 are tight.  The build's step is 2^-13
# (the largest distance is in [2, 4)): 1 + 2^-30 sits 2^-30 above the edge
# at 1 and decodes to 1 + 2^-14; 1 - 2^-30 sits 2^-30 below it and decodes
# to 1 - 2^-14.
_ABOVE, _BELOW = 1.0 + 2.0**-30, 1.0 - 2.0**-30


def test_lemma1_keeps_an_answer_at_the_radius():
    """The query at 0.75 and the radius the object's distance, 0.25 + 2^-30:
    a Lemma 1 bound read off the decoded cell alone is 0.25 + 2^-14, above
    the radius, and would drop the answer."""
    dataset = _line([0.0, _ABOVE, 2.5, 3.0])
    index = _laesa(dataset)
    assert index.table.view.values[1, 0] == 1.0 + 2.0**-14 and index.slack > 0
    q, radius = np.array([0.75]), 0.25 + 2.0**-30
    assert index.range_query(q, radius) == [1] == brute_force_range(MetricSpace(dataset), q, radius)
    assert index.range_query_many([q, q], radius) == [[1], [1]]


def test_knn_verifies_the_nearest_before_its_cutoff():
    """k = 1 from 0.75: the object at 1 + 2^-30 is nearer than the one at
    0.5 - 2^-29 by 2^-30.  Read off the decoded cells alone both bounds are
    0.25 + 2^-14, the other object is verified first, and the bound is
    above the radius that leaves, so the query would stop there."""
    dataset = _line([0.0, 0.5 - 2.0**-29, _ABOVE, 3.0])
    index = _laesa(dataset)
    q = np.array([0.75])
    want = brute_force_knn(MetricSpace(dataset), q, 1)
    assert [n.object_id for n in want] == [2]
    assert index.knn_query(q, 1) == want
    assert index.knn_query_many([q], 1) == [want]


def test_lemma4_validates_no_object_past_the_radius():
    """Validation on, the query at -0.5 and radius 1.5 - 2^-14: the object
    at 1 - 2^-30 is 1.5 - 2^-30 away, but Lemma 4 read off its decoded cell
    alone is 1.5 - 2^-14 and would accept it."""
    dataset = _line([0.0, _BELOW, 2.5, 3.0])
    index = _laesa(dataset, use_validation=True)
    assert index.table.view.values[1, 0] == 1.0 - 2.0**-14
    q, radius = np.array([-0.5]), 1.5 - 2.0**-14
    assert index.range_query(q, radius) == [0] == brute_force_range(MetricSpace(dataset), q, radius)


def test_insert_widens_the_slack_for_a_row_that_rounds():
    """A table of dyadic points is exact on its grid (slack 0); inserting
    the object at 1 + 2^-30 adds a row off the grid, and the slack must
    cover it before a query reads the row."""
    dataset = _line([0.0, 2.5, 3.0])
    index = _laesa(dataset)
    assert index.slack == 0.0
    new_id = index.insert(np.array([_ABOVE]))
    assert index.slack == cell_slack(index.table.view.grid.step)
    assert index._rows.dtype == np.uint16 and index._row_ids.dtype == np.int32
    assert index.range_query(np.array([0.75]), 0.25 + 2.0**-30) == [new_id]
    before = index.slack
    index.insert(np.array([0.5]))  # on the grid: the slack stays
    assert index.slack == before


def test_two_tables_over_one_mapping_read_one_slack():
    """Two LAESAs over one mapping, as the Ptolemaic bench builds them: both
    read its one column store and the grid it was coded on."""
    dataset = _line([0.0, _ABOVE, 2.5, 3.0])
    space = MetricSpace(dataset, CostCounters())
    mapping = PivotTable(space, [0])
    first = LAESA(space, mapping)
    second = LAESA(space, mapping, pruner=first.pruner)
    assert first.table is second.table is mapping.table
    want = coded(np.array([[0.0, _ABOVE, 2.5, 3.0]]))[1]
    assert first.table.view.grid == second.table.view.grid == want and want.slack > 0
    q, radius = np.array([0.75]), 0.25 + 2.0**-30
    assert first.range_query(q, radius) == second.range_query(q, radius) == [1]


def test_a_pivot_table_keeps_no_extent(tmp_path):
    """LAESA's mapping reads no per-pivot ``low`` / ``high``, so neither its
    build nor an insert makes one, its ``nbytes`` is Table 4's 8 B a pivot,
    and a table pickled while it kept one (snapshot format 3) loads through
    ``repro migrate`` without it, answering as before."""
    dataset = _line([0.0, 1.0, 2.5, 3.0, 7.0, 9.5])
    space = MetricSpace(dataset, CostCounters())
    mapping = PivotTable(space, [0], extra=2)
    index = LAESA(space, mapping)
    index.insert(np.array([4.0]))
    assert not {"low", "high"} & set(vars(mapping))
    assert mapping.nbytes == 8 * mapping.n_pivots
    q = np.array([2.0])
    want = index.range_query(q, 1.5)
    mapping.low, mapping.high = np.zeros(mapping.n_pivots), np.ones(mapping.n_pivots)
    save_index(index, tmp_path / "old.snap")
    rewrite_header(tmp_path / "old.snap", lambda header: {**header, "format_version": 3})
    restored = migrate(tmp_path / "old.snap", tmp_path / "new.snap")
    assert not {"low", "high"} & set(vars(restored.mapping))
    assert vars(load_index(tmp_path / "new.snap").mapping).keys() == vars(restored.mapping).keys()
    assert restored.range_query(q, 1.5) == want


def test_ptolemaic_cell_keeps_an_answer_at_the_radius():
    """Four points near one circle, in the order q, o, p_i, p_j, where
    Ptolemy's inequality is all but tight: over the float64 table the pair
    bound on o is 4e-12 below d(q, o), over its decoded cells above it.
    At radius d(q, o), a pair bound that forgot the slack would drop o
    (Lemma 1 is loose here: 416.6 against 432.7)."""
    points = np.array([[-77.29, 997.009], [-820.358, 571.85], [288.298, 957.541]])
    dataset = Dataset(points, L2, name="circle")
    index = _laesa(dataset, pivots=(0, 1))
    assert index.pruner.use_ptolemaic and index.pruner.pairs.shape == (1, 2)
    q = np.array([665.816, 746.116])
    radius = float(L2.one_to_many(q, points[2:])[0])
    assert index.range_query(q, radius) == [2] == brute_force_range(MetricSpace(dataset), q, radius)
    # the flip is the Ptolemaic stage's: the decoded cells alone put o past
    # the radius
    rows = np.array([2])
    qmat = index.mapping.map_query_many([q])
    forgetful = index.pruner._ptolemaic_cells(qmat, index.table.view.values, 0, rows)
    assert forgetful[0] > radius
