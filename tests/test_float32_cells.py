"""LAESA's float32 cells: every bound gives up the table's slack.

``LAESA.build`` narrows each float64 distance column to float32 cells as
it is computed, and its store records a ``slack``
(:class:`repro.core.mapping.CellRounding`); the staged pruner gives it up
in every bound.  Held here:

* the property: over drawn tables -- values just past and short of powers
  of two among them, where float32 rounding changes step -- every bound
  over the cells is a float64 array, Lemma 1, the MkNNQ column and the
  Ptolemaic cells never above what the float64 table gives, Lemma 4 never
  below it, and the masks keep every cell the float64 table keeps;
* one small index per bound on which float32 rounding flips a decision --
  an answer at exactly the radius, a nearest neighbour by 2^-31 -- so a
  bound that forgets the slack (or an ``insert`` that does not widen it)
  returns a wrong answer;
* two tables over one mapping read the one slack measured on its float64
  values, as its columns were narrowed.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import L1, L2, CostCounters, Dataset, MetricSpace, brute_force_knn, brute_force_range
from repro.core.pivot_filter import upper_bound_many_queries
from repro.core.staged import StagedPruner, _slackened, prefix_size
from repro.tables import LAESA
from repro.core.mapping import PivotMapping, narrowed
from repro.tables.store import PivotTable

# offsets from a power of two, as a share of it: one float64 ulp past and
# short of it, float32's half step past it (a rounding tie) and a float64
# ulp either side of the tie, a float32 step short of it, and deep inside
_NEAR_POWERS = np.array(
    [2.0**-52, -(2.0**-53), 2.0**-25, 2.0**-25 + 2.0**-52, 2.0**-25 - 2.0**-52]
    + [-(2.0**-24), 2.0**-30, -(2.0**-30), 0.0]
)


def _values(style: str, rng, shape) -> np.ndarray:
    if style == "uniform":
        return rng.uniform(0.0, 1e4, size=shape)
    if style == "integers":  # exact in float32: a table with no slack
        return rng.integers(0, 50, size=shape).astype(np.float64)
    powers = np.ldexp(1.0, rng.integers(-12, 16, size=shape))
    values = powers * (1.0 + rng.choice(_NEAR_POWERS, size=shape))
    values[rng.random(shape) < 0.1] = 0.0
    return values


@st.composite
def narrowed_tables(draw):
    """A float64 table, query-pivot rows (some far outside it), a pivot-pair
    matrix and a radius per query, several of them tied with a bound."""
    n, l, m = draw(st.integers(1, 30)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    styles = ["uniform", "integers", "powers"]
    table = _values(draw(st.sampled_from(styles)), rng, (n, l))
    qmat = _values(draw(st.sampled_from(styles)), rng, (m, l))
    if draw(st.booleans()):
        qmat[0] *= 1e6  # a query far from every pivot
    pairs = rng.uniform(0.5, 1e4, size=(l, l))
    pairs = np.triu(pairs, 1) + np.triu(pairs, 1).T
    return table, qmat, pairs, rng


def _tied_radius(bounds: np.ndarray, rng) -> np.ndarray:
    """Per query, one of its own float64 bounds: a cell sits on the radius."""
    return bounds[np.arange(bounds.shape[0]), rng.integers(0, bounds.shape[1], bounds.shape[0])]


@given(case=narrowed_tables())
@settings(max_examples=300, deadline=None)
def test_every_float32_bound_holds_to_the_float64_tables(case):
    table, qmat, pair_matrix, rng = case
    cells, slack = narrowed(table)
    assert cells.dtype == np.float32 and slack >= 0.0
    assert np.abs(cells - table).max() <= slack
    l = table.shape[1]
    order = np.arange(l)
    pruner = StagedPruner(order, prefix_size(l), pair_matrix=pair_matrix if l > 1 else None)
    lemma1 = StagedPruner(order, prefix_size(l))

    # the MkNNQ column (Lemma 1) and the fully tightened bound (Ptolemaic)
    lower32, _ = pruner.knn_bounds(qmat, cells, slack)
    lower64, _ = pruner.knn_bounds(qmat, table)
    assert lower32.dtype == np.float64 and (lower32 <= lower64).all()
    # ... giving up the slack, not more (two slacks: the cell's own error
    # and the slack given; the rest is the rounding of the bound)
    room = 4 * np.spacing(np.maximum(qmat.max(axis=1, keepdims=True), cells.max()))
    assert (lower32 >= lower64 - 2 * slack - room).all()
    full32 = pruner.lower_bounds_many_queries(qmat, cells, slack)
    full64 = pruner.lower_bounds_many_queries(qmat, table)
    assert full32.dtype == np.float64 and (full32 <= full64).all()
    if pruner.pairs.size:
        rows = np.arange(table.shape[0])
        for i in range(qmat.shape[0]):
            cell32 = pruner._ptolemaic_cells(qmat, cells, i, rows, slack)
            cell64 = pruner._ptolemaic_cells(qmat, table, i, rows, 0.0)
            assert cell32.dtype == np.float64 and (cell32 <= cell64).all()

    # Lemma 4 from the query side the cascade adds the slack to: never
    # below the float64 table's
    upper32 = upper_bound_many_queries(_slackened(qmat, slack)[1], cells)
    upper64 = upper_bound_many_queries(qmat, table)
    assert upper32.dtype == np.float64 and (upper32 >= upper64).all()

    # the masks, at radii tied with a float64 bound: every cell the float64
    # table keeps survives, and a cell validated is one the float64 table's
    # Lemma 4 validates
    for bounds in (lower64, full64, upper64):
        radius = _tied_radius(bounds, rng)
        for cascade in (lemma1, pruner):
            alive32, _ = cascade.masks_many_queries(qmat, cells, radius, slack=slack)
            alive64, _ = cascade.masks_many_queries(qmat, table, radius)
            assert (alive32 >= alive64).all()
        alive32, validated32 = lemma1.masks_many_queries(
            qmat, cells, radius, validate=True, slack=slack
        )
        assert not (validated32 & (upper64 > radius[:, None])).any()


# -- indexes on which float32 rounding flips a decision ------------------------

# 1 - 2^-30 rounds up to 1.0 in float32, 1 + 2^-30 down to it; on a line under
# L1 every distance below is exact in float64, so Lemma 1 and Lemma 4 are tight
_UP, _DOWN = 1.0 - 2.0**-30, 1.0 + 2.0**-30


def _line(points, name="line") -> Dataset:
    return Dataset(np.asarray(points, dtype=np.float64).reshape(-1, 1), L1, name=name)


def _laesa(dataset, pivots=(0,), **kwargs) -> LAESA:
    return LAESA.build(MetricSpace(dataset, CostCounters()), list(pivots), **kwargs)


def test_lemma1_keeps_an_answer_at_the_radius():
    """The pivot at 0, an object at 1 - 2^-30 (its cell reads 1.0), the query
    at 0.5 and the radius the object's distance: a Lemma 1 bound read off the
    cell alone is 0.5, above the radius, and would drop the answer."""
    dataset = _line([0.0, _UP, 2.5, 3.0])
    index = _laesa(dataset)
    assert index._rows[1, 0] == 1.0 and index.slack > 0
    q, radius = np.array([0.5]), 0.5 - 2.0**-30
    assert index.range_query(q, radius) == [1] == brute_force_range(MetricSpace(dataset), q, radius)
    assert index.range_query_many([q, q], radius) == [[1], [1]]


def test_knn_verifies_the_nearest_before_its_cutoff():
    """k = 1 from 0.5: the object at 1 - 2^-30 is nearer than the one at
    2^-31 by 2^-31.  Read off the cells alone its bound is 0.5, above the
    radius the first verified object leaves, so the query would stop there."""
    dataset = _line([0.0, _UP, 2.0**-31])
    index = _laesa(dataset)
    q = np.array([0.5])
    want = brute_force_knn(MetricSpace(dataset), q, 1)
    assert [n.object_id for n in want] == [1]
    assert index.knn_query(q, 1) == want
    assert index.knn_query_many([q], 1) == [want]


def test_lemma4_validates_no_object_past_the_radius():
    """Validation on, the pivot at 0, an object at 1 + 2^-30 (its cell reads
    1.0), the query at -0.5 and radius 1.5: the object is 1.5 + 2^-30 away,
    but Lemma 4 read off the cell alone is 1.5 and would accept it."""
    dataset = _line([0.0, _DOWN, 3.0])
    index = _laesa(dataset, use_validation=True)
    assert index._rows[1, 0] == 1.0
    q = np.array([-0.5])
    assert index.range_query(q, 1.5) == [0] == brute_force_range(MetricSpace(dataset), q, 1.5)


def test_insert_widens_the_slack_for_a_row_that_rounds():
    """A table of dyadic points is exact in float32 (slack 0); inserting the
    object at 1 - 2^-30 adds a row that rounds, and the slack must cover it
    before a query reads the row."""
    dataset = _line([0.0, 2.5, 3.0])
    index = _laesa(dataset)
    assert index.slack == 0.0
    new_id = index.insert(np.array([_UP]))
    assert index.slack > 0 and index._rows.dtype == np.float32
    assert index._row_ids.dtype == np.int32
    assert index.range_query(np.array([0.5]), 0.5 - 2.0**-30) == [new_id]
    before = index.slack
    index.insert(np.array([0.5]))  # exact in float32: the slack stays
    assert index.slack == before


def test_two_tables_over_one_mapping_read_one_slack():
    """Two LAESAs over one mapping, as the Ptolemaic bench builds them: both
    read its one column store, and the slack measured on the float64 values
    as each column was narrowed -- not the 0 the float32 cells measure of
    themselves, under which a table would drop the answer at the radius."""
    dataset = _line([0.0, _UP, 2.5, 3.0])
    space = MetricSpace(dataset, CostCounters())
    want = narrowed(PivotMapping(space, [0]).matrix)[1]
    mapping = PivotTable(space, [0])
    first = LAESA(space, mapping)
    second = LAESA(space, mapping, pruner=first.pruner)
    assert first.table is second.table is mapping.table
    assert narrowed(first._rows)[1] == 0.0
    assert first.slack == second.slack == want > 0
    q, radius = np.array([0.5]), 0.5 - 2.0**-30
    assert first.range_query(q, radius) == second.range_query(q, radius) == [1]


def test_ptolemaic_cell_keeps_an_answer_at_the_radius():
    """Four points near one circle, in the order q, o, p_i, p_j, where
    Ptolemy's inequality is all but tight: over the float64 table the pair
    bound on o is 4e-12 below d(q, o), over its float32 cells 2.9e-6 above.
    At radius d(q, o), a pair bound that forgot the slack would drop o
    (Lemma 1 is loose here: 416.6 against 432.7)."""
    points = np.array([[-77.29, 997.009], [-820.358, 571.85], [288.298, 957.541]])
    dataset = Dataset(points, L2, name="circle")
    index = _laesa(dataset, pivots=(0, 1))
    assert index.pruner.use_ptolemaic and index.pruner.pairs.shape == (1, 2)
    q = np.array([665.816, 746.116])
    radius = float(L2.one_to_many(q, points[2:])[0])
    assert index.range_query(q, radius) == [2] == brute_force_range(MetricSpace(dataset), q, radius)
    # the flip is the Ptolemaic stage's: the cells alone put o past the radius
    rows = np.array([2])
    qmat = index.mapping.map_query_many([q])
    forgetful = index.pruner._ptolemaic_cells(qmat, index._rows, 0, rows, 0.0)
    assert forgetful[0] > radius
