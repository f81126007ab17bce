"""A stateful oracle for the pivot tables: LAESA, CPT, EPT and EPT* under
the frontier trees' rules (``test_tree_stateful.py``), on the same LA and
Words programs.

Inserts of new objects (some far past every built row, whose ``float32``
rows widen LAESA's and CPT's slack), deletes, re-inserts under the same id,
updates (a delete and the same object put back at once), refused writes,
MRQ and MkNNQ one query a call and batched, and save -> load: every answer
is brute force over the live ids, and a restore costs no compdists and
keeps the pruner and the slack.  A new object's row is the store's end
row; an update whose row comes back bit for bit revives the row it had
and grows no table (LAESA's and CPT's always do; EPT and EPT* choose an
object's pivots again, and a row chosen otherwise appends).  On LA (L2)
every table runs the Ptolemaic stage; on Words (edit distance) none does.
On LA, where an insert is cheap for every table, a churn step deletes past
the eighth of the used slots at which a column store compacts, puts the
objects back and inserts new ones past its spare room, so it grows.  After
every step the store holds the live ids once each, its tombstones counted
and under an eighth of the used slots.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st
from hypothesis.stateful import invariant, precondition, rule

from repro.tables.cpt import CPT
from repro.tables.ept import EPT, EPTStar
from repro.tables.laesa import LAESA
from test_tree_stateful import _SETTINGS, LA_PIVOTS, WORDS_PIVOTS, LaTrees, WordsTrees


def _tables(pivots) -> dict:
    return {
        "LAESA": lambda space: LAESA.build(space, pivots),
        "CPT": lambda space: CPT.build(space, pivots),
        "EPT": lambda space: EPT.build(space, n_groups=len(pivots), seed=3),
        "EPT*": lambda space: EPTStar.build(space, n_pivots_per_object=len(pivots), seed=3),
    }


def _row(view, at) -> bytes:
    """Row ``at``'s cells (and slots) as the store holds them."""
    held = view.cells[:, at].tobytes()
    return held if view.slots is None else held + view.slots[:, at].tobytes()


class TableChecks:
    """What the tables add to the trees' rules."""

    def __init__(self):
        super().__init__()
        self.slacks = {}
        for name, index in self.indexes.items():
            assert index.pruner.use_ptolemaic is self.base.distance.is_ptolemaic
            self.slacks[name] = getattr(index, "slack", 0.0)

    @rule(seed=st.integers(0, 10_000), far=st.booleans())
    def insert_new(self, seed, far):
        ends = {name: index.table.view.used for name, index in self.indexes.items()}
        super().insert_new(seed, far)
        new_id = len(self.oracle.dataset) - 1
        for name, index in self.indexes.items():
            assert index.table.find(new_id) == ends[name], name

    @precondition(lambda self: len(self.live) > 10)
    @rule(data=st.data())
    def update(self, data):
        object_id = data.draw(st.sampled_from(sorted(self.live)))
        for name, index in self.indexes.items():
            view, at = index.table.view, index.table.find(object_id)
            row, memory = _row(view, at), index.storage_bytes()["memory"]
            index.delete(object_id)
            index.insert(self._stored(object_id), object_id=object_id)
            now = index.table.find(object_id)
            if _row(index.table.view, now) == row:
                assert now == at and index.table.view.used == view.used, name
                assert index.storage_bytes()["memory"] == memory, name
            else:  # pivots chosen again, otherwise
                assert name in ("EPT", "EPT*") and now == view.used, name

    def _check_saved(self, index, restored):
        assert restored.pruner.stats() == index.pruner.stats()
        assert getattr(restored, "slack", None) == getattr(index, "slack", None)

    @invariant()
    def store_holds_the_live_ids(self):
        for name, index in self.indexes.items():
            view = index.table.view
            ids = view.row_ids
            assert view.used <= len(view.ids) == view.cells.shape[1], name
            assert view.dead == int((ids < 0).sum()) and 8 * view.dead <= view.used, name
            assert sorted(ids[ids >= 0].tolist()) == sorted(self.live), name

    @invariant()
    def slack_only_widens(self):
        for name, index in self.indexes.items():
            slack = getattr(index, "slack", 0.0)
            assert slack >= self.slacks[name], name
            self.slacks[name] = slack


class LaTables(TableChecks, LaTrees):
    builders = _tables(LA_PIVOTS)

    @precondition(lambda self: len(self.live) > 40)
    @rule(seed=st.integers(0, 10_000))
    def churn(self, seed):
        """A sixth of the live objects deleted -- the store compacts into
        fresh arrays -- then every one put back (the rows tombstoned since
        the compaction revived, the others appended) and new objects
        inserted past the eighth it kept to spare, so it grows."""
        shuffled = np.random.default_rng(seed).permutation(sorted(self.live)).tolist()
        victims = shuffled[: len(self.live) // 6]
        held = {name: index.table.view.cells for name, index in self.indexes.items()}
        for object_id in victims:
            for index in self.indexes.values():
                index.delete(object_id)
            self.live.remove(object_id)
        for name, index in self.indexes.items():
            assert index.table.view.cells is not held[name], f"{name} did not compact"
            held[name] = index.table.view.cells
        for object_id in victims:
            for index in self.indexes.values():
                index.insert(self._stored(object_id), object_id=object_id)
            self.live.add(object_id)
        spare = max(len(i.table.view.ids) - i.table.view.used for i in self.indexes.values())
        for step in range(spare + 1):
            self.insert_new(seed + step, False)
        for name, index in self.indexes.items():
            assert index.table.view.cells is not held[name], f"{name} did not grow"


class WordsTables(TableChecks, WordsTrees):
    builders = _tables(WORDS_PIVOTS)


LaTables.TestCase.settings = _SETTINGS
WordsTables.TestCase.settings = _SETTINGS

TestLaTables = LaTables.TestCase
TestWordsTables = WordsTables.TestCase
