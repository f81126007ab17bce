"""A stateful oracle for the pivot tables: LAESA, CPT, EPT and EPT* under
the frontier trees' rules (``test_tree_stateful.py``), on the same LA and
Words programs.

Inserts of new objects (some far past every built row, whose ``float32``
rows widen LAESA's and CPT's slack), deletes, re-inserts under the same id,
refused writes, MRQ and MkNNQ one query a call and batched, and save ->
load: every answer is brute force over the live ids, and a restore costs
no compdists and keeps the pruner and the slack.  On LA (L2) every table
runs the Ptolemaic stage; on Words (edit distance) none does.
"""

from __future__ import annotations

from hypothesis.stateful import invariant

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


class TableChecks:
    """What the tables add to the trees' rules."""

    def __init__(self):
        super().__init__()
        self.slacks = {}
        for name, index in self.indexes.items():
            assert index.pruner.use_ptolemaic is self.base.distance.is_ptolemaic
            self.slacks[name] = getattr(index, "slack", 0.0)

    def _check_saved(self, index, restored):
        assert restored.pruner.stats() == index.pruner.stats()
        assert getattr(restored, "slack", None) == getattr(index, "slack", None)

    @invariant()
    def slack_only_widens(self):
        for name, index in self.indexes.items():
            slack = getattr(index, "slack", 0.0)
            assert slack >= self.slacks[name], name
            self.slacks[name] = slack


class LaTables(TableChecks, LaTrees):
    builders = _tables(LA_PIVOTS)


class WordsTables(TableChecks, WordsTrees):
    builders = _tables(WORDS_PIVOTS)


LaTables.TestCase.settings = _SETTINGS
WordsTables.TestCase.settings = _SETTINGS

TestLaTables = LaTables.TestCase
TestWordsTables = WordsTables.TestCase
