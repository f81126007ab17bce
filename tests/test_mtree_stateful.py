"""A stateful oracle for the M-tree family: the M-tree and the PM-tree
(``MTreeIndex`` without and with a pivot mapping) under the frontier
trees' rules (``test_tree_stateful.py``), on the same LA and Words programs.

Inserts of new objects (some far past the pivots' spread), deletes,
re-inserts under the same id, refused writes, MRQ and MkNNQ one query a
call and batched, and save -> load: every answer is brute force over the
live ids, an MRQ alone costs the compdists of a batch of one, and a
restore costs none.  After every save both the saved tree and the restored
one pass :meth:`~repro.mtree.mtree.MTree.check_invariants` (parent
distances, covering balls, MBBs, the leaf directory).  The pages hold four
entries, so a tree is several levels deep and inserts split nodes.
"""

from __future__ import annotations

from repro.external import MTreeIndex, PMTree
from test_tree_stateful import _SETTINGS, LA_PIVOTS, WORDS_PIVOTS, LaTrees, WordsTrees

PAGE_SIZE = 512  # four entries a node at this n, on both datasets


def _trees(pivots) -> dict:
    return {
        "M-tree": lambda space: MTreeIndex.build(space, page_size=PAGE_SIZE, seed=3),
        "PM-tree": lambda space: PMTree.build(space, pivots, page_size=PAGE_SIZE, seed=3),
    }


class MTreeChecks:
    """What the M-tree family adds to the trees' rules."""

    def _check_saved(self, index, restored):
        index.mtree.check_invariants()
        restored.mtree.check_invariants()


class LaMTrees(MTreeChecks, LaTrees):
    builders = _trees(LA_PIVOTS)


class WordsMTrees(MTreeChecks, WordsTrees):
    builders = _trees(WORDS_PIVOTS)


LaMTrees.TestCase.settings = _SETTINGS
WordsMTrees.TestCase.settings = _SETTINGS

TestLaMTrees = LaMTrees.TestCase
TestWordsMTrees = WordsMTrees.TestCase
