"""Design rules of ``src/repro``, checked on its syntax trees.

Each rule keeps one step of the code in one place, so a second copy fails
here, in tier-1, and not in review.  A rule reads imports, calls,
assignments and definitions through :mod:`ast` (a comment or a docstring
that names a step is no violation; an import or call spelled another way
still is).  ``test_a_planted_violation_breaks_its_rule`` holds every rule
to a planted violation, so a rule that stops seeing anything fails too.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
# a module's tree, parsed once a session
_parse = functools.lru_cache(maxsize=None)(ast.parse)


def _sources() -> dict[str, str]:
    """``{path under src/repro: source}`` of every module."""
    return {path.relative_to(SRC).as_posix(): path.read_text() for path in sorted(SRC.rglob("*.py"))}


def _name(node) -> str | None:
    """The last name of a ``Name`` or ``Attribute`` (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _nodes(sources, kind, under=""):
    """``(path, node)`` for every ``kind`` node of the modules under ``under``."""
    for path, text in sources.items():
        if path.startswith(under):
            for node in ast.walk(_parse(text)):
                if isinstance(node, kind):
                    yield path, node


def _calls(sources, names, under=""):
    """``(path, line)`` of every call of a callee named in ``names``."""
    return [
        (path, node.lineno)
        for path, node in _nodes(sources, ast.Call, under)
        if _name(node.func) in names
    ]


def heapq_importers(sources) -> set[str]:
    """Modules importing ``heapq``, in either form."""
    return {
        path
        for path, node in _nodes(sources, (ast.Import, ast.ImportFrom))
        if (
            any(alias.name.split(".")[0] == "heapq" for alias in node.names)
            if isinstance(node, ast.Import)
            else (node.module or "").split(".")[0] == "heapq"
        )
    }


def knn_heap_builders(sources) -> set[str]:
    """Modules under ``external/`` constructing a ``KnnHeap``."""
    return {path for path, _ in _calls(sources, {"KnnHeap"}, "external/")}


def fetch_chunk_assignments(sources) -> list[tuple[str, int]]:
    """Every assignment to a name or attribute ``FETCH_CHUNK``."""
    found = []
    for path, node in _nodes(sources, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        found += [(path, node.lineno) for t in targets if _name(t) == "FETCH_CHUNK"]
    return found


def table_copies(sources) -> list[tuple[str, int]]:
    """Calls of numpy's ``concatenate`` / ``delete`` under ``tables/``, as
    ``np.concatenate`` or as a name imported from numpy."""
    found = []
    for path, text in sources.items():
        if not path.startswith("tables/"):
            continue
        tree = _parse(text)
        modules, names = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {a.asname or a.name for a in node.names if a.name == "numpy"}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                names |= {a.asname or a.name for a in node.names if a.name in ("concatenate", "delete")}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("concatenate", "delete")
                and _name(func.value) in modules
            ) or (isinstance(func, ast.Name) and func.id in names):
                found.append((path, node.lineno))
    return found


_TABLE_READS = {"matrix", "vector", "append"}


def mapping_table_reads(sources) -> list[tuple[str, int]]:
    """``<...mapping>.matrix`` / ``.vector`` / ``.append``, attribute or
    ``getattr``, on anything whose name ends in ``mapping``."""
    found = []
    for path, node in _nodes(sources, (ast.Attribute, ast.Call)):
        if isinstance(node, ast.Attribute):
            owner, attr = node.value, node.attr
        elif _name(node.func) == "getattr" and len(node.args) >= 2:
            owner, attr = node.args[0], getattr(node.args[1], "value", None)
        else:
            continue
        if attr in _TABLE_READS and (_name(owner) or "").endswith("mapping"):
            found.append((path, node.lineno))
    return found


def max_distance_bound_uses(sources) -> list[tuple[str, int]]:
    """Any name, attribute, definition, argument or string holding
    ``max_distance_bound``."""
    found = []
    for path, node in _nodes(sources, ast.AST):
        words = [
            getattr(node, field, None) for field in ("id", "attr", "name", "arg", "asname")
        ]
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            words.append(node.value)
        if any(isinstance(w, str) and "max_distance_bound" in w for w in words):
            found.append((path, getattr(node, "lineno", 0)))
    return found


def spbtree_frames(sources) -> list[tuple[str, int]]:
    """Calls in ``external/spbtree.py`` of ``Frame`` or of one of its
    attributes (``Frame.uniform(...)``)."""
    return [
        (path, node.lineno)
        for path, node in _nodes(sources, ast.Call, "external/spbtree.py")
        if "Frame" in (_name(node.func), _name(getattr(node.func, "value", None)))
    ]


def spbtree_key_decodes(sources) -> dict[int, str]:
    """``{line: outermost function}`` of every ``decode*`` call in
    ``external/spbtree.py`` (``"<module>"`` outside any function)."""
    tree = _parse(sources["external/spbtree.py"])
    where = {}
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for func in functions:  # ast.walk meets an outer function before its inner ones
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and (_name(node.func) or "").startswith("decode"):
                where.setdefault(node.lineno, func.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (_name(node.func) or "").startswith("decode"):
            where.setdefault(node.lineno, "<module>")
    return where


# the modules that hold or read a pivot table's cells
_CELL_MODULES = ("tables/", "core/mapping.py", "core/staged.py", "core/pivot_filter.py")


def float32_uses(sources) -> list[tuple[str, int]]:
    """``(path, line)`` of every ``float32`` name or attribute, and of every
    ``"float32"`` / ``"f4"`` dtype string, in the cell modules."""
    found = []
    for under in _CELL_MODULES:
        for path, node in _nodes(sources, (ast.Name, ast.Attribute, ast.Constant), under):
            value = node.value if isinstance(node, ast.Constant) else _name(node)
            if isinstance(value, str) and value.lstrip("<>=|") in ("float32", "f4"):
                found.append((path, node.lineno))
    return found


def snapshot_error_raisers(sources) -> set[str]:
    """Modules raising ``SnapshotError``."""
    return {
        path
        for path, node in _nodes(sources, ast.Raise)
        if node.exc is not None
        and _name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc) == "SnapshotError"
    }


def setstate_definitions(sources) -> set[tuple[str, str]]:
    """``(path, class)`` of every ``def __setstate__`` (``"<module>"``
    outside a class body)."""
    found = set()
    for path, text in sources.items():
        tree = _parse(text)
        owners = {
            id(item): cls.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for item in cls.body
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__setstate__":
                found.add((path, owners.get(id(node), "<module>")))
    return found


def setstate_bindings(sources) -> set[str]:
    """Modules binding ``__setstate__`` other than by ``def``: an
    assignment, or a ``"__setstate__"`` key of a class namespace."""
    found = set()
    for path, node in _nodes(sources, (ast.Assign, ast.Dict)):
        if isinstance(node, ast.Assign):
            names = [_name(t) for t in node.targets]
        else:
            names = [getattr(k, "value", None) for k in node.keys]
        if "__setstate__" in names:
            found.add(path)
    return found


# ---------------------------------------------------------------------------
# the rules
# ---------------------------------------------------------------------------


def test_heapq_is_imported_by_the_two_walks_alone(sources=None):
    """One best-first walk for the paged indexes: their MkNNQ is
    ``core.queries.best_first_walk`` and the frontier trees' walk is
    ``trees/common.py``; a third heap loop is a second copy of a walk."""
    assert heapq_importers(sources or _sources()) == {"core/queries.py", "trees/common.py"}


def test_the_disk_indexes_build_a_knn_heap_in_external_batch_alone(sources=None):
    """The disk indexes' expanding-radius rounds are written once, in
    ``external/batch.py``: no other disk index keeps a kNN heap."""
    assert knn_heap_builders(sources or _sources()) == {"external/batch.py"}


def test_the_chunked_fetch_has_one_chunk_size(sources=None):
    """Every eager chunked fetch is ``storage.pager.page_ordered_chunks``
    with the one ``FETCH_CHUNK``; tests patch that one name."""
    assert [path for path, _ in fetch_chunk_assignments(sources or _sources())] == ["storage/pager.py"]


def test_a_pivot_table_write_copies_no_table(sources=None):
    """The pivot tables write into their column store, ``tables/store.py``
   : an insert fills spare room and a delete writes a tombstone,
    so nothing under ``tables/`` concatenates or deletes array rows."""
    assert table_copies(sources or _sources()) == []


def test_no_pivot_mapping_table_is_read(sources=None):
    """A pivot mapping keeps its pivots and their extent, never the
    ``n x l`` table a build reads and drops."""
    assert mapping_table_reads(sources or _sources()) == []


def test_no_max_distance_bound_is_left(sources=None):
    """The mapping's table-wide distance bound went with its table:
    the OmniB+ / M-index first kNN radius reads the extent."""
    assert max_distance_bound_uses(sources or _sources()) == []


def test_the_spbtree_grid_is_marks_alone(sources=None):
    """The SPB-tree's grid is ``core/quantise.py``'s ``Marks``: it
    builds no ``Frame``, so there is no second quantiser path."""
    assert spbtree_frames(sources or _sources()) == []


def test_the_spbtree_decodes_a_key_only_in_cells_of(sources=None):
    """SPB-tree leaves keep cells, not keys: a query never decodes
    a key, and ``cells_of`` -- the conversion ``repro migrate`` gives a tree
    written without cells -- is the one decode."""
    assert set(spbtree_key_decodes(sources or _sources()).values()) == {"cells_of"}


def test_pivot_table_cells_have_one_format(sources=None):
    """A pivot table's cells are ``uint16`` codes on its grid alone: no
    module that holds or reads them names ``float32``, so there is no
    second cell format beside the grid."""
    assert float32_uses(sources or _sources()) == []


def test_snapshot_error_is_raised_by_the_snapshot_module_alone(sources=None):
    """The snapshot format number is the one layout check: the
    snapshot module refuses a file, and no index class refuses a state
    shape of its own; ``repro migrate`` converts every older one."""
    assert snapshot_error_raisers(sources or _sources()) == {"service/snapshot.py"}


def test_setstate_restores_runtime_state_alone(sources=None):
    """An index class reads no retired layout on load: only three
    classes define ``__setstate__``, each to restore what pickling drops
    (the counters' lock, the column store's view, a tree's derived
    columns), and only ``service/migrate.py`` binds one otherwise, for its
    stand-ins of retired state shapes."""
    sources = sources or _sources()
    assert setstate_definitions(sources) == {
        ("core/counters.py", "CostCounters"),
        ("tables/store.py", "ColumnStore"),
        ("trees/common.py", "FrontierTreeMixin"),
    }
    assert setstate_bindings(sources) <= {"service/migrate.py"}


# ---------------------------------------------------------------------------
# every rule sees a planted violation
# ---------------------------------------------------------------------------

PLANTED = {
    test_heapq_is_imported_by_the_two_walks_alone: ("external/omni.py", "from heapq import heappush\n"),
    test_the_disk_indexes_build_a_knn_heap_in_external_batch_alone: (
        "external/mindex.py",
        "heap = queries.KnnHeap(3)\n",
    ),
    test_the_chunked_fetch_has_one_chunk_size: ("tables/cpt.py", "pager.FETCH_CHUNK = 64\n"),
    test_a_pivot_table_write_copies_no_table: (
        "tables/laesa.py",
        "from numpy import concatenate as glue\nrows = glue([a, b])\n",
    ),
    test_no_pivot_mapping_table_is_read: (
        "external/omni.py",
        "row = getattr(self.mapping, 'matrix')[3]\n",
    ),
    test_no_max_distance_bound_is_left: ("core/mapping.py", "def max_distance_bound(self):\n    pass\n"),
    test_the_spbtree_grid_is_marks_alone: ("external/spbtree.py", "grid = Frame.uniform(9.0, False)\n"),
    test_the_spbtree_decodes_a_key_only_in_cells_of: (
        "external/spbtree.py",
        "def range_query(self, q, r):\n    return self.curve.decode_many([q])\n",
    ),
    test_pivot_table_cells_have_one_format: (
        "core/staged.py",
        "cells = np.asarray(table, dtype=np.float32)\n",
    ),
    test_snapshot_error_is_raised_by_the_snapshot_module_alone: (
        "trees/mvpt.py",
        "def refuse():\n    raise snapshot.SnapshotError('an old MVPT')\n",
    ),
    test_setstate_restores_runtime_state_alone: (
        "external/spbtree.py",
        "class SPBTree:\n    def __setstate__(self, state):\n        pass\n",
    ),
}


@pytest.mark.parametrize("rule", PLANTED, ids=lambda rule: rule.__name__)
def test_a_planted_violation_breaks_its_rule(rule):
    sources = _sources()
    path, planted = PLANTED[rule]
    sources[path] += "\n\n" + planted
    with pytest.raises(AssertionError):
        rule(sources)


def test_every_rule_has_a_planted_violation():
    rules = {
        value
        for name, value in globals().items()
        if name.startswith("test_") and value.__code__.co_varnames[:1] == ("sources",)
    }
    assert rules == set(PLANTED)
