"""Shared fixtures: small datasets, pivots, and index builders.

Index construction is the slow part of the suite, so built indexes are
cached per (dataset, index) in session scope; query tests share them.
Tests that mutate an index build their own copies.
"""

from __future__ import annotations

import copy
import faulthandler
import json
import signal
from pathlib import Path

import numpy as np
import pytest

from repro import (
    CostCounters,
    MetricSpace,
    make_color,
    make_la,
    make_synthetic,
    make_words,
    select_pivots,
)
from repro.bench.runner import build_index
from repro.core.quantise import Frame
from repro.core.staged import StagedPruner
from repro.service.migrate import migrate

N_SMALL = 400
N_PIVOTS = 4

# every test's deadline, in seconds: several times the slowest test's wall
# (4.8 s on a 2-core box).  A test that runs past it fails with
# ``TimeoutError`` instead of stalling the suite; never raise it to let a
# test pass
TEST_DEADLINE_S = 60.0
# past this, a hang no Python handler can interrupt (inside C code) dumps
# every thread's traceback and ends the run
_BACKSTOP_S = 30.0


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Run the test under its deadline: a real-time timer whose handler
    raises ``TimeoutError`` in the test (Python runs signal handlers in the
    main thread, so a hang in another thread surfaces through the main
    thread's bounded wait on it), and ``faulthandler`` behind it."""

    def expire(signum, frame):
        raise TimeoutError(f"{item.nodeid} ran past its {TEST_DEADLINE_S:g} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_DEADLINE_S)
    faulthandler.dump_traceback_later(TEST_DEADLINE_S + _BACKSTOP_S, exit=True)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        faulthandler.cancel_dump_traceback_later()
        signal.signal(signal.SIGALRM, previous)

DATASET_MAKERS = {
    "LA": lambda: make_la(N_SMALL, seed=11),
    "Words": lambda: make_words(N_SMALL, seed=11),
    "Color": lambda: make_color(200, seed=11),
    "Synthetic": lambda: make_synthetic(N_SMALL, seed=11),
}

# a radius with moderate selectivity per dataset family (pre-calibrated to
# keep fixtures deterministic and cheap)
RADIUS = {"LA": 900.0, "Words": 5.0, "Color": 9000.0, "Synthetic": 2500.0}

CONTINUOUS_INDEXES = (
    "AESA",
    "LAESA",
    "EPT",
    "EPT*",
    "CPT",
    "VPT",
    "MVPT",
    "PM-tree",
    "Omni-seq",
    "OmniB+",
    "OmniR-tree",
    "M-index",
    "M-index*",
    "SPB-tree",
)
DISCRETE_ONLY_INDEXES = ("BKT", "FQT", "FQA")
DISCRETE_DATASETS = ("Words", "Synthetic")


def indexes_for(dataset_name: str) -> tuple[str, ...]:
    """Index names applicable to a dataset (paper Tables 4/6 blanks)."""
    if dataset_name in DISCRETE_DATASETS:
        return CONTINUOUS_INDEXES + DISCRETE_ONLY_INDEXES
    return CONTINUOUS_INDEXES


@pytest.fixture(scope="session")
def datasets():
    return {name: maker() for name, maker in DATASET_MAKERS.items()}


@pytest.fixture(scope="session")
def pivots(datasets):
    out = {}
    for name, dataset in datasets.items():
        out[name] = select_pivots(
            MetricSpace(dataset), N_PIVOTS, strategy="hfi", seed=3
        )
    return out


@pytest.fixture(scope="session")
def built_indexes(datasets, pivots):
    """Lazy cache of built indexes: call with (dataset_name, index_name)."""
    cache: dict[tuple[str, str], object] = {}

    def get(dataset_name: str, index_name: str):
        key = (dataset_name, index_name)
        if key not in cache:
            space = MetricSpace(datasets[dataset_name], CostCounters())
            cache[key] = build_index(
                index_name,
                space,
                pivots[dataset_name],
                workload_name=dataset_name,
                seed=5,
                **({"maxnum": 64} if index_name in ("M-index", "M-index*") else {}),
            )
        return cache[key]

    return get


# snapshots written by earlier versions of the code: ``load_index`` refuses
# them, ``repro migrate`` converts them
DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def migrated(tmp_path_factory):
    """``migrated(name)``: the path of ``tests/data/<name>`` converted by
    :func:`~repro.service.migrate.migrate`, once a session."""
    out = tmp_path_factory.mktemp("migrated")
    done: dict[str, Path] = {}

    def path(name: str) -> Path:
        if name not in done:
            migrate(DATA / name, out / name)
            done[name] = out / name
        return done[name]

    return path


# a header whose shape is wrong, each edit alone: before it was checked,
# the first two escaped ``snapshot_info`` and ``load_index`` as an
# AttributeError / TypeError, the string size escaped ``load_index`` as a
# TypeError, and the negative one read the rest of the file as payload
MALFORMED_HEADERS = {
    "a JSON list": lambda header: [header],
    "no index_name": lambda header: {k: v for k, v in header.items() if k != "index_name"},
    "payload_bytes a string": lambda header: {**header, "payload_bytes": "12"},
    "payload_bytes negative": lambda header: {**header, "payload_bytes": -1},
}


def rewrite_header(path: Path, edit) -> None:
    """Replace a saved snapshot's JSON header by ``edit(header)``; regions
    and payload stay where they are (they start at the next 4 KiB
    boundary)."""
    blob = path.read_bytes()
    length = int.from_bytes(blob[8:12], "big")
    header = edit(json.loads(blob[12 : 12 + length]))
    text = json.dumps(header, sort_keys=True).encode()
    prefix = blob[:8] + len(text).to_bytes(4, "big") + text
    assert len(prefix) <= 4096 and 12 + length <= 4096
    path.write_bytes(prefix + bytes(4096 - len(prefix)) + blob[4096:])


def fresh_index(datasets, pivots, dataset_name: str, index_name: str):
    """A brand-new index instance for mutation tests."""
    space = MetricSpace(datasets[dataset_name], CostCounters())
    kwargs = {"maxnum": 64} if index_name in ("M-index", "M-index*") else {}
    return build_index(
        index_name,
        space,
        pivots[dataset_name],
        workload_name=dataset_name,
        seed=5,
        **kwargs,
    )


def lemma1_baseline(index):
    """``index`` with the same pruner minus its pivot pairs: the column
    order and prefix the build chose, stages 1-3 only.  AESA keeps no
    pruner; its copy stops adding the dynamic pair bound."""
    baseline = copy.copy(index)
    p = getattr(index, "pruner", None)
    if isinstance(p, StagedPruner):
        baseline.pruner = StagedPruner(p.order, p.prefix)
    else:
        baseline._use_ptolemaic = False
    return baseline


class TreeNode:
    """Node ``i`` of a tree index's preorder columns, read live: every
    attribute reads the index as it is now (a leaf's ids and codes through
    any write overlay).  A test-side view; the trees hold no node objects."""

    def __init__(self, index, i: int):
        self.index, self.i = index, int(i)

    @property
    def _fan(self) -> int:
        return int(self.index._rows[self.i, 0])

    @property
    def is_leaf(self) -> bool:
        return self._fan == 0

    @property
    def level(self) -> int:  # an internal node's key: its level or pivot
        return int(self.index._rows[self.i, 1])

    pivot_id = depth = level  # BKT's key; a leaf's depth

    @property
    def ids(self):
        return self.index._leaf_columns([self.i])[0]

    @property
    def codes(self) -> bytes:
        return self.index._leaf_columns([self.i])[1].tobytes()

    def _bounds(self, side: int):
        b = 2 * int(self.index._at[self.i])
        return self.index._bounds[b + side * self._fan : b + (side + 1) * self._fan]

    @property
    def lows(self):
        return self._bounds(0)

    @property
    def highs(self):
        return self._bounds(1)

    @property
    def children(self):
        first = int(self.index._at[self.i])
        return [TreeNode(self.index, c) for c in self.index._child[first : first + self._fan]]


def tree_root(index) -> TreeNode:
    return TreeNode(index, 0)


def tree_nodes(index):
    """Every node of a tree index, in preorder: node ``i`` is row ``i``."""
    return (TreeNode(index, i) for i in range(len(index._rows)))


def leaf_code_rows(index):
    """Every (leaf, slot, object id, path levels' exact distances, decoded
    intervals, bands) of an MVPT / VPT, after checking each leaf's layout.

    A level's code is a cell of the band its ancestor at that level holds
    the object's subtree in: the child bounds there, or the bounds they
    stood at before an insert stretched them (``index._stretched``).  It
    decodes through :meth:`Frame.band`, its end cells ending at the bounds
    as they stand now; ``bands`` holds each level's ``(code band, bounds
    now)``.  The exact distance is recomputed from the dataset, uncounted.
    """
    dataset, distance = index.space.dataset, index.space.distance
    rows = []
    stack = [(tree_root(index), ())]
    while stack:
        node, path = stack.pop()
        if not node.is_leaf:
            assert node.level == len(path)
            first = 2 * int(index._at[node.i])
            fan = len(node.children)
            stack.extend(
                (child, path + ((first + j, first + fan + j),))
                for j, child in enumerate(node.children)
            )
            continue
        depth = len(path)
        assert node.depth == depth
        assert node.ids.dtype == np.intc
        assert len(node.codes) == depth * len(node.ids)
        bands = []
        for low_at, high_at in path:
            now = (float(index._bounds[low_at]), float(index._bounds[high_at]))
            bands.append((index._stretched.get(low_at, now), now))
        for slot, object_id in enumerate(node.ids):
            codes = node.codes[slot * depth : (slot + 1) * depth]
            exact = [
                distance(dataset[object_id], dataset[index.pivot_ids[level]])
                for level in range(depth)
            ]
            decoded = []
            for code, (band, now) in zip(codes, bands):
                low, high = Frame.band(*band, index.space.is_discrete).bounds(code)
                decoded.append((max(float(low), now[0]), min(float(high), now[1])))
            rows.append((node, slot, object_id, exact, decoded, bands))
    return rows


def assert_codes_hold(index) -> int:
    """Each decoded interval contains the exact distance; returns how many
    (object, level) codes were checked."""
    checked = 0
    for _, _, object_id, exact, decoded, _ in leaf_code_rows(index):
        for level, (d, (low, high)) in enumerate(zip(exact, decoded)):
            assert low <= d <= high, (object_id, level, d, low, high)
            checked += 1
    return checked
