"""Tape, pass runner, noise sentinels and statistics of the measurement spine.

A *tape* is a list of :class:`Op` fully determined by the seed.  A *pass*
executes one tape in order, one operation at a time (closed loop, one
client), timing each call and folding each answer into a SHA-256 digest.
Nothing in here knows which index or service is under test: the workload
hands over one executor per operation kind and a function that reads the
cost counters.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

QUERY_KINDS = ("mrq", "knn", "many")
KINDS = QUERY_KINDS + ("update",)


@dataclass(eq=False)
class Op:
    """One operation of a tape.

    ``arg`` is what the executor of ``kind`` receives: a query object (or a
    batch of them) for ``mrq`` / ``knn`` / ``many``, an ``(object_id,
    object)`` pair for ``update`` (delete, then re-insert under the same
    id -- the paper's Table 6 protocol).  ``queries`` is how many queries
    the call answers (0 for an update).  ``check`` asks the runner to fetch
    the brute-force answer into ``expect`` before timing; every later
    execution of the op is compared with it.
    """

    kind: str
    arg: object
    queries: int
    check: bool = False
    hot: bool = False
    expect: object = None


def interleave(counts: dict[str, int]) -> list[str]:
    """Kinds spread evenly over one pass (never run as blocks).

    Operation ``i`` of a kind with ``c`` operations sits at ``(i + 0.5) / c``
    of the pass; sorting all positions gives e.g. ``U R K U`` cycles for
    counts 1 : 1 : 2, so slow drift hits every kind equally.
    """
    slots = sorted(
        ((i + 0.5) / count, kind)
        for kind, count in counts.items()
        for i in range(count)
    )
    return [kind for _, kind in slots]


@dataclass
class PassResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    latency_s: dict = field(default_factory=lambda: {k: [] for k in KINDS})
    hot_latency_s: list = field(default_factory=list)
    # summed CostCounters deltas per kind, in ``count_fields()`` order
    cost: dict = field(default_factory=dict)
    queries: int = 0
    attempted: int = 0
    failed: int = 0
    digest: str = ""


def run_pass(ops, executors, read_counts, tracer=None) -> PassResult:
    """Execute one tape; returns timings, counts, digest and failures.

    ``read_counts()`` returns the current cost counts as a tuple; the delta
    around each call is attributed to the op's kind.  Counter reads, the
    digest and the oracle comparison sit outside the per-call clock but
    inside the pass wall, the same on every commit.
    """
    out = PassResult()
    digest = hashlib.sha256()
    now = time.perf_counter
    cost = out.cost
    t_pass, cpu_pass = now(), time.process_time()
    for op_id, op in enumerate(ops):
        fn = executors[op.kind]
        out.attempted += 1
        if tracer is not None:
            tracer.begin_op(op.kind, op_id)
        before = read_counts()
        t0 = now()
        try:
            answer = fn(op.arg)
        except Exception:
            # a raised call (or a non-2xx reply, which the client raises)
            # is a failed operation, not a reason to lose the run
            out.failed += 1
            if out.failed == 1:
                traceback.print_exc(file=sys.stderr)
            if tracer is not None:
                tracer.end_op()
            continue
        t1 = now()
        after = read_counts()
        if tracer is not None:
            tracer.end_op()
        # a hot-set request is answered by the result cache: its own kind of
        # call, kept out of the medians of the calls that reach an index
        (out.hot_latency_s if op.hot else out.latency_s[op.kind]).append(t1 - t0)
        delta = [a - b for a, b in zip(after, before)]
        seen = cost.get(op.kind)
        cost[op.kind] = delta if seen is None else [s + d for s, d in zip(seen, delta)]
        out.queries += op.queries
        digest.update(repr(answer).encode())
        if op.expect is not None and answer != op.expect:
            out.failed += 1
    out.wall_s = now() - t_pass
    out.cpu_s = time.process_time() - cpu_pass
    out.digest = digest.hexdigest()
    return out


# -- noise sentinels ----------------------------------------------------------


def _ref_py() -> int:
    """Fixed pure-Python kernel: a two-row edit-distance table."""
    a = "pivotbasedmetricindexing" * 3
    b = "measurementspinebenchmark" * 3
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb))
            )
        previous = current
    return previous[-1]


class Sentinels:
    """Two fixed reference kernels, timed between passes.

    ``py`` is interpreter-bound, ``np`` a strided reduction over 32 MB (far
    beyond the caches, so memory-bound).  They are printed beside the
    results so a reader can tell machine drift from a code change: this
    sandbox switches between speed states that last from seconds to whole
    runs, and ``py`` reads twice as long in one as in another.  They never
    normalise or discard a measurement.
    """

    def __init__(self):
        self._table = np.arange(4_000_000, dtype=np.float64)
        self.ms = {"py": [], "np": []}

    def _py(self) -> None:
        for _ in range(30):
            _ref_py()

    def _np(self) -> None:
        for stride in (2, 5) * 5:
            float(self._table[::stride].sum())

    def sample(self) -> None:
        for kernel, fn in (("py", self._py), ("np", self._np)):
            t0 = time.perf_counter()
            fn()
            self.ms[kernel].append((time.perf_counter() - t0) * 1e3)

    def drift(self) -> float:
        """Slowest over fastest sample of a kernel inside the run."""
        return max(max(v) / min(v) for v in self.ms.values())


# -- statistics -----------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return float((q3 - q1) / mid) if mid else 0.0


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with ten samples or fewer there is no
    such percentile and the median is returned as percentile 0.5.
    """
    ordered = sorted(values)
    if len(ordered) <= 10:
        return median(ordered), 0.5
    return float(ordered[-11]), (len(ordered) - 10) / len(ordered)
