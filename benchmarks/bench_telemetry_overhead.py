"""Telemetry overhead gate: observability on must keep >= 95% throughput.

The observability subsystem (``repro.obs``) is sold as cheap enough to
leave on in production: histogram observations are a bisect + two integer
adds under a lock, trace spans are plain objects behind one
``ContextVar`` lookup, and batch cost attribution is two counter
snapshots per batch.  This bench holds that claim to a number:

* **telemetry fully on** -- a shared :class:`MetricsRegistry` wired
  through service, cache and dispatcher instruments, plus a per-request
  trace (``start_trace`` -> span tree -> ``to_dict`` -> ``json.dumps``,
  i.e. the entire slow-query-line envelope) around every query --
* must sustain at least ``MIN_THROUGHPUT_RATIO`` (0.95x) of the
  **telemetry off** throughput (no registry, no trace: every hook is on
  its no-op fast path) on the same Color LAESA workload of single MRQs
  plus one batched MkNNQ call.

Scale note: like bench_wire_codec.py, this bench pins its own Color
cardinality (``REPRO_TELEMETRY_COLOR_N``, default 4000) instead of
following ``REPRO_BENCH_COLOR_N``.  The per-query telemetry envelope is
a fixed few tens of microseconds; the gate is only honest when query
evaluation dominates it.  At smoke scale (200 objects) a range query
answers in ~0.1 ms and the ratio would measure the envelope against
nothing, flapping on scheduler noise.

Noise note: on shared CI runners the CPU's effective speed wanders by
several percent over seconds, so timing the two modes in separate loops
measures the drift, not the overhead.  Instead the gate times ``PAIRS``
back-to-back (off, on) pass pairs -- adjacent runs share one frequency
window, so each pair's ratio cancels the drift -- alternates which mode
goes first (the second of two identical workloads enjoys warmer caches,
and alternation cancels that position bias too), and gates the *median*
pair ratio, which a handful of noisy pairs cannot move.  Exactness
(telemetry must never change an answer) and the attribution invariant
(the traced batch cost equals the counters' measured delta) are
asserted before anything is timed.
"""

from __future__ import annotations

import json
import os
import statistics

import pytest

from repro import QueryService
from repro.bench import build_all, default_workloads, format_table
from repro.bench.runner import _best_seconds
from repro.obs import MetricsRegistry, tracing

from _bench_common import N_QUERIES, emit

TELEMETRY_COLOR_N = int(os.environ.get("REPRO_TELEMETRY_COLOR_N", "4000"))

SELECTIVITY = 0.16
K = 10
WARMUP = 2
PAIRS = 64
MIN_THROUGHPUT_RATIO = 0.95  # the tentpole's acceptance bound


@pytest.fixture(scope="module")
def color_workload():
    return default_workloads(
        n=TELEMETRY_COLOR_N, color_n=TELEMETRY_COLOR_N, n_queries=max(6, N_QUERIES)
    )["Color"]


@pytest.fixture(scope="module")
def color_laesa(color_workload):
    return build_all(color_workload, ("LAESA",))["LAESA"].index


def _plain_pass(service, queries, radius):
    for q in queries:
        service.range_query(q, radius)
    service.knn_query_many(queries, K)


def _traced_pass(service, queries, radius):
    """One pass paying the full per-request envelope the HTTP layer pays:
    a root span per request, batch cost attribution inside, and the
    slow-query line's span-tree serialisation after."""
    for q in queries:
        with tracing.start_trace("request", method="POST", path="/range") as root:
            service.range_query(q, radius)
        json.dumps(root.to_dict())
    with tracing.start_trace("request", method="POST", path="/knn_batch") as root:
        service.knn_query_many(queries, K)
    json.dumps(root.to_dict())


def _batch_cost(node: dict) -> int:
    if node["name"] == "batch_execute":
        return node["cost"].get("distance_computations", 0)
    return sum(_batch_cost(child) for child in node.get("spans", ()))


def test_telemetry_overhead_ratio(color_workload, color_laesa):
    radius = color_workload.radius_for(SELECTIVITY)
    queries = list(color_workload.queries)

    # both modes serve the same index; cache off + no dispatcher thread so
    # every pass re-evaluates and the timing has no thread-handoff noise
    service_kw = dict(cache_size=0, use_dispatcher=False)
    off = QueryService(color_laesa, **service_kw)
    on = QueryService(color_laesa, metrics=MetricsRegistry(), **service_kw)

    # telemetry must never change an answer
    expected_range = color_laesa.range_query_many(queries, radius)
    expected_knn = color_laesa.knn_query_many(queries, K)
    assert [off.range_query(q, radius) for q in queries] == expected_range
    with tracing.start_trace("request") as root:
        assert [on.range_query(q, radius) for q in queries] == expected_range
        assert on.knn_query_many(queries, K) == expected_knn

    # ... and the attribution invariant holds on this very workload: one
    # traced request's batch cost equals the counters' measured delta
    before = on.counters.snapshot()
    with tracing.start_trace("request") as root:
        on.range_query(queries[0], radius)
    delta = on.counters.snapshot() - before
    assert delta.distance_computations > 0
    assert _batch_cost(root.to_dict()) == delta.distance_computations

    plain = lambda: _plain_pass(off, queries, radius)  # noqa: E731
    traced = lambda: _traced_pass(on, queries, radius)  # noqa: E731
    for _ in range(WARMUP):
        plain()
        traced()
    ratios = []
    best = {"off": float("inf"), "on": float("inf")}
    for i in range(PAIRS):
        if i % 2 == 0:
            t_off = _best_seconds(plain, 1)
            t_on = _best_seconds(traced, 1)
        else:
            t_on = _best_seconds(traced, 1)
            t_off = _best_seconds(plain, 1)
        ratios.append(t_off / t_on)
        best["off"] = min(best["off"], t_off)
        best["on"] = min(best["on"], t_on)
    ratio = statistics.median(ratios)  # throughput kept with telemetry on

    # guard against measuring an accidentally-disarmed hot path: the on
    # mode must actually have recorded per-kind batch executions
    batch_ms = on.metrics.get("repro_service_batch_execute_ms")
    assert batch_ms.labels("range").snapshot()[1] > 0
    assert batch_ms.labels("knn").snapshot()[1] > 0

    rows = [
        {
            "Mode": "telemetry off",
            "Best pass ms": round(best["off"] * 1000.0, 3),
            "Throughput kept": 1.0,
        },
        {
            "Mode": "telemetry on (metrics + traces)",
            "Best pass ms": round(best["on"] * 1000.0, 3),
            "Throughput kept": round(ratio, 4),
        },
    ]
    emit(
        "telemetry_overhead",
        format_table(
            rows,
            title=(
                f"Telemetry overhead: Color LAESA (n={TELEMETRY_COLOR_N}), "
                f"{len(queries)} MRQs + 1 batched MkNNQ per pass"
            ),
            first_column="Mode",
        ),
    )
    assert ratio >= MIN_THROUGHPUT_RATIO, rows
