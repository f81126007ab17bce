"""Observability: metrics primitives, trace spans, and cost attribution.

Covers the telemetry tentpole's core contracts:

* histograms have fixed log-spaced boundaries, merge by vector addition,
  and derive p50/p90/p99 from bucket counts;
* the registry renders valid Prometheus text exposition and is strict
  about re-declaration mismatches;
* tracing is a no-op without an active root span and builds proper span
  trees with one;
* batch cost attribution is **sum-exact**: the attributed shares of a
  coalesced batch reconstruct the measured ``CostCounters`` delta field
  by field (``CostSnapshot.split``), and a batch executed alone is
  attributed exactly;
* ``CostCounters``/``CostSnapshot`` serialisation surfaces are
  field-complete by reflection, so adding a counter field can never
  silently drop it from merge/reset/snapshot/as_dict.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import pytest

from conftest import RADIUS
from repro import CostCounters, QueryService
from repro.core.counters import CostSnapshot
from repro.obs import tracing
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
)
from repro.obs.tracing import Span


# -- metrics primitives -------------------------------------------------------


def test_exponential_buckets_geometry_and_validation():
    assert exponential_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)
    with pytest.raises(ValueError):
        exponential_buckets(0.0, 2.0, 4)
    with pytest.raises(ValueError):
        exponential_buckets(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        exponential_buckets(1.0, 2.0, 0)


def test_counter_increments_and_rejects_negative():
    c = Counter("requests_total")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_counter_labels_fan_out_to_children():
    c = Counter("outcomes_total", labelnames=("outcome",))
    c.labels("hit").inc(3)
    c.labels("miss").inc()
    assert c.labels("hit") is c.labels("hit")
    assert c.labels("hit").value == 3
    assert c.labels(outcome="miss").value == 1
    with pytest.raises(ValueError):
        c.labels("hit", "extra")
    with pytest.raises(ValueError):
        c.labels(wrong="hit")


def test_gauge_set_inc_dec_and_callback():
    g = Gauge("inflight")
    g.set(3)
    g.inc()
    g.dec(2)
    assert g.value == 2
    g.set_function(lambda: 42.0)
    assert g.value == 42.0


def test_histogram_counts_sum_mean_and_overflow():
    h = Histogram("lat_ms", buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 3.0, 100.0):
        h.observe(v)
    counts, total, summed = h.snapshot()
    assert counts == [1, 0, 1, 1]  # last slot is the overflow bucket
    assert total == 3
    assert summed == pytest.approx(103.5)
    assert h.mean == pytest.approx(103.5 / 3)


def test_histogram_percentile_is_bucket_upper_bound():
    h = Histogram("lat_ms", buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 3.0, 100.0):
        h.observe(v)
    assert h.percentile(0.0) == 1.0  # rank clamps to the first observation
    assert h.percentile(0.5) == 4.0
    # overflow observations report the last finite bound, not infinity
    assert h.percentile(1.0) == 4.0
    assert Histogram("empty", buckets=(1.0,)).percentile(0.9) == 0.0
    with pytest.raises(ValueError):
        h.percentile(1.5)


def test_histogram_merge_is_vector_addition():
    a = Histogram("lat_ms", buckets=(1.0, 2.0, 4.0))
    b = Histogram("lat_ms", buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 3.0):
        a.observe(v)
    for v in (1.5, 9.0, 0.2):
        b.observe(v)
    a.merge(b)
    counts, total, summed = a.snapshot()
    assert total == 5
    assert counts == [2, 1, 1, 1]
    assert summed == pytest.approx(0.5 + 3.0 + 1.5 + 9.0 + 0.2)
    with pytest.raises(ValueError):
        a.merge(Histogram("lat_ms", buckets=(1.0, 8.0)))


def test_histogram_rejects_non_ascending_buckets():
    with pytest.raises(ValueError):
        Histogram("bad", buckets=())
    with pytest.raises(ValueError):
        Histogram("bad", buckets=(2.0, 1.0))


def test_registry_get_or_create_and_mismatch_errors():
    reg = MetricsRegistry()
    c = reg.counter("x_total", "help")
    assert reg.counter("x_total") is c
    assert reg.get("x_total") is c
    assert reg.get("missing") is None
    with pytest.raises(ValueError):
        reg.gauge("x_total")
    with pytest.raises(ValueError):
        reg.counter("x_total", labelnames=("k",))
    h = reg.histogram("h_ms", buckets=(1.0, 2.0))
    assert reg.histogram("h_ms", buckets=(1.0, 2.0)) is h
    with pytest.raises(ValueError):
        reg.histogram("h_ms", buckets=(1.0, 4.0))


def test_registry_renders_prometheus_text_exposition():
    reg = MetricsRegistry()
    reg.counter("x_total", "requests so far", labelnames=("k",)).labels("a").inc(2)
    reg.gauge("inflight", "current").set(7)
    h = reg.histogram("lat_ms", "latency", buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 3.0, 100.0):
        h.observe(v)
    text = reg.render()
    assert "# HELP x_total requests so far" in text
    assert "# TYPE x_total counter" in text
    assert 'x_total{k="a"} 2' in text
    assert "# TYPE inflight gauge" in text
    assert "inflight 7" in text
    assert "# TYPE lat_ms histogram" in text
    # bucket counts are cumulative and +Inf equals the total count
    assert 'lat_ms_bucket{le="1"} 1' in text
    assert 'lat_ms_bucket{le="2"} 1' in text
    assert 'lat_ms_bucket{le="4"} 2' in text
    assert 'lat_ms_bucket{le="+Inf"} 3' in text
    assert "lat_ms_count 3" in text
    assert "lat_ms_sum 103.5" in text
    assert text.endswith("\n")


def test_registry_summary_digests_histograms():
    reg = MetricsRegistry()
    reg.counter("x_total").inc(5)
    h = reg.histogram("lat_ms", buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 3.0, 100.0):
        h.observe(v)
    summary = reg.summary()
    assert summary["x_total"] == 5
    digest = summary["lat_ms"]
    assert digest["count"] == 3
    assert digest["p50"] == 4.0
    assert digest["p99"] == 4.0
    assert digest["mean"] == pytest.approx(103.5 / 3, abs=1e-3)


def test_metrics_are_thread_safe_under_contention():
    reg = MetricsRegistry()
    c = reg.counter("n_total")
    h = reg.histogram("v_ms", buckets=(1.0, 2.0, 4.0))

    def hammer():
        for i in range(500):
            c.inc()
            h.observe(float(i % 8))

    with ThreadPoolExecutor(max_workers=8) as pool:
        for _ in pool.map(lambda _: hammer(), range(8)):
            pass
    assert c.value == 8 * 500
    counts, total, _ = h.snapshot()
    assert total == 8 * 500
    assert sum(counts) == total


# -- tracing ------------------------------------------------------------------


def test_untraced_paths_are_noops():
    assert tracing.current_span() is None
    assert not tracing.active()
    with tracing.span("anything") as s:
        assert s is None
    tracing.add_event("page_reads", 3)  # must not raise
    counters = CostCounters()
    with tracing.batch_execution("range", counters, 2, 2) as b:
        assert b is None
        counters.add_distances(5)
    assert tracing.current_span() is None


def test_span_tree_and_events():
    with tracing.start_trace("request", method="POST") as root:
        assert tracing.current_span() is root
        assert tracing.active()
        with tracing.span("cache_lookup", kind="range") as child:
            tracing.add_event("page_reads", 2)
            tracing.add_event("page_reads")
    assert tracing.current_span() is None
    assert root.wall_ms is not None
    assert [c.name for c in root.children] == ["cache_lookup"]
    assert child.cost == {"page_reads": 3}
    d = root.to_dict()
    assert d["name"] == "request"
    assert d["meta"] == {"method": "POST"}
    assert d["spans"][0]["meta"] == {"kind": "range"}
    assert d["spans"][0]["cost"] == {"page_reads": 3}


def test_batch_execution_exact_attribution():
    counters = CostCounters()
    with tracing.start_trace("request") as root:
        with tracing.batch_execution("range", counters, 3, 2):
            counters.add_distances(7)
            counters.add_page_read(2)
            tracing.add_event("buffer_hits", 4)
    (batch,) = root.children
    assert batch.name == "batch_execute"
    assert batch.meta["coalesced"] is False
    assert batch.meta["batch_size"] == 3
    assert batch.meta["distinct"] == 2
    assert batch.cost["distance_computations"] == 7
    assert batch.cost["page_reads"] == 2
    assert batch.cost["buffer_hits"] == 4  # storage event recorded in-span


def test_batch_execution_coalesced_attribution_is_sum_exact():
    counters = CostCounters()
    participants = [Span("dispatcher_wait"), None, Span("dispatcher_wait")]
    with tracing.attribution_scope(participants):
        with tracing.batch_execution("range", counters, 3, 3):
            counters.add_distances(7)
            counters.add_page_read(5)
    pieces = [p.children[0] for p in participants if p is not None]
    assert all(p.name == "batch_execute" for p in pieces)
    assert all(p.meta["coalesced"] is True for p in pieces)
    # both traced requests rode the same batch
    assert pieces[0].meta["batch"] == pieces[1].meta["batch"]
    # shares follow CostSnapshot.split over ALL 3 participants (the
    # untraced one's share exists, it just has no span to land on):
    # 7 -> 3,2,2 and 5 -> 2,2,1
    assert [p.cost["distance_computations"] for p in pieces] == [3, 2]
    assert [p.cost["page_reads"] for p in pieces] == [2, 1]


def test_attribution_scope_resets_after_exit():
    counters = CostCounters()
    with tracing.attribution_scope([Span("w")]):
        pass
    # after the scope, an untraced batch execution is a no-op again
    with tracing.batch_execution("range", counters, 1, 1) as b:
        assert b is None


# -- CostSnapshot.split / reflection completeness -----------------------------


def test_cost_snapshot_split_is_sum_exact():
    snap = CostSnapshot(
        distance_computations=7,
        page_reads=5,
        page_writes=1,
        elapsed_seconds=0.3,
        cache_hits=2,
        cache_misses=3,
        cache_evictions=0,
        buffer_hits=10,
        grouped_hits=4,
    )
    shares = snap.split(3)
    assert len(shares) == 3
    for f in fields(CostSnapshot):
        total = sum(getattr(s, f.name) for s in shares)
        expected = getattr(snap, f.name)
        assert total == pytest.approx(expected), f.name
    # integer remainders go to the first shares: 7 over 3 -> 3, 2, 2
    assert [s.distance_computations for s in shares] == [3, 2, 2]
    assert snap.split(1)[0] == snap
    with pytest.raises(ValueError):
        snap.split(0)


def test_counters_surfaces_are_field_complete_by_reflection():
    counters = CostCounters()
    names = counters.count_fields()
    assert names  # non-empty, derived from dataclasses.fields
    for i, name in enumerate(names):
        setattr(counters, name, i + 1)

    # snapshot carries every count field
    snap = counters.snapshot()
    for i, name in enumerate(names):
        assert getattr(snap, name) == i + 1, name

    # as_dict covers every count field (counters) and every snapshot
    # field plus the derived page_accesses (snapshot)
    assert set(counters.as_dict()) == set(names)
    snap_fields = {f.name for f in fields(CostSnapshot)}
    assert set(snap.as_dict()) == snap_fields | {"page_accesses"}
    # every counter field must exist on the snapshot dataclass too
    assert set(names) <= snap_fields

    # merge folds every count field
    other = CostCounters()
    other.merge(counters)
    for i, name in enumerate(names):
        assert getattr(other, name) == i + 1, name

    # snapshot subtraction is field-complete
    delta = counters.snapshot() - CostCounters().snapshot()
    for i, name in enumerate(names):
        assert getattr(delta, name) == i + 1, name

    # reset zeroes every count field
    counters.reset()
    assert all(v == 0 for v in counters.as_dict().values())


# -- service integration ------------------------------------------------------


def test_service_batch_attribution_matches_counters_exactly(
    datasets, built_indexes
):
    """An un-coalesced batch's span carries the full measured delta."""
    index = built_indexes("Words", "LAESA")
    registry = MetricsRegistry()
    with QueryService(
        index, metrics=registry, use_dispatcher=False, cache_size=0
    ) as service:
        queries = [datasets["Words"][i] for i in range(4)]
        before = service.counters.snapshot()
        with tracing.start_trace("request") as root:
            service.range_query_many(queries, RADIUS["Words"])
        delta = service.counters.snapshot() - before
    (batch,) = [c for c in root.children if c.name == "batch_execute"]
    assert delta.distance_computations > 0
    assert batch.cost["distance_computations"] == delta.distance_computations
    assert batch.meta["coalesced"] is False
    # the batch-execute latency histogram observed the call
    assert registry.get("repro_service_batch_execute_ms").labels("range").count == 1


def _attributed_compdists(span) -> int:
    total = 0
    if span.name == "batch_execute":
        total += span.cost.get("distance_computations", 0)
        return total  # children of a batch span are storage sub-spans
    for child in span.children:
        total += _attributed_compdists(child)
    return total


def test_dispatcher_coalesced_attribution_sums_to_counters_delta(
    datasets, built_indexes
):
    """Concurrent traced requests: attributed shares reconstruct the
    dispatcher batches' counter deltas exactly, however the requests
    happened to coalesce."""
    index = built_indexes("Words", "LAESA")
    registry = MetricsRegistry()
    queries = [datasets["Words"][i] for i in range(8)]
    with QueryService(
        index,
        metrics=registry,
        cache_size=0,  # every request must reach the dispatcher
        max_batch_size=8,
    ) as service:
        barrier = threading.Barrier(len(queries))

        def one(q):
            barrier.wait()
            with tracing.start_trace("request") as root:
                service.range_query(q, RADIUS["Words"])
            return root

        before = service.counters.snapshot()
        with ThreadPoolExecutor(max_workers=len(queries)) as pool:
            roots = list(pool.map(one, queries))
        delta = service.counters.snapshot() - before

    assert delta.distance_computations > 0
    attributed = sum(_attributed_compdists(root) for root in roots)
    assert attributed == delta.distance_computations
    # every request has exactly one batch_execute span under its
    # dispatcher_wait span, annotated with its queue wait
    for root in roots:
        (wait,) = [c for c in root.children if c.name == "dispatcher_wait"]
        assert "queue_wait_ms" in wait.meta
        (batch,) = [c for c in wait.children if c.name == "batch_execute"]
        if batch.meta["coalesced"]:
            assert "batch" in batch.meta
    # queue-wait and batch-size histograms saw the traffic
    assert registry.get("repro_dispatcher_queue_wait_ms").count == len(queries)
    assert registry.get("repro_dispatcher_batch_size").count >= 1


def test_service_cache_metrics_record_outcomes(datasets, built_indexes):
    index = built_indexes("Words", "LAESA")
    registry = MetricsRegistry()
    with QueryService(index, metrics=registry, use_dispatcher=False) as service:
        q = datasets["Words"][0]
        service.range_query(q, RADIUS["Words"])
        service.range_query(q, RADIUS["Words"])
        stats = service.stats()
    outcomes = registry.get("repro_cache_requests_total")
    assert outcomes.labels("miss").value >= 1
    assert outcomes.labels("hit").value >= 1
    telemetry = stats["telemetry"]
    assert telemetry["repro_cache_requests_total"]["hit"] >= 1
    assert "repro_service_batch_execute_ms" in telemetry
