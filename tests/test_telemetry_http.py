"""HTTP-layer telemetry: /metrics, /stats percentiles, /healthz, slow-query log.

The serving-stack half of the observability tentpole:

* ``GET /metrics`` serves the shared registry's Prometheus text
  exposition, and ``/stats`` folds the same histograms into percentile
  digests under ``telemetry``;
* ``/healthz`` reports uptime, the serving snapshot path, and the reload
  generation (bumped by every hot swap);
* with a slow-query threshold each query request logs one JSON line
  whose span tree carries this request's attributed share of the batch
  costs -- summing exactly to the service counters' delta across a
  burst, however the dispatcher coalesced it;
* everything stays consistent under concurrent hammering: log lines
  never interleave, counters only go up;
* ``repro stats URL [--metrics]`` fetches either payload from the CLI.
"""

from __future__ import annotations

import io
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from conftest import RADIUS
from repro import CostCounters, MetricSpace, QueryService, save_index, select_pivots
from repro.cli import main
from repro.obs import MetricsRegistry
from repro.service.http import HttpQueryServer, ServiceClient, ServiceClientError
from repro.tables import LAESA

K = 5


def _laesa_over(dataset):
    space = MetricSpace(dataset, CostCounters())
    return LAESA.build(space, select_pivots(MetricSpace(dataset), 3, strategy="hfi"))


@pytest.fixture
def telemetry_stack(datasets, built_indexes):
    """Factory for a served Words LAESA with full telemetry enabled.

    One shared :class:`MetricsRegistry` spans the service (cache,
    dispatcher, batch instruments) and the HTTP server (request
    instruments), exactly as ``repro serve --http --metrics`` wires it.
    """
    created = []

    def make(slow_query_ms=0.0, cache_size=1024, **service_kw):
        index = built_indexes("Words", "LAESA")
        registry = MetricsRegistry()
        service = QueryService(
            index,
            metrics=registry,
            cache_size=cache_size,
            max_batch_size=16,
            **service_kw,
        )
        slow_log, access_log = io.StringIO(), io.StringIO()
        server = HttpQueryServer(
            service,
            metrics=registry,
            slow_query_ms=slow_query_ms,
            slow_query_log=slow_log,
            access_log=access_log,
        ).start()
        client = ServiceClient(port=server.port)
        created.append((client, server, service))
        return SimpleNamespace(
            registry=registry,
            service=service,
            server=server,
            client=client,
            slow_log=slow_log,
            access_log=access_log,
        )

    yield make
    for client, server, service in created:
        client.close()
        server.close()
        service.close()


# -- /metrics + /stats --------------------------------------------------------


def test_metrics_endpoint_serves_prometheus_text(datasets, telemetry_stack):
    stack = telemetry_stack()
    q = datasets["Words"][0]
    stack.client.range_query(q, RADIUS["Words"])
    stack.client.range_query(q, RADIUS["Words"])  # a cache hit
    stack.client.knn_query(q, K)
    text = stack.client.metrics_text()
    assert "# TYPE repro_http_requests_total counter" in text
    assert 'repro_http_requests_total{endpoint="/range",status="200"} 2' in text
    assert "# TYPE repro_http_request_ms histogram" in text
    assert 'repro_http_request_ms_bucket{endpoint="/range",le="+Inf"} 2' in text
    assert "# TYPE repro_service_batch_execute_ms histogram" in text
    assert 'repro_cache_requests_total{outcome="hit"} 1' in text
    assert "# TYPE repro_dispatcher_batch_size histogram" in text
    assert "repro_http_inflight_requests 0" in text
    assert "repro_http_uptime_seconds" in text
    assert 'repro_http_wire_bytes_total{codec="json",direction="out"}' in text


def test_metrics_404_when_registry_absent(datasets, built_indexes):
    index = built_indexes("Words", "LAESA")
    with QueryService(index) as service:
        with HttpQueryServer(service).start() as server:
            client = ServiceClient(port=server.port)
            with pytest.raises(ServiceClientError) as err:
                client.metrics_text()
            assert err.value.status == 404
            client.close()


def test_stats_folds_percentile_digests(datasets, telemetry_stack):
    stack = telemetry_stack()
    q = datasets["Words"][1]
    stack.client.range_query(q, RADIUS["Words"])
    stats = stack.client.stats()
    telemetry = stats["telemetry"]
    latency = telemetry["repro_http_request_ms"]["/range"]
    assert latency["count"] == 1
    assert latency["p50"] > 0
    assert set(latency) == {"count", "mean", "p50", "p90", "p99"}
    assert telemetry["repro_cache_requests_total"]["miss"] >= 1


# -- /healthz -----------------------------------------------------------------


def test_healthz_reports_uptime_snapshot_and_generation(datasets, tmp_path):
    small = datasets["Words"].subset(range(100))
    large = datasets["Words"].subset(range(250))
    path_small, path_large = tmp_path / "small.snap", tmp_path / "large.snap"
    save_index(_laesa_over(small), path_small)
    save_index(_laesa_over(large), path_large)

    service = QueryService.from_snapshot(path_small)
    with service, HttpQueryServer(service).start() as server:
        client = ServiceClient(port=server.port)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0
        assert health["snapshot"] == str(path_small)
        assert health["reload_generation"] == 0
        client.reload(path_large)
        health = client.healthz()
        assert health["snapshot"] == str(path_large)
        assert health["reload_generation"] == 1
        assert health["objects"] == 250
        client.close()


def test_healthz_without_snapshot_reports_none(datasets, telemetry_stack):
    health = telemetry_stack().client.healthz()
    assert health["snapshot"] is None
    assert health["reload_generation"] == 0


# -- slow-query log + cost attribution ----------------------------------------


def _slow_lines(stack, expect: int | None = None) -> list[dict]:
    """Parsed slow-query records, optionally waiting for ``expect`` lines.

    The slow-query line is written just *after* a response's bytes go
    out, so a client that already read its answer may be a beat ahead of
    the handler thread's observation envelope.
    """
    def lines():
        return [l for l in stack.slow_log.getvalue().splitlines() if l]

    if expect is not None:
        deadline = time.monotonic() + 5.0
        while len(lines()) < expect and time.monotonic() < deadline:
            time.sleep(0.01)
    return [json.loads(l) for l in lines()]


def _batch_spans(node) -> list[dict]:
    if node["name"] == "batch_execute":
        return [node]
    out = []
    for child in node.get("spans", ()):
        out.extend(_batch_spans(child))
    return out


def test_slow_query_log_carries_span_tree(datasets, telemetry_stack):
    stack = telemetry_stack(slow_query_ms=0.0)  # log every query request
    q = datasets["Words"][2]
    stack.client.range_query(q, RADIUS["Words"])
    (record,) = _slow_lines(stack, expect=1)
    assert record["kind"] == "slow_query"
    assert record["path"] == "/range"
    assert record["status"] == 200
    assert record["threshold_ms"] == 0.0
    assert record["wall_ms"] > 0
    trace = record["trace"]
    assert trace["name"] == "request"
    names = [s["name"] for s in trace["spans"]]
    assert "cache_lookup" in names
    assert "dispatcher_wait" in names
    (batch,) = _batch_spans(trace)
    assert batch["cost"]["distance_computations"] > 0
    assert "page_reads" in batch["cost"]
    # GET /stats must not be traced or logged
    stack.client.stats()
    assert len(_slow_lines(stack)) == 1


def test_attributed_costs_sum_to_counters_delta_over_http(
    datasets, telemetry_stack
):
    """The acceptance contract end to end: across a concurrent burst, the
    slow-query lines' attributed compdists reconstruct the service
    counters' measured delta exactly, however the dispatcher batched."""
    stack = telemetry_stack(slow_query_ms=0.0, cache_size=0)
    queries = [datasets["Words"][i] for i in range(8)]
    barrier = threading.Barrier(len(queries))

    def one(q):
        barrier.wait()
        return stack.client.range_query(q, RADIUS["Words"])

    before = stack.service.counters.snapshot()
    with ThreadPoolExecutor(max_workers=len(queries)) as pool:
        list(pool.map(one, queries))
    delta = stack.service.counters.snapshot() - before

    records = _slow_lines(stack, expect=len(queries))
    assert len(records) == len(queries)
    batches = [b for r in records for b in _batch_spans(r["trace"])]
    assert len(batches) == len(queries)
    attributed = sum(b["cost"]["distance_computations"] for b in batches)
    assert delta.distance_computations > 0
    assert attributed == delta.distance_computations
    # coalesced shares carry the shared batch id they rode in
    coalesced = [b for b in batches if b["meta"].get("coalesced")]
    for b in coalesced:
        assert "batch" in b["meta"]


# -- concurrency hammer -------------------------------------------------------


def test_concurrent_scrapes_logs_and_queries_stay_consistent(
    datasets, telemetry_stack
):
    stack = telemetry_stack(slow_query_ms=0.0)
    queries = [datasets["Words"][i] for i in range(6)]
    n_rounds = 5
    errors = []

    def query_worker(q):
        try:
            for _ in range(n_rounds):
                stack.client.range_query(q, RADIUS["Words"])
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    def scrape_worker(_):
        try:
            for _ in range(n_rounds):
                text = stack.client.metrics_text()
                assert "repro_http_requests_total" in text
                stats = stack.client.stats()
                assert "telemetry" in stats
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    with ThreadPoolExecutor(max_workers=len(queries) + 2) as pool:
        for q in queries:
            pool.submit(query_worker, q)
        for i in range(2):
            pool.submit(scrape_worker, i)
    assert not errors

    # metrics/logs are recorded just after each response's bytes go out,
    # so the last responses' observations may still be in flight -- settle
    n_queries = len(queries) * n_rounds
    served = stack.registry.get("repro_http_requests_total")
    deadline = time.monotonic() + 5.0
    while (
        served.labels("/range", "200").value < n_queries
        and time.monotonic() < deadline
    ):
        time.sleep(0.01)

    # every access-log and slow-query line is valid, un-interleaved JSON
    access = [json.loads(l) for l in stack.access_log.getvalue().splitlines() if l]
    slow = _slow_lines(stack)
    assert len(slow) == n_queries
    assert sum(1 for a in access if a["path"] == "/range") == n_queries
    assert all(a["status"] == 200 for a in access)

    # counters are monotonic and consistent with the traffic served
    assert served.labels("/range", "200").value == n_queries
    stack.client.range_query(queries[0], RADIUS["Words"])
    # metrics are recorded just after the response bytes go out, so give
    # the handler thread a beat to finish its observation envelope
    deadline = time.monotonic() + 5.0
    while (
        served.labels("/range", "200").value != n_queries + 1
        and time.monotonic() < deadline
    ):
        time.sleep(0.01)
    assert served.labels("/range", "200").value == n_queries + 1


# -- repro stats CLI ----------------------------------------------------------


def test_cli_stats_fetches_remote_stats_and_metrics(
    datasets, telemetry_stack, capsys
):
    stack = telemetry_stack()
    stack.client.range_query(datasets["Words"][0], RADIUS["Words"])
    url = f"http://127.0.0.1:{stack.server.port}"

    assert main(["stats", url]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["index"] == stack.service.index_id
    assert "telemetry" in payload

    assert main(["stats", url, "--metrics"]) == 0
    text = capsys.readouterr().out
    assert "# TYPE repro_http_requests_total counter" in text

    assert main(["stats", "NoSuchDatasetOrUrl"]) == 2
    capsys.readouterr()
    # a dead port fails gracefully, not with a traceback
    assert main(["stats", "http://127.0.0.1:9", "--metrics"]) == 1
