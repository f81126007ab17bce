"""Binary wire codec gate: the codec tax must stay dead.

One perf gate guards the zero-copy path introduced with the binary wire
protocol (``repro.service.wire``):

* **Binary HTTP batch ratio (Color, gated at <= 1.2x)** -- a batch of
  vector queries POSTed with ``Content-Type: application/x-repro-binary``
  must stay within 1.2x of the identical in-process ``*_query_many`` call.
  JSON pays a per-element codec tax (measured 3-8x on this workload); the
  binary frames ship the same numbers as raw little-endian buffers, so the
  wire all but disappears into evaluation.
(The v2 snapshot's memmap restore used to be gated here as a wall ratio
against a v1 full-pickle restore.  Nothing writes v1 any more; what the
restore is for -- tables that are views of the file, zero distance
computations, identical answers -- is asserted deterministically by
``tests/test_service.py::test_restored_tables_are_views_of_the_snapshot_file``.)

Scale note: this bench pins its own Color cardinality
(``REPRO_WIRE_COLOR_N``, default 6000) instead of following
``REPRO_BENCH_COLOR_N``.  The ratio gate is only honest when evaluation
dominates: at smoke scale (200 objects) the in-process batch answers in
~0.5 ms, so the fixed localhost round trip alone would triple the "ratio"
and the gate would measure the L2 kernel's speed, not the codec.  Same
reasoning as the LA absolute-overhead gate in bench_http_throughput.py,
resolved the other way: here we grow the baseline instead of switching to
an absolute budget, because the 1.2x bound *is* the acceptance criterion
for the binary path.

Noise note: each gated ratio is the minimum over ``TRIALS`` independent
measurements (each itself best-of-``REPEATS`` passes).  Timing noise on
shared CI runners is one-sided -- scheduler delays only ever inflate a
measurement -- so the minimum is the best estimate of the true cost and
keeps the gate from flapping.  Exactness is asserted inside
``run_http_comparison`` before anything is timed, every trial.
"""

from __future__ import annotations

import os

import pytest

from repro.bench import build_all, default_workloads, format_table
from repro.bench.runner import run_http_comparison

from _bench_common import N_QUERIES, emit

WIRE_COLOR_N = int(os.environ.get("REPRO_WIRE_COLOR_N", "6000"))

SELECTIVITY = 0.16
K = 10
BATCH_COPIES = 8
REPEATS = 7
TRIALS = 3
MAX_BINARY_RATIO = 1.2  # the tentpole's acceptance bound for the fast path


@pytest.fixture(scope="module")
def color_workload():
    return default_workloads(
        n=WIRE_COLOR_N, color_n=WIRE_COLOR_N, n_queries=max(6, N_QUERIES)
    )["Color"]


@pytest.fixture(scope="module")
def color_laesa(color_workload):
    return build_all(color_workload, ("LAESA",))["LAESA"].index


def _min_ratio_row(rows: list[dict]) -> dict:
    """Element-wise minimum of the timing columns across trial rows."""
    best = dict(rows[0])
    for row in rows[1:]:
        for key, value in row.items():
            if key.endswith(("ms", "ratio")):
                best[key] = min(best[key], value)
    return best


def test_binary_wire_ratio(color_workload, color_laesa):
    radius = color_workload.radius_for(SELECTIVITY)
    trials = [
        run_http_comparison(
            color_laesa,
            color_workload.queries,
            radius,
            K,
            repeats=REPEATS,
            batch_copies=BATCH_COPIES,
            codec="binary",
        )
        for _ in range(TRIALS)
    ]
    binary = _min_ratio_row(trials)
    json_row = run_http_comparison(
        color_laesa,
        color_workload.queries,
        radius,
        K,
        repeats=3,
        batch_copies=BATCH_COPIES,
        codec="json",
    )
    emit(
        "wire_codec",
        format_table(
            [json_row, binary],
            title=(
                f"Color (n={WIRE_COLOR_N}) batch endpoints: "
                "JSON vs binary wire vs in-process"
            ),
            first_column="codec",
        ),
    )
    assert binary["MRQ ratio"] <= MAX_BINARY_RATIO, binary
    assert binary["kNN ratio"] <= MAX_BINARY_RATIO, binary
