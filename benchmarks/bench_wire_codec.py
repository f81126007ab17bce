"""Binary wire codec: JSON vs binary frames vs the in-process call.

A batch of Color vector queries is served over HTTP with both codecs and
answered in process; ``run_http_comparison`` asserts the three answers
equal before anything is timed, and the bench prints their walls and
ratios.  It gates no ratio: the binary path's property -- a ``q x d``
float64 batch travels as its frame prefix, JSON header, alignment and
exactly ``8 q d`` bytes, decoded as a zero-copy read-only view -- is a
count in ``tests/test_wire.py::
test_query_batch_frame_is_its_header_and_exactly_its_floats``.  (The
``<= 1.2x`` wall ratio that stood for it read 1.08-1.28 on a 2-core box
for identical code.)  The v2 snapshot's memmap restore is held the same
way, by ``tests/test_service.py::
test_restored_tables_are_views_of_the_snapshot_file``.

Scale note: this bench pins its own Color cardinality
(``REPRO_WIRE_COLOR_N``, default 6000) instead of following
``REPRO_BENCH_COLOR_N``: at smoke scale (200 objects) the in-process batch
answers in ~0.5 ms and the localhost round trip alone would dominate the
printed ratios.
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


@pytest.fixture(scope="module")
def color_workload():
    return default_workloads(
        n=WIRE_COLOR_N, color_n=WIRE_COLOR_N, n_queries=max(6, N_QUERIES)
    )["Color"]


@pytest.fixture(scope="module")
def color_laesa(color_workload):
    return build_all(color_workload, ("LAESA",))["LAESA"].index


def test_binary_wire_table(color_workload, color_laesa):
    radius = color_workload.radius_for(SELECTIVITY)
    rows = [
        run_http_comparison(
            color_laesa,
            color_workload.queries,
            radius,
            K,
            repeats=repeats,
            batch_copies=BATCH_COPIES,
            codec=codec,
        )
        for codec, repeats in (("json", 3), ("binary", REPEATS))
    ]
    emit(
        "wire_codec",
        format_table(
            rows,
            title=(
                f"Color (n={WIRE_COLOR_N}) batch endpoints: "
                "JSON vs binary wire vs in-process"
            ),
            first_column="codec",
        ),
    )
