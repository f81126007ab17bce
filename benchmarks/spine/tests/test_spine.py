"""Self-tests of the measurement spine at ``--scale 0.02``.

Not part of tier-1 (``testpaths`` is ``tests/``); run with

    python3 -m pytest -q benchmarks/spine/tests

They check the benchmark's own contract: names and units as declared in
BENCHMARK.json, exact counts for one seed, shims that leave the library as
they found it, and self times that add up to the traced wall.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

SPINE = Path(__file__).resolve().parents[1]
ROOT = SPINE.parents[1]
sys.path.insert(0, str(SPINE))

import run as spine  # noqa: E402  (pins BLAS threads, puts src/ on the path)
from compare import verdict  # noqa: E402
from tracer import SHIMS  # noqa: E402
from workloads import SPECS, WORK_DIR  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = 0.02
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
EXACT = ("compdists_per_query", "index_bytes_per_object")


@pytest.fixture(scope="module")
def runs():
    """Per workload: two untraced runs of seed 42, one of seed 43."""
    return {
        name: [spine.run(name, seed, 9, SCALE, trace=False) for seed in (42, 42, 43)]
        for name in SPECS
    }


def test_benchmark_json_names_the_four_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(SPECS)
    assert BENCHMARK["paths"] == ["benchmarks/spine"]
    declared = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(declared) == len(set(declared))
    assert all(NAME.fullmatch(name) for name in declared)


@pytest.mark.parametrize("name", SPECS)
def test_end_to_end_metrics_match_the_declaration(runs, name):
    record = runs[name][0]
    assert record["correct"] and record["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    emitted = {m: v["unit"] for m, v in record["metrics"].items()}
    assert emitted == declared
    assert all(v["value"] > 0 for v in record["metrics"].values())
    # the wall-clock timings ride along as diagnostics
    assert all(v["value"] > 0 for v in record["timings"].values())


@pytest.mark.parametrize("name", SPECS)
def test_counts_repeat_for_one_seed_and_change_with_another(runs, name):
    first, again, other = runs[name]
    # the planner of la_http_catalog routes on fitted wall time: at this
    # scale its two members are nearly tied, so which one computes an answer
    # (and at what cost) may differ between runs; the answers may not
    assert first["diagnostics"]["digests"] == again["diagnostics"]["digests"]
    exact = EXACT[1:] if name == "la_http_catalog" else EXACT
    for metric in exact:
        assert first["metrics"][metric] == again["metrics"][metric]
    if name != "la_http_catalog":
        key = "page_reads_per_query"
        assert first["diagnostics"][key] == again["diagnostics"][key]
    assert first["diagnostics"]["digests"] != other["diagnostics"]["digests"]
    assert (
        first["metrics"]["compdists_per_query"] != other["metrics"]["compdists_per_query"]
    )


@pytest.mark.parametrize("name", SPECS)
def test_trace_emits_every_layer_and_removes_its_shims(name):
    originals = [
        (owner, attribute, owner.__dict__[attribute])
        for owner, attributes, _layer, _work in SHIMS
        for attribute in attributes
    ]
    record = spine.run(name, 42, 9, SCALE, trace=True)
    for owner, attribute, original in originals:
        assert owner.__dict__[attribute] is original, (owner, attribute)
    assert record["correct"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {m: v["unit"] for m, v in record["metrics"].items()} == declared
    assert record["metrics"]["bench.trace_overhead_ratio"]["value"] > 0
    # self times partition the traced wall: every span's time is either its
    # own or one of its children's
    self_ms = sum(sum(kinds.values()) for kinds in record["trace_layers_self_ms"].values())
    wall_ms = 1e3 * sum(record["diagnostics"]["traced_pass_wall_s"])
    assert abs(self_ms - wall_ms) <= 0.10 * wall_ms


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert verdict(steady, [x * 1.02 for x in steady], "lower", 0.10)[0] == "ok"
    assert verdict(steady, [x * 1.30 for x in steady], "lower", 0.10)[0] == "worse"
    assert verdict(steady, [x * 0.70 for x in steady], "higher", 0.10)[0] == "worse"
    noisy = [10.0, 14.0, 8.0, 12.0, 9.0]
    assert verdict(noisy, noisy, "lower", 0.10)[0] == "unresolved"
    # sets that do not overlap are resolved whatever their spread
    assert verdict(noisy, [x * 0.5 for x in noisy], "lower", 0.10)[0] == "ok"
    assert verdict(noisy, [x * 3.0 for x in noisy], "lower", 0.10)[0] == "worse"
    assert verdict(noisy, [x / 3.0 for x in noisy], "higher", 0.10)[0] == "worse"


def test_command_line_prints_the_result_line_last():
    out = subprocess.run(
        [sys.executable, str(SPINE / "run.py"), "--workload", "la_disk_mixed_rw",
         "--seed", "7", "--seconds", "9", "--trace", "0", "--scale", str(SCALE)],
        capture_output=True, text=True, check=True,
    )
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for name in list(line["metrics"]) + ["qps", "mrq_p50_ms", "cpu_ms_per_query"]:
        assert f"\n{name} " in out.stdout  # printed by name, with its unit


def test_refuses_to_run_without_the_library():
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            SPINE, Path(bare) / "benchmarks" / "spine",
            ignore=shutil.ignore_patterns(".tmp", "__pycache__", "results"),
        )
        out = subprocess.run(
            [sys.executable, "benchmarks/spine/run.py", "--workload", "la_disk_mixed_rw",
             "--seed", "1", "--seconds", "9", "--trace", "0"],
            cwd=bare, capture_output=True, text=True,
        )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
