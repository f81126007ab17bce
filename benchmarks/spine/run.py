"""Measurement spine: one command per workload, every metric by name and unit.

    python3 benchmarks/spine/run.py --workload color_table_batch
    python3 benchmarks/spine/run.py --workload la_disk_mixed_rw --trace 1
    python3 benchmarks/spine/run.py --all --seed 3 --json set_a.json

A run is one process: make the inputs from ``--seed``, set the system up
(at least three times; ``setup_s`` is the median), check a sample of the tape
against brute force, one untimed warm-up pass, then seven timed passes with
two reference kernels timed between them.  ``--seconds`` is what the driver
passes (``run_seconds`` of BENCHMARK.json): it sizes the tape (the work is
fixed, so cost counts repeat exactly), and the timed phase lasts about that
long on the sandbox the benchmark was sized on.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics).  The exit code is non-zero when any operation failed or any answer
differed from the oracle.  See README.md in this directory.
"""

from __future__ import annotations

import os

# one BLAS thread, before numpy is imported: the box has two cores and the
# benchmark keeps at most two threads busy (a client and a server)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# ... and one CPU for the whole process.  One request is in flight at a time,
# so the client and the server thread never need two cores; on two, every
# hand-off between them wakes a halted virtual CPU, which on this sandbox
# costs 0.1 ms in one state of the host and next to nothing in another
# (la_http_catalog read 0.9 or 1.7 ms a request from run to run; pinned, 0.9)
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse
import gc
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"measurement spine: the library under test is not at {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from harness import Sentinels, median, run_pass  # noqa: E402
from metrics import E2E_UNITS, LAYER_UNITS, TIMING_UNITS, LayerReport, end_to_end  # noqa: E402
from workloads import SPECS, make_workload  # noqa: E402

# set-ups per run: at least three, and a cheap set-up is repeated until 1.5 s
# of it have been seen (a 0.2 s build read 0.17-0.34 s from run to run)
MIN_SETUPS, MAX_SETUPS, MIN_SETUP_SECONDS = 3, 7, 1.5
TIMED_PASSES = 7
# a traced run splits its passes so the overhead ratio comes from one process
UNTRACED_PASSES, TRACED_PASSES = 3, 3


def verify_oracle(workload, executors) -> tuple[int, int]:
    """Flagged ops against brute force, before any timing: (checked, failed)."""
    space = workload.oracle_space()
    seen, checked, failed = set(), 0, 0
    for pass_no in range(workload.passes + 1):
        for op in workload.tape(pass_no):
            if not op.check or id(op) in seen:
                continue
            seen.add(id(op))
            op.expect = workload.oracle(space, op)
            checked += 1
            try:
                failed += executors[op.kind](op.arg) != op.expect
            except Exception:
                failed += 1
    return checked, failed


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else "unknown"


def _rss_mb() -> float:
    """Resident set size of this process, now."""
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def run(name: str, seed: int, seconds: float, scale: float, trace: bool) -> dict:
    """One run of one workload; returns the results record."""
    n_untraced = UNTRACED_PASSES if trace else TIMED_PASSES
    n_traced = TRACED_PASSES if trace else 0
    passes = n_untraced + n_traced
    workload = make_workload(name, seed, seconds, scale, passes)

    setups, stage_runs = [], []
    gc.collect()
    rss_before = _rss_mb()
    # the first set-up of a process also pays imports and first touches, so
    # it does not count toward the seconds seen
    while len(setups) < MIN_SETUPS or (
        len(setups) < MAX_SETUPS and sum(setups[1:]) < MIN_SETUP_SECONDS
    ):
        if setups:
            workload.teardown()
            gc.collect()
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
        stage_runs.append(workload.setup_stages)
        if len(setups) == 1:
            # what the first set-up left resident: the inputs were there
            # before, the oracle and the reference kernels come after
            gc.collect()
            setup_rss_mb = _rss_mb() - rss_before
    stages = {k: median([s[k] for s in stage_runs]) for k in stage_runs[0]}

    tracer = None
    try:
        executors = workload.executors()
        fields = workload.counters()[0].count_fields()
        checked, failed = verify_oracle(workload, executors)
        attempted = checked
        warmup = run_pass(workload.tape(0), executors, workload.read_counts)
        gc.collect()
        sentinels = Sentinels()
        sentinels.sample()

        def sampled_pass(pass_no: int, tracer=None):
            """One pass, then one sample of the reference kernels."""
            if tracer is not None:
                tracer.begin_pass(pass_no)
            result = run_pass(workload.tape(pass_no), executors, workload.read_counts, tracer)
            if tracer is not None:
                tracer.end_pass()
            sentinels.sample()
            return result

        untraced = [sampled_pass(p) for p in range(1, n_untraced + 1)]
        traced = []
        stats = ({}, {})
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            before = workload.service_stats()
            tracer.install()
            try:
                traced = [
                    sampled_pass(p, tracer) for p in range(n_untraced + 1, passes + 1)
                ]
            finally:
                tracer.remove()
            stats = (before, workload.service_stats())
        everything = [warmup] + untraced + traced
        attempted += sum(r.attempted for r in everything)
        failed += sum(r.failed for r in everything)
        digests = [r.digest for r in everything]
        if workload.tape(0) is workload.tape(1) and digests[0] != digests[1]:
            failed += 1  # the warm-up replayed pass 1: same tape, same answers
        e2e, timings, diagnostics = end_to_end(
            untraced,
            fields,
            setups,
            sum(workload.storage_bytes().values()),
            workload.n,
            setup_rss_mb,
        )
        layers = {}
        if trace:
            extras = workload.trace_extras(executors)
            failed += extras.pop("mismatch", 0)
            report_ = LayerReport(workload, tracer, fields, untraced, traced, stats)
            layers = report_.metrics(stages, extras, timings, sentinels, failed / attempted)
    finally:
        workload.teardown()

    diagnostics.update(
        setup_runs_s=setups,
        setup_stages_s=stages,
        dataset_gen_s=workload.generate_s,
        failed_ops_share=failed / attempted,
        ref_py_ms=sentinels.ms["py"],
        ref_np_ms=sentinels.ms["np"],
        ref_drift=sentinels.drift(),
        digests=digests,
    )
    metrics, units = (layers, LAYER_UNITS) if trace else (e2e, E2E_UNITS)
    record = {
        "workload": name,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": float(v), "unit": units[m]} for m, v in metrics.items()},
        "timings": {m: {"value": v, "unit": TIMING_UNITS[m]} for m, v in timings.items()},
        "diagnostics": diagnostics,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": os.environ["OMP_NUM_THREADS"],
            "git_commit": _git_commit(),
            "seed": seed,
            "seconds": seconds,
            "scale": scale,
            "n": workload.n,
            "radius": workload.radius,
            "passes": {"untraced": n_untraced, "traced": n_traced},
            "ops_per_pass": workload.per_pass,
        },
    }
    if trace:
        record["trace_layers_self_ms"] = tracer.layers()
        record["spans"] = tracer.spans
        diagnostics["end_to_end_untraced_passes"] = e2e
        diagnostics["traced_pass_wall_s"] = [r.wall_s for r in traced]
    return record


def report(record: dict) -> None:
    """Every metric by name with its unit, then the contract's JSON line."""
    env = record["env"]
    print(
        f"# {record['workload']} seed={env['seed']} seconds={env['seconds']} "
        f"scale={env['scale']} trace={record['trace']} n={env['n']} "
        f"ops/pass={env['ops_per_pass']}"
    )
    rows = dict(record["metrics"])
    if not record["trace"]:
        rows.update(record["timings"])  # diagnostics: not on the result line
    width = max(len(m) for m in rows)
    for name, metric in rows.items():
        note = ""
        detail = record["diagnostics"].get(name)
        if isinstance(detail, dict):
            note = f"   pass_spread={detail['pass_spread']:.4f}"
            if "samples" in detail:
                note += (
                    f" samples={detail['samples']} "
                    f"p{100 * detail['tail_percentile']:.1f}={detail['tail_ms']:.4f}"
                )
        print(f"{name:<{width}}  {metric['value']:>16.6f} {metric['unit']}{note}")
    d = record["diagnostics"]
    print(
        f"# timed phase {d['timed_phase_s']:.2f} s; reference kernels "
        f"py {median(d['ref_py_ms']):.2f} ms, np {median(d['ref_np_ms']):.2f} ms, "
        f"drift {d['ref_drift']:.3f}; failed_ops_share {d['failed_ops_share']:.6f}"
    )
    line = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))


def _append(path: str, record: dict) -> None:
    file = Path(path)
    runs = json.loads(file.read_text()) if file.is_file() else []
    runs.append(record)
    file.write_text(json.dumps(runs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS))
    parser.add_argument("--all", action="store_true", help="every workload, one child process each")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=9, help="passed by the driver: sizes the tape; the timed phase lasts about this long")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0, help="benchmark-only: shrink datasets and tapes (self-tests)")
    parser.add_argument("--json", metavar="OUT", help="append the run's results record to this file")
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("pass exactly one of --workload NAME or --all")
    if args.all:
        # one fresh process per run, one at a time: peak memory and warm-up
        # belong to a single workload, and the machine never runs two
        status = 0
        for name in SPECS:
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
            for flag in ("seed", "seconds", "trace", "scale", "json"):
                if getattr(args, flag) is not None:
                    command += [f"--{flag}", str(getattr(args, flag))]
            status |= subprocess.run(command).returncode
        return status
    record = run(args.workload, args.seed, args.seconds, args.scale, bool(args.trace))
    if args.json:
        _append(args.json, record)
    report(record)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
