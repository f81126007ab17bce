"""Compare two sets of spine runs against the bounds in BENCHMARK.json.

    python3 benchmarks/spine/compare.py A.json B.json

Each file is a set of runs as ``run.py --json`` appends them (untraced runs
only are compared).  One row per workload and end-to-end metric, then one
per wall-clock timing (marked ``*``: a diagnostic, judged against the
largest bound the driver allows): both medians with their quartiles, the
ratio B / A, how much worse B is than A in the metric's own direction, the
bound, and a verdict:

* ``worse``      -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- the spread inside A or B (distance between the quartiles
  as a share of the median) is wider than the bound, so the sets cannot tell
  a change of that size from noise -- unless the sets do not overlap: every
  run of B better than every run of A is ``ok``, every run of B worse than
  every run of A with the medians further apart than the bound is ``worse``;
* ``ok``         -- otherwise.

The exit code is non-zero when any row is ``worse``, timings included.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# the wall-clock timings every run records beside its metrics (the names of
# metrics.TIMING_UNITS; this tool imports nothing of the benchmark, so it runs
# without the library): diagnostics, judged against the largest bound the
# driver allows
TIMINGS = [
    {"name": "qps*", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "mrq_p50_ms*", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "knn_p50_ms*", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "update_p50_ms*", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "cpu_ms_per_query*", "unit": "ms", "better": "lower", "bound": 0.25},
]


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def load(path) -> dict:
    """``{workload: {metric: [value per run]}}`` of the untraced runs."""
    out: dict = {}
    for record in json.loads(Path(path).read_text()):
        if record["trace"]:
            continue
        per_metric = out.setdefault(record["workload"], {})
        for name, metric in (record["metrics"] | record["timings"]).items():
            per_metric.setdefault(name, []).append(metric["value"])
    return out


def verdict(a, b, better: str, bound: float) -> tuple[str, float, float]:
    """``(verdict, worsening, widest spread)`` of set B against set A."""
    a1, a2, a3 = quartiles(a)
    b1, b2, b3 = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b2 - a2) / a2 if a2 else 0.0
    spread = max((a3 - a1) / a2 if a2 else 0.0, (b3 - b1) / b2 if b2 else 0.0)
    word = "worse" if worsening > bound else "ok"
    if spread > bound:
        # the sets are too noisy to resolve the bound, unless they do not
        # overlap (as costs: lower is better for both)
        cost_a, cost_b = [sign * x for x in a], [sign * x for x in b]
        if max(cost_b) < min(cost_a):
            word = "ok"
        elif not (word == "worse" and min(cost_b) > max(cost_a)):
            word = "unresolved"
    return word, worsening, spread


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="the base set (ratios are B / A)")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_set, b_set = load(args.a), load(args.b)
    print(
        f"{'workload':<18} {'metric':<23} {'unit':<4} "
        f"{'A median [q1, q3]':>34} {'B median [q1, q3]':>34} "
        f"{'B/A':>7} {'worse by':>9} {'bound':>6} {'spread':>7}  verdict"
    )
    worse = 0
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a_set or workload not in b_set:
            continue
        for metric in spec["end_to_end"] + TIMINGS:
            name = metric["name"]
            a, b = (s[workload][name.rstrip("*")] for s in (a_set, b_set))
            word, worsening, spread = verdict(a, b, metric["better"], metric["bound"])
            worse += word == "worse"
            a1, a2, a3 = quartiles(a)
            b1, b2, b3 = quartiles(b)
            print(
                f"{workload:<18} {name:<23} {metric['unit']:<4} "
                f"{a2:>12.4f} [{a1:>9.4f},{a3:>9.4f}] "
                f"{b2:>12.4f} [{b1:>9.4f},{b3:>9.4f}] "
                f"{b2 / a2 if a2 else 0.0:>7.3f} {worsening:>+9.1%} "
                f"{metric['bound']:>6.2f} {spread:>7.1%}  {word}"
            )
    print(f"# A = {args.a} ({_runs(a_set)} runs), B = {args.b} ({_runs(b_set)} runs); "
          f"ratios are B / A, 'worse by' is in the metric's own direction, "
          f"* = timing diagnostic")
    return 1 if worse else 0


def _runs(loaded: dict) -> int:
    return max((len(next(iter(m.values()))) for m in loaded.values()), default=0)


if __name__ == "__main__":
    sys.exit(main())
