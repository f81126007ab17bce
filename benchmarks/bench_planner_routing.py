"""Planner routing gate: cost-routed traffic vs worst member and oracle.

Not a paper experiment -- this guards the catalog -> planner -> executor
serving stack.  A catalog hosting {LAESA, MVPT, M-index*} over the Color
workload serves a mixed-radius MRQ stream (small / medium / large radii,
where the paper shows the cheapest index flips).  The gate:

* **exactness** -- routed answers are bit-for-bit equal to brute force
  and to every member's own answers, at every radius;
* **throughput floor** -- the routed service must finish the stream at
  least ``MIN_SPEEDUP_VS_WORST`` x faster than the slowest member forced
  to serve everything (a planner that routes is pointless if hardwiring
  any one index would do as well), and within ``MIN_FRACTION_OF_ORACLE``
  of the measured per-radius oracle (pick the cheapest member for each
  batch with hindsight).

Every strategy -- pinned single member, oracle, routed -- is measured
through the same :class:`QueryService` call path (``index=`` pins a
member, no pin routes), so the gate compares routing decisions, not
service-wrapper overhead.  The planner calibrates on the same radii
untimed -- seed-time work, not serving work.  Timings are best-of-
``REPEATS`` so one scheduler hiccup cannot flap the gate.
"""

from __future__ import annotations

from repro import CostCounters, MetricSpace, brute_force_range_many
from repro.bench import format_table, measure_build, shared_pivots
from repro.bench.runner import _best_seconds
from repro.service import IndexCatalog, QueryService

from _bench_common import emit, workloads  # noqa: F401  (fixture)

MEMBERS = ("LAESA", "MVPT", "M-index*")
SELECTIVITIES = (0.04, 0.16, 0.64)
REPEATS = 3
MIN_SPEEDUP_VS_WORST = 1.2
MIN_FRACTION_OF_ORACLE = 0.8


def test_planner_routing_beats_worst_member(workloads):
    workload = workloads["Color"]
    queries = workload.queries
    radii = [workload.radius_for(s) for s in SELECTIVITIES]
    pivots = shared_pivots(workload, 5)

    catalog = IndexCatalog()
    for name in MEMBERS:
        # measure_build constructs each member on its own fresh MetricSpace
        # over the same dataset -- the catalog's attribution requirement
        catalog.register(measure_build(name, workload, pivots).index)

    # -- exactness: every member == brute force at every radius -------------
    ref_space = MetricSpace(workload.dataset, CostCounters())
    golden = {r: brute_force_range_many(ref_space, queries, r) for r in radii}
    for member in catalog.members():
        for r in radii:
            assert member.index.range_query_many(queries, r) == golden[r], (
                member.index_id,
                r,
            )

    with QueryService(catalog=catalog, cache_size=0, use_dispatcher=False) as service:
        service.planner.calibrate(radii=radii, n_queries=len(queries))

        # -- member timings: the same service path, pinned per member -------
        member_seconds: dict[str, dict[float, float]] = {}
        for member_id in catalog.ids():
            per_radius = {}
            for r in radii:
                assert (
                    service.range_query_many(queries, r, index=member_id)
                    == golden[r]
                )
                per_radius[r] = _best_seconds(
                    lambda mid=member_id, rr=r: service.range_query_many(
                        queries, rr, index=mid
                    ),
                    REPEATS,
                )
            member_seconds[member_id] = per_radius
        worst_s = max(sum(per.values()) for per in member_seconds.values())
        best_single_s = min(sum(per.values()) for per in member_seconds.values())
        # hindsight oracle: the cheapest member for each radius batch
        oracle_s = sum(
            min(member_seconds[m][r] for m in member_seconds) for r in radii
        )

        # -- routed serving: the same stream, planner picks the member ------
        for r in radii:  # exactness through the routed service itself
            assert service.range_query_many(queries, r) == golden[r]
        routed_s = _best_seconds(
            lambda: [service.range_query_many(queries, r) for r in radii], REPEATS
        )
        routes = {
            r: service.planner.route("range", r, len(queries)) for r in radii
        }
        planner_stats = service.planner.stats()

    rows = []
    for member_id, per in member_seconds.items():
        rows.append(
            {
                "Strategy": f"always {member_id}",
                "seconds": round(sum(per.values()), 4),
                "vs worst": round(worst_s / sum(per.values()), 2),
            }
        )
    rows.append(
        {
            "Strategy": "oracle (per-radius best)",
            "seconds": round(oracle_s, 4),
            "vs worst": round(worst_s / oracle_s, 2),
        }
    )
    rows.append(
        {
            "Strategy": "planner-routed",
            "seconds": round(routed_s, 4),
            "vs worst": round(worst_s / routed_s, 2),
        }
    )
    table = format_table(
        rows,
        title=(
            "Planner routing on Color, mixed radii "
            f"{[round(r, 1) for r in radii]} "
            f"(routes: {[routes[r] for r in radii]}, "
            f"mispredict ratio {planner_stats['mispredict_ratio']})"
        ),
        first_column="Strategy",
    )
    emit("planner_routing", table)

    assert routed_s * MIN_SPEEDUP_VS_WORST <= worst_s, (
        f"routed {routed_s:.4f}s must be >= {MIN_SPEEDUP_VS_WORST}x faster "
        f"than the worst single member ({worst_s:.4f}s)\n{table}"
    )
    assert routed_s * MIN_FRACTION_OF_ORACLE <= oracle_s, (
        f"routed {routed_s:.4f}s must reach {MIN_FRACTION_OF_ORACLE:.0%} of "
        f"oracle throughput ({oracle_s:.4f}s)\n{table}"
    )
    # sanity: the oracle can never lose to the best fixed member
    assert oracle_s <= best_single_s + 1e-9
