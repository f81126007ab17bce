#!/usr/bin/env python3
"""Cluster quickstart: split a sharded index and serve it from N processes.

Walks the multi-process topology the README's "Cluster mode" section
describes:

1. build a ``ShardedIndex`` (N disjoint shards, one index per shard),
2. ``save_split`` it: one snapshot per shard plus a ``.cluster.json``
   manifest (``repro snapshot --split N`` is the CLI form),
3. hand the shard snapshots to a ``ClusterSupervisor``: it spawns one
   ``repro serve`` backend *process* per shard, health-checks them, and
   fronts them with a router -- the same ``HttpQueryServer``, hosting a
   ``ClusterIndex`` whose members are those backends,
4. query the router: answers are bit-for-bit the single-process answers,
   because shard mode is ``ShardedIndex``'s own fan-out and merge over
   remote parts.

Run:  python examples/cluster_quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import CostCounters, MetricSpace, ServiceClient, make_words, select_pivots
from repro.core.sharded import ShardedIndex
from repro.service.cluster import ClusterSupervisor, save_split
from repro.tables import LAESA

N_SHARDS = 3


def build_shard(space):
    """One shard's index: any index in the study works here."""
    return LAESA.build(space, select_pivots(space, 4, strategy="hfi"))


def main() -> None:
    # -- 1. build a sharded index (round-robin partition, one LAESA each) ---
    words = make_words(2000, seed=7)
    space = MetricSpace(words, CostCounters())
    sharded = ShardedIndex.build(space, build_shard, n_shards=N_SHARDS, seed=0)
    queries = [words[i] for i in range(10)]
    expected_range = sharded.range_query_many(queries, 2.0)
    expected_knn = sharded.knn_query_many(queries, 5)
    print(f"built {N_SHARDS}-shard LAESA over {len(words)} words")

    with tempfile.TemporaryDirectory() as tmp:
        # -- 2. one snapshot per shard + a cluster manifest ------------------
        manifest = save_split(sharded, Path(tmp) / "words.snap")
        shard_snaps = sorted(Path(tmp).glob("words.shard*.snap"))
        print(f"split into {len(shard_snaps)} shard snapshots + {manifest.name}")

        # -- 3. spawn one backend process per shard, router in front ---------
        supervisor = ClusterSupervisor(
            snapshots=[str(p) for p in shard_snaps],
            mode="shard",
        )
        with supervisor:
            router = supervisor.router
            print(
                f"cluster up: router at http://{router.host}:{router.port}, "
                f"{N_SHARDS} backend processes on ports {supervisor.backend_ports}"
            )

            # -- 4. routed answers == single-process answers, bit for bit ----
            with ServiceClient(router.host, router.port, binary=True) as client:
                assert client.healthz()["status"] == "ok"
                assert client.range_query_many(queries, 2.0) == expected_range
                assert client.knn_query_many(queries, 5) == expected_knn
                stats = client.stats()
            per_backend = ", ".join(
                f"shard {b['backend']}: {b['served']} calls"
                for b in stats["backends"]
            )
            print(f"scatter-gather exact over {len(queries)} queries ({per_backend})")
        print("cluster drained cleanly")


if __name__ == "__main__":
    main()
