#!/usr/bin/env python3
"""Serve quickstart: build once, snapshot, restore, serve concurrent traffic.

Walks the full query-service lifecycle the README describes:

1. build a pivot index (paying the construction distance computations once),
2. snapshot it to disk,
3. restore it in a "new process" with zero distance computations,
4. serve concurrent single-query traffic through the QueryService --
   the queries that queue up while the dispatcher runs a batch are answered
   together by its next vectorised batch call (at most ``max_batch_size``
   of one kind), and the LRU result cache absorbs the repeats.

Run:  python examples/serve_quickstart.py
"""

from __future__ import annotations

import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro import (
    CostCounters,
    MetricSpace,
    QueryService,
    load_index,
    make_words,
    save_index,
    select_pivots,
    snapshot_info,
)
from repro.tables import LAESA


def main() -> None:
    # -- 1. build once (the expensive part) ---------------------------------
    words = make_words(4000, seed=7)
    counters = CostCounters()
    space = MetricSpace(words, counters)
    pivots = select_pivots(space, 5, strategy="hfi")
    index = LAESA.build(space, pivots)
    print(
        f"built LAESA over {len(words)} words: "
        f"{counters.distance_computations} build distance computations"
    )

    with tempfile.TemporaryDirectory() as tmp:
        snap_path = Path(tmp) / "laesa.snap"

        # -- 2. snapshot to disk --------------------------------------------
        info = save_index(index, snap_path)
        print(f"snapshot: {info.payload_bytes} bytes, format v{info.format_version}")
        print(f"header:   {snapshot_info(snap_path).row()}")

        # -- 3. restore (a fresh process would do exactly this) -------------
        restore_counters = CostCounters()
        restored = load_index(snap_path, counters=restore_counters)
        print(
            f"restored with {restore_counters.distance_computations} distance "
            "computations -- the build cost is paid exactly once"
        )

    # -- 4. serve concurrent single-query traffic ---------------------------
    # 25 distinct queries, each repeated 8 times: the shape of online
    # traffic, where popular queries recur
    queries = [words[i] for i in range(25)] * 8
    with QueryService(restored, max_batch_size=16) as service:
        with ThreadPoolExecutor(max_workers=8) as clients:
            t0 = time.perf_counter()
            answers = list(
                clients.map(lambda q: service.range_query(q, 2.0), queries)
            )
            seconds = time.perf_counter() - t0
        stats = service.stats()

    print(
        f"served {len(queries)} requests in {seconds:.2f}s "
        f"({len(queries) / seconds:.0f} req/s) from 8 concurrent clients"
    )
    cache = stats["cache"]
    dispatcher = stats["dispatcher"]
    print(
        f"cache: hit rate {cache['hit_rate']:.0%} "
        f"({cache['hits']} hits / {cache['misses']} misses)"
    )
    print(
        f"dispatcher: {dispatcher['batches']} vectorised batches, "
        f"mean size {dispatcher['mean_batch_size']}, "
        f"largest {dispatcher['largest_batch']}"
    )
    sample = answers[0]
    print(f"sample answer: {len(sample)} words within edit distance 2 of {words[0]!r}")


if __name__ == "__main__":
    main()
