"""Query service subsystem: snapshots, result cache, dispatcher, facade.

Covers the service layer's three contracts:

* snapshot round-trips restore every index family with identical answers
  and zero build-time distance computations;
* the LRU result cache returns exact answers, folds hit/miss/eviction
  stats into CostCounters, and is invalidated by index mutations;
* the micro-batching dispatcher coalesces concurrent single-query callers
  into batch calls without changing any answer.

Plus the satellite contracts: per-shard counters make ShardedIndex exact
under process pools (thread-pool == process-pool == serial counts), and
AESA's insert signature matches the base class.
"""

from __future__ import annotations

import json
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from conftest import MALFORMED_HEADERS, RADIUS, indexes_for, rewrite_header
from repro import (
    CostCounters,
    MetricSpace,
    QueryService,
    ShardedIndex,
    SnapshotError,
    UnsupportedOperation,
    load_index,
    make_la,
    make_words,
    save_index,
    select_pivots,
    snapshot_info,
)
from repro.core.index import brute_force_knn, brute_force_range
from repro.service import (
    SNAPSHOT_FORMAT_VERSION,
    MicroBatchDispatcher,
    QueryResultCache,
    query_key,
)
from repro.tables import AESA, LAESA

K = 5
N_QUERIES = 5
DATA = Path(__file__).parent / "data"


def _sample_queries(dataset, n=N_QUERIES, seed=17):
    rng = np.random.default_rng(seed)
    return [dataset[int(i)] for i in rng.choice(len(dataset), size=n, replace=False)]


# ---------------------------------------------------------------------------
# snapshot round-trips, every index family
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("index_name", indexes_for("Words"))
def test_snapshot_roundtrip_words(datasets, built_indexes, tmp_path, index_name):
    """build -> query -> snapshot -> restore -> identical answers, 0 compdists."""
    dataset = datasets["Words"]
    index = built_indexes("Words", index_name)
    queries = _sample_queries(dataset)
    radius = RADIUS["Words"]
    expected_range = [index.range_query(q, radius) for q in queries]
    expected_knn = [index.knn_query(q, K) for q in queries]

    path = tmp_path / f"{index_name}.snap"
    info = save_index(index, path)
    assert info.format_version == SNAPSHOT_FORMAT_VERSION
    assert info.n_objects == len(dataset)

    restore_counters = CostCounters()
    restored = load_index(path, counters=restore_counters)
    # the whole point: restoring performs no distance computations and
    # writes no pages (the build already happened)
    assert restore_counters.distance_computations == 0
    assert restore_counters.page_writes == 0

    assert [restored.range_query(q, radius) for q in queries] == expected_range
    assert [restored.knn_query(q, K) for q in queries] == expected_knn


@pytest.mark.parametrize("index_name", ("LAESA", "CPT", "MVPT", "M-index*"))
def test_snapshot_roundtrip_vector_dataset(
    datasets, built_indexes, tmp_path, index_name
):
    """Vector (LA) round-trips, including a disk-based index's page store."""
    dataset = datasets["LA"]
    index = built_indexes("LA", index_name)
    queries = _sample_queries(dataset)
    radius = RADIUS["LA"]
    expected = index.range_query_many(queries, radius)

    path = tmp_path / f"{index_name}.snap"
    save_index(index, path)
    counters = CostCounters()
    restored = load_index(path, counters=counters)
    assert counters.distance_computations == 0
    assert restored.range_query_many(queries, radius) == expected
    assert restored.knn_query_many(queries, K) == index.knn_query_many(queries, K)


def test_snapshot_roundtrip_sharded(datasets, tmp_path):
    dataset = datasets["LA"]
    space = MetricSpace(dataset, CostCounters())
    sharded = ShardedIndex.build(
        space,
        lambda s: LAESA.build(s, select_pivots(s, 3, strategy="hfi", seed=0)),
        n_shards=3,
        seed=1,
    )
    queries = _sample_queries(dataset)
    radius = RADIUS["LA"]
    expected = sharded.range_query_many(queries, radius)

    path = tmp_path / "sharded.snap"
    save_index(sharded, path)
    counters = CostCounters()
    restored = load_index(path, counters=counters)
    assert counters.distance_computations == 0
    assert restored.range_query_many(queries, radius) == expected
    # restored sharded indexes come back serial: pools don't serialise
    assert restored.executor is None


def test_restored_per_shard_counters_not_double_counted(datasets, tmp_path):
    """Restoring a per-shard-counters ShardedIndex must keep the shards'
    counters private -- collapsing them onto the parent's would count every
    shard call twice (once direct, once via the merged delta)."""
    dataset = datasets["LA"]
    space = MetricSpace(dataset, CostCounters())
    index = ShardedIndex.build(
        space, _build_shard_laesa, n_shards=3, seed=2, per_shard_counters=True
    )
    queries = _sample_queries(dataset, n=3)
    before = space.counters.snapshot()
    expected = index.range_query_many(queries, RADIUS["LA"])
    original_cost = (space.counters.snapshot() - before).distance_computations

    path = tmp_path / "per-shard.snap"
    save_index(index, path)
    counters = CostCounters()
    restored = load_index(path, counters=counters)
    assert restored.range_query_many(queries, RADIUS["LA"]) == expected
    assert counters.distance_computations == original_cost
    # the shards keep private accumulators distinct from the parent's
    assert all(
        shard.space.counters is not restored.space.counters
        for shard in restored.shards
    )


def test_restored_disk_index_still_counts_page_accesses(
    datasets, built_indexes, tmp_path
):
    """CPT's pager survives the trip: restored queries still report PA."""
    index = built_indexes("LA", "CPT")
    queries = _sample_queries(datasets["LA"])
    path = tmp_path / "cpt.snap"
    save_index(index, path)
    counters = CostCounters()
    restored = load_index(path, counters=counters)
    restored.range_query_many(queries, RADIUS["LA"])
    assert counters.page_reads > 0
    assert counters.distance_computations > 0


def test_snapshot_info_reads_header_only(datasets, built_indexes, tmp_path):
    index = built_indexes("Words", "LAESA")
    path = tmp_path / "laesa.snap"
    written = save_index(index, path)
    info = snapshot_info(path)
    assert info == written
    assert info.index_name == "LAESA"
    assert info.distance_name == "edit"
    assert info.payload_bytes > 0


def test_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.snap"
    path.write_bytes(b"NOTASNAP" + b"\x00" * 64)
    with pytest.raises(SnapshotError, match="bad magic"):
        load_index(path)


def test_snapshot_rejects_future_format(datasets, built_indexes, tmp_path):
    import json

    from repro.service import SNAPSHOT_MAGIC

    index = built_indexes("Words", "LAESA")
    path = tmp_path / "laesa.snap"
    save_index(index, path)
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[8:12], "big")
    header = json.loads(blob[12 : 12 + header_len])
    header["format_version"] = SNAPSHOT_FORMAT_VERSION + 1
    new_header = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(
        SNAPSHOT_MAGIC
        + len(new_header).to_bytes(4, "big")
        + new_header
        + blob[12 + header_len :]
    )
    with pytest.raises(SnapshotError, match="format"):
        load_index(path)


@pytest.mark.parametrize("edit", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS)
def test_snapshot_rejects_a_malformed_header(built_indexes, tmp_path, edit):
    path = tmp_path / "laesa.snap"
    save_index(built_indexes("LA", "LAESA"), path)
    rewrite_header(path, edit)
    with pytest.raises(SnapshotError, match="header"):
        snapshot_info(path)
    with pytest.raises(SnapshotError, match="header"):
        load_index(path)


def test_snapshot_rejects_truncated_payload(datasets, built_indexes, tmp_path):
    index = built_indexes("Words", "LAESA")
    path = tmp_path / "laesa.snap"
    save_index(index, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 100])
    with pytest.raises(SnapshotError, match="truncated"):
        load_index(path)


def test_v1_snapshot_still_loads(migrated):
    """Cross-version regression: snapshots written as v1 (one pickle, no
    regions) keep loading through ``repro migrate``.  Nothing writes v1 any
    more, so the file is one the PR 21 writer left in ``tests/data``
    (LAESA, ``make_la(300, seed=11)``, 5 HFI pivots) beside the answers
    that commit gave."""
    path = DATA / "pr21_laesa_la300.v1.snap"
    expected = json.loads((DATA / "pr21_la300_expected.json").read_text())
    info = snapshot_info(path)
    assert info.format_version == 1
    assert info.n_regions == 0 and info.region_bytes == 0

    counters = CostCounters()
    restored = load_index(migrated(path.name), counters=counters)
    assert counters.distance_computations == 0
    dataset = make_la(300, seed=11)
    queries = [dataset[i] for i in expected["query_ids"]]
    assert restored.range_query_many(queries, expected["radius"]) == expected["range"]
    assert [
        [[n.distance, n.object_id] for n in answer]
        for answer in restored.knn_query_many(queries, expected["k"])
    ] == expected["knn"]


def test_v2_snapshot_grows_memmap_regions(datasets, built_indexes, tmp_path):
    """Vector tables leave the pickle payload and become mapped regions."""
    index = built_indexes("LA", "LAESA")
    path = tmp_path / "laesa.v2.snap"
    whole_pickle = len(pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL))
    v2_info = save_index(index, path)
    assert v2_info.format_version == SNAPSHOT_FORMAT_VERSION == 5
    assert v2_info.n_regions > 0
    assert v2_info.region_bytes > 0
    # the bytes moved, they didn't duplicate: the v2 pickle shrinks by
    # (roughly) what the regions now carry
    assert v2_info.payload_bytes + v2_info.region_bytes < whole_pickle * 1.1


def test_restored_tables_are_views_of_the_snapshot_file(datasets, built_indexes, tmp_path):
    """What the memmap restore is for, held by construction instead of by a
    wall-clock ratio: the restored vector tables are ``np.memmap`` views of
    the file (nothing was copied out of it), the regions hold at least the
    tables' bytes, no distance is computed, and answers are the live
    index's."""
    dataset = datasets["LA"]
    index = built_indexes("LA", "LAESA")
    queries = _sample_queries(dataset)
    path = tmp_path / "laesa.snap"
    info = save_index(index, path)
    counters = CostCounters()
    restored = load_index(path, counters=counters)
    tables = (restored.space.dataset.objects, restored._rows)
    for table in tables:
        assert isinstance(table, np.memmap)
        assert Path(table.filename) == path and table.nbytes >= 4096
    assert info.region_bytes >= sum(table.nbytes for table in tables)
    assert counters.distance_computations == 0
    assert restored.range_query_many(queries, RADIUS["LA"]) == index.range_query_many(
        queries, RADIUS["LA"]
    )
    assert restored.knn_query_many(queries, K) == index.knn_query_many(queries, K)
    # copy-on-write: the restored index takes updates, the file never changes
    before = path.read_bytes()
    restored.insert(dataset[0])
    assert path.read_bytes() == before


def test_v2_snapshot_rejects_truncated_region(datasets, built_indexes, tmp_path):
    index = built_indexes("LA", "LAESA")
    path = tmp_path / "laesa.snap"
    info = save_index(index, path)
    assert info.n_regions > 0
    blob = path.read_bytes()
    # cut inside the region block: the header survives, the data doesn't
    path.write_bytes(blob[: len(blob) - (info.region_bytes // 2)])
    with pytest.raises(SnapshotError, match="truncated"):
        load_index(path)


def test_v2_snapshot_rejects_corrupt_region_table(datasets, built_indexes, tmp_path):
    import json

    from repro.service import SNAPSHOT_MAGIC

    index = built_indexes("LA", "LAESA")
    path = tmp_path / "laesa.snap"
    save_index(index, path)
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[8:12], "big")
    header = json.loads(blob[12 : 12 + header_len])
    assert header["regions"], "expected a region table in a v2 vector snapshot"

    def rewrite(mutate):
        bad = json.loads(json.dumps(header))
        mutate(bad)
        new_header = json.dumps(bad, sort_keys=True).encode()
        prefix = SNAPSHOT_MAGIC + len(new_header).to_bytes(4, "big") + new_header
        # regions start at the next 4 KiB boundary, so a same-ballpark
        # header length leaves every region offset valid
        assert len(prefix) <= 4096 and 12 + header_len <= 4096
        path.write_bytes(prefix + b"\x00" * (4096 - len(prefix)) + blob[4096:])

    def corrupt_nbytes(h):
        h["regions"][0]["nbytes"] += 8

    def corrupt_dtype(h):
        h["regions"][0]["dtype"] = "|O8"

    def corrupt_offset(h):
        h["regions"][0]["offset"] = h["regions_span"]

    for mutate in (corrupt_nbytes, corrupt_dtype, corrupt_offset):
        rewrite(mutate)
        with pytest.raises(SnapshotError):
            load_index(path)


# ---------------------------------------------------------------------------
# LRU result cache
# ---------------------------------------------------------------------------


def test_query_key_canonicalises_equal_vectors():
    a = np.array([1.0, 2.0, 3.0])
    assert query_key(a) == query_key(a.copy())
    assert query_key(a) != query_key(np.array([1.0, 2.0, 4.0]))
    assert query_key("word") == query_key("word")
    assert query_key((1, 2)) == query_key((1, 2))
    # dtype matters: float32 bytes differ from float64
    assert query_key(a) != query_key(a.astype(np.float32))


def test_cache_hit_miss_eviction_stats_fold_into_counters():
    counters = CostCounters()
    cache = QueryResultCache(capacity=2, counters=counters)
    k1 = cache.make_key("idx", "range", "alpha", 2.0)
    k2 = cache.make_key("idx", "range", "beta", 2.0)
    k3 = cache.make_key("idx", "range", "gamma", 2.0)

    assert cache.get(k1) is None  # miss
    cache.put(k1, [1, 2])
    assert cache.get(k1) == [1, 2]  # hit
    cache.put(k2, [3])
    cache.put(k3, [4])  # evicts k1 (LRU)
    assert cache.get(k1) is None  # miss after eviction
    assert cache.hits == 1 and cache.misses == 2 and cache.evictions == 1
    assert counters.cache_hits == 1
    assert counters.cache_misses == 2
    assert counters.cache_evictions == 1
    snap = counters.snapshot()
    assert snap.cache_hits == 1 and snap.cache_misses == 2


def test_cache_returns_copies():
    cache = QueryResultCache(capacity=4)
    key = cache.make_key("idx", "range", "q", 1.0)
    cache.put(key, [1, 2, 3])
    first = cache.get(key)
    first.append(99)
    assert cache.get(key) == [1, 2, 3]


def test_cache_capacity_zero_disables():
    cache = QueryResultCache(capacity=0)
    key = cache.make_key("idx", "range", "q", 1.0)
    cache.put(key, [1])
    assert cache.get(key) is None
    assert len(cache) == 0


def test_cache_byte_budget_evicts_by_bytes():
    """A byte budget evicts LRU entries even when the count budget has room."""
    counters = CostCounters()
    cache = QueryResultCache(capacity=100, counters=counters, capacity_bytes=2048)
    keys = [cache.make_key("idx", "range", f"q{i}", 1.0) for i in range(6)]
    big = list(range(100))  # ~= 256 overhead + 800 id bytes per entry
    for key in keys:
        cache.put(key, big)
    stats = cache.stats()
    assert stats["capacity_bytes"] == 2048
    assert 0 < stats["cache_bytes"] <= 2048
    assert len(cache) < 6, "byte budget never evicted"
    assert cache.evictions > 0
    # most-recent entries survive, oldest were evicted
    assert cache.get(keys[-1]) == big
    assert cache.get(keys[0]) is None


def test_cache_bytes_tracks_replacement_and_invalidation():
    cache = QueryResultCache(capacity=8, capacity_bytes=1 << 20)
    key = cache.make_key("idx", "range", "q", 1.0)
    cache.put(key, list(range(50)))
    first = cache.stats()["cache_bytes"]
    cache.put(key, list(range(10)))  # replacement must not double-count
    second = cache.stats()["cache_bytes"]
    assert 0 < second < first
    other = cache.make_key("other", "range", "q", 1.0)
    cache.put(other, [1, 2, 3])
    cache.invalidate("idx")
    assert cache.stats()["cache_bytes"] < second
    cache.invalidate()
    assert cache.stats()["cache_bytes"] == 0


def test_cache_capacity_bytes_zero_disables():
    cache = QueryResultCache(capacity=8, capacity_bytes=0)
    key = cache.make_key("idx", "range", "q", 1.0)
    cache.put(key, [1])
    assert cache.get(key) is None
    assert len(cache) == 0


def test_cache_ttl_expires_entries_as_misses():
    """An entry older than ttl_s is dropped on lookup: counted as a miss
    plus the dedicated ``expired`` stat, never returned."""
    counters = CostCounters()
    cache = QueryResultCache(capacity=8, counters=counters, ttl_s=0.05)
    key = cache.make_key("idx", "range", "q", 1.0)
    cache.put(key, [1, 2])
    assert cache.get(key) == [1, 2]  # fresh: a plain hit
    time.sleep(0.06)
    assert cache.get(key) is None  # expired -> miss
    assert cache.expired == 1
    assert cache.hits == 1 and cache.misses == 1
    assert counters.cache_misses == 1
    assert len(cache) == 0  # the expired entry was evicted, bytes released
    assert cache.stats()["cache_bytes"] == 0
    # the slot is reusable: a fresh put serves again
    cache.put(key, [3])
    assert cache.get(key) == [3]
    stats = cache.stats()
    assert stats["expired"] == 1
    assert stats["ttl_s"] == 0.05


def test_cache_ttl_zero_expires_immediately():
    cache = QueryResultCache(capacity=8, ttl_s=0)
    key = cache.make_key("idx", "range", "q", 1.0)
    cache.put(key, [1])
    assert cache.get(key) is None
    assert cache.expired == 1


def test_cache_ttl_none_never_expires():
    cache = QueryResultCache(capacity=8)
    key = cache.make_key("idx", "range", "q", 1.0)
    cache.put(key, [1])
    assert cache.get(key) == [1]
    assert cache.expired == 0
    assert cache.stats()["ttl_s"] is None


def test_cache_rejects_negative_ttl():
    with pytest.raises(ValueError, match="ttl_s"):
        QueryResultCache(capacity=8, ttl_s=-1.0)


def test_service_cache_ttl_reaches_stats_and_expires(datasets, built_indexes):
    index = built_indexes("Words", "LAESA")
    q = datasets["Words"][0]
    radius = RADIUS["Words"]
    with QueryService(index, cache_ttl_s=0.05, use_dispatcher=False) as service:
        expected = service.range_query(q, radius)
        assert service.range_query(q, radius) == expected  # warm hit
        assert service.stats()["cache"]["hits"] == 1
        time.sleep(0.06)
        # the stale entry is recomputed, not served
        assert service.range_query(q, radius) == expected
        stats = service.stats()["cache"]
        assert stats["ttl_s"] == 0.05
        assert stats["expired"] == 1
        assert stats["misses"] == 2


def test_service_cache_bytes_budget_reaches_stats(datasets, built_indexes):
    index = built_indexes("Words", "LAESA")
    with QueryService(index, cache_bytes=1 << 16, use_dispatcher=False) as service:
        service.range_query(datasets["Words"][0], RADIUS["Words"])
        stats = service.stats()["cache"]
    assert stats["capacity_bytes"] == 1 << 16
    assert stats["cache_bytes"] > 0


def test_cache_invalidate_per_index():
    cache = QueryResultCache(capacity=8)
    cache.put(cache.make_key("a", "range", "q", 1.0), [1])
    cache.put(cache.make_key("b", "range", "q", 1.0), [2])
    assert cache.invalidate("a") == 1
    assert cache.get(cache.make_key("b", "range", "q", 1.0)) == [2]
    assert cache.invalidate() == 1  # drops everything left
    assert len(cache) == 0


def test_cache_rejects_puts_older_than_invalidation():
    """An answer computed before a concurrent mutation must not be cached."""
    cache = QueryResultCache(capacity=8)
    key = cache.make_key("idx", "range", "q", 1.0)
    generation = cache.generation("idx")
    cache.invalidate("idx")  # the mutation lands while the answer computes
    cache.put(key, [1, 2], generation=generation)  # stale: dropped
    assert cache.get(key) is None
    fresh = cache.generation("idx")
    cache.put(key, [3], generation=fresh)
    assert cache.get(key) == [3]
    cache.invalidate()  # global invalidation bumps every index's epoch
    cache.put(key, [4], generation=fresh)
    assert cache.get(key) is None


def test_cache_is_safe_under_concurrent_mutation():
    """get/put/invalidate from many threads: no lost structure, no crashes."""
    cache = QueryResultCache(capacity=32, counters=CostCounters())
    stop = threading.Event()
    errors = []

    def hammer(worker_id):
        try:
            i = 0
            while not stop.is_set():
                key = cache.make_key("idx", "range", f"q{worker_id}-{i % 40}", 1.0)
                cache.put(key, [i])
                cache.get(key)
                if i % 17 == 0:
                    cache.invalidate("idx")
                i += 1
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(w,)) for w in range(6)]
    for t in threads:
        t.start()
    time.sleep(0.3)
    stop.set()
    for t in threads:
        t.join()
    assert not errors
    assert len(cache) <= 32


def test_radius_distinguishes_cache_entries(datasets, built_indexes):
    index = built_indexes("Words", "LAESA")
    with QueryService(index, use_dispatcher=False) as service:
        q = datasets["Words"][0]
        small = service.range_query(q, 1.0)
        large = service.range_query(q, 4.0)
        assert small == index.range_query(q, 1.0)
        assert large == index.range_query(q, 4.0)
        assert set(small) <= set(large)
        assert service.cache.misses == 2  # distinct radii never collide


# ---------------------------------------------------------------------------
# micro-batching dispatcher
# ---------------------------------------------------------------------------


def _echo_executor(index_id, kind, param, queries):
    return [(index_id, kind, param, q) for q in queries]


class _GatedExecutor:
    """Echo executor whose first batch blocks until ``gate`` is set: the
    worker is busy meanwhile, so everything submitted then is queued."""

    def __init__(self):
        self.batches = []
        self.started = threading.Event()
        self.gate = threading.Event()

    def __call__(self, index_id, kind, param, queries):
        self.batches.append(list(queries))
        self.started.set()
        self.gate.wait(timeout=5)
        return _echo_executor(index_id, kind, param, queries)


def test_dispatcher_answers_in_submission_order():
    with MicroBatchDispatcher(_echo_executor, max_batch_size=4) as d:
        futures = [d.submit("", "range", f"q{i}", 2.0) for i in range(10)]
        results = [f.result(timeout=5) for f in futures]
    assert results == [("", "range", 2.0, f"q{i}") for i in range(10)]


def test_dispatcher_coalesces_concurrent_callers():
    calls = []

    def executor(index_id, kind, param, queries):
        calls.append(len(queries))
        time.sleep(0.002)  # give the pending queue time to fill
        return [None for _ in queries]

    with MicroBatchDispatcher(executor, max_batch_size=16) as d:
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(
                pool.map(lambda i: d.submit("", "range", i, 1.0).result(), range(64))
            )
        stats = d.stats
    assert stats.queries == 64
    # coalescing must actually happen: far fewer batches than queries
    assert stats.batches < 64
    assert stats.mean_batch_size > 1.0
    assert max(calls) <= 16  # max_batch_size respected


def test_dispatcher_separates_incompatible_groups():
    seen = []

    def executor(index_id, kind, param, queries):
        seen.append((index_id, kind, param, len(queries)))
        return [0 for _ in queries]

    with MicroBatchDispatcher(executor, max_batch_size=8) as d:
        futures = [d.submit("", "range", i, 1.0) for i in range(3)]
        futures += [d.submit("", "range", i, 2.0) for i in range(3)]
        futures += [d.submit("", "knn", i, 2.0) for i in range(3)]
        for f in futures:
            f.result(timeout=5)
    groups = {(index_id, kind, param) for index_id, kind, param, _ in seen}
    # one group per (index, kind, param): a radius-1 MRQ never batches with
    # a radius-2 MRQ or with a k=2 kNN
    assert groups == {("", "range", 1.0), ("", "range", 2.0), ("", "knn", 2.0)}


def test_dispatcher_propagates_executor_errors():
    def executor(index_id, kind, param, queries):
        raise ValueError("boom")

    with MicroBatchDispatcher(executor, max_batch_size=4) as d:
        future = d.submit("", "range", "q", 1.0)
        with pytest.raises(ValueError, match="boom"):
            future.result(timeout=5)


@pytest.mark.parametrize("n", [1, 5, 8, 19])
def test_dispatcher_batches_what_queued_behind_a_running_batch(n):
    """No timer: the queries queued while a batch runs are the next
    batches, exactly n of them, split at max_batch_size."""
    executor = _GatedExecutor()
    with MicroBatchDispatcher(executor, max_batch_size=8) as d:
        first = d.submit("", "range", "first", 1.0)
        assert executor.started.wait(timeout=5)  # the worker is inside batch 1
        futures = [d.submit("", "range", i, 1.0) for i in range(n)]
        executor.gate.set()
        assert first.result(timeout=5) == ("", "range", 1.0, "first")
        assert [f.result(timeout=5) for f in futures] == [
            ("", "range", 1.0, i) for i in range(n)
        ]
    assert [len(batch) for batch in executor.batches] == (
        [1] + [8] * (n // 8) + ([n % 8] if n % 8 else [])
    )
    assert [q for batch in executor.batches[1:] for q in batch] == list(range(n))


def test_dispatcher_answers_stay_exact_across_batches():
    with MicroBatchDispatcher(_echo_executor, max_batch_size=4) as d:
        futures = [d.submit("", "range", f"q{i}", 2.0) for i in range(30)]
        results = [f.result(timeout=5) for f in futures]
    assert results == [("", "range", 2.0, f"q{i}") for i in range(30)]


def test_dispatcher_close_drains_pending_and_rejects_new():
    executor = _GatedExecutor()
    d = MicroBatchDispatcher(executor, max_batch_size=64)
    first = d.submit("", "range", "first", 1.0)
    assert executor.started.wait(timeout=5)
    futures = [d.submit("", "range", i, 1.0) for i in range(5)]
    closer = threading.Thread(target=d.close)
    closer.start()
    deadline = time.monotonic() + 5
    while not d._closed and time.monotonic() < deadline:
        time.sleep(0.001)
    # closed while work is still queued: new work is refused at once ...
    with pytest.raises(RuntimeError, match="closed"):
        d.submit("", "range", "late", 1.0)
    executor.gate.set()
    closer.join(timeout=5)
    assert not closer.is_alive()
    # ... and what was queued before still runs
    assert first.result(timeout=0) == ("", "range", 1.0, "first")
    assert [f.result(timeout=0) for f in futures] == [
        ("", "range", 1.0, i) for i in range(5)
    ]
    assert [len(batch) for batch in executor.batches] == [1, 5]
    d.close()  # idempotent


def test_cancelled_submission_leaves_the_worker_serving():
    """A Future cancelled while queued is skipped; the worker must survive
    it (resolving a cancelled Future raises InvalidStateError)."""
    executor = _GatedExecutor()
    with MicroBatchDispatcher(executor, max_batch_size=8) as d:
        first = d.submit("", "range", "first", 1.0)
        assert executor.started.wait(timeout=5)
        doomed = d.submit("", "range", "doomed", 1.0)
        kept = d.submit("", "range", "kept", 1.0)
        assert doomed.cancel()
        executor.gate.set()
        assert first.result(timeout=5) == ("", "range", 1.0, "first")
        assert kept.result(timeout=5) == ("", "range", 1.0, "kept")
        assert d.submit("", "range", "next", 1.0).result(timeout=5) == (
            "", "range", 1.0, "next"
        )
    assert doomed.cancelled()
    assert executor.batches == [["first"], ["kept"], ["next"]]


def test_dispatcher_rejects_bad_arguments():
    with pytest.raises(ValueError):
        MicroBatchDispatcher(_echo_executor, max_batch_size=0)
    with MicroBatchDispatcher(_echo_executor) as d:
        with pytest.raises(ValueError, match="kind"):
            d.submit("", "nearest", "q", 1.0)


# ---------------------------------------------------------------------------
# QueryService facade
# ---------------------------------------------------------------------------


def test_service_answers_match_brute_force(datasets, built_indexes):
    dataset = datasets["Words"]
    index = built_indexes("Words", "LAESA")
    queries = _sample_queries(dataset, n=8)
    radius = RADIUS["Words"]
    scratch = MetricSpace(dataset)
    with QueryService(index, max_batch_size=8) as service:
        with ThreadPoolExecutor(max_workers=6) as pool:
            range_answers = list(
                pool.map(lambda q: service.range_query(q, radius), queries)
            )
            knn_answers = list(pool.map(lambda q: service.knn_query(q, K), queries))
    assert range_answers == [brute_force_range(scratch, q, radius) for q in queries]
    assert knn_answers == [brute_force_knn(scratch, q, K) for q in queries]


def test_service_submit_after_a_cancelled_future_resolves(
    datasets, built_indexes, monkeypatch
):
    """Cancelling a ``submit_range`` Future before its batch runs must not
    stall the service: the next submission still resolves."""
    index = built_indexes("Words", "LAESA")
    dataset, radius = datasets["Words"], RADIUS["Words"]
    started, gate = threading.Event(), threading.Event()
    answer_many = index.range_query_many

    def held(queries, r):
        started.set()
        gate.wait(timeout=5)
        return answer_many(queries, r)

    monkeypatch.setattr(index, "range_query_many", held)
    with QueryService(index, cache_size=0) as service:
        first = service.submit_range(dataset[0], radius)
        assert started.wait(timeout=5)
        doomed = service.submit_range(dataset[1], radius)
        assert doomed.cancel()
        gate.set()
        assert first.result(timeout=5) == index.range_query(dataset[0], radius)
        after = service.submit_range(dataset[2], radius)
        assert after.result(timeout=5) == index.range_query(dataset[2], radius)
    assert doomed.cancelled()


def test_service_warm_cache_skips_index_work(datasets, built_indexes):
    dataset = datasets["Words"]
    index = built_indexes("Words", "LAESA")
    queries = _sample_queries(dataset, n=6)
    radius = RADIUS["Words"]
    counters = CostCounters()
    with QueryService(index, counters=counters, use_dispatcher=False) as service:
        cold = [service.range_query(q, radius) for q in queries]
        after_cold = counters.snapshot()
        warm = [service.range_query(q, radius) for q in queries]
        delta = counters.snapshot() - after_cold
    assert warm == cold
    assert delta.distance_computations == 0  # pure cache hits
    assert delta.cache_hits == len(queries)

    # the serving shape: a mixed MRQ / MkNNQ stream from concurrent callers
    # through the dispatcher; its second pass is answered by the cache alone
    stream = [("range", q, radius) for q in queries] + [("knn", q, 5) for q in queries]
    counters = CostCounters()
    with QueryService(index, counters=counters) as service:

        def one(request):
            kind, q, param = request
            if kind == "range":
                return service.range_query(q, param)
            return service.knn_query(q, param)

        with ThreadPoolExecutor(max_workers=4) as pool:
            cold = list(pool.map(one, stream))
            after_cold = counters.snapshot()
            warm = list(pool.map(one, stream))
        delta = counters.snapshot() - after_cold
    assert warm == cold
    assert delta.distance_computations == 0
    assert (delta.cache_hits, delta.cache_misses) == (len(stream), 0)  # hit rate 1.0


def test_service_batch_entry_points_are_cache_aware(datasets, built_indexes):
    dataset = datasets["Words"]
    index = built_indexes("Words", "MVPT")
    queries = _sample_queries(dataset, n=6)
    radius = RADIUS["Words"]
    with QueryService(index, use_dispatcher=False) as service:
        first = service.range_query_many(queries, radius)
        # mixed batch: 6 hits + 2 misses -> only 2 queries reach the index
        extra = _sample_queries(dataset, n=8, seed=18)[6:]
        mixed = queries + extra
        answers = service.range_query_many(mixed, radius)
    assert answers[: len(queries)] == first
    assert answers[len(queries) :] == index.range_query_many(extra, radius)
    assert service.cache.hits >= len(queries)


def test_service_deduplicates_identical_queries_in_flight(datasets, built_indexes):
    dataset = datasets["Words"]
    index = built_indexes("Words", "LAESA")
    q = dataset[3]
    radius = RADIUS["Words"]
    counters = CostCounters()
    expected = index.range_query(q, radius)
    with QueryService(index, counters=counters, use_dispatcher=False) as service:
        answers = service.range_query_many([q, q, q, q], radius)
    assert answers == [expected] * 4
    # one evaluation: the l pivot distances + the survivor verifications,
    # not four times that
    single = CostCounters()
    with QueryService(
        index, counters=single, cache_size=0, use_dispatcher=False
    ) as fresh:
        fresh.range_query(q, radius)
    assert counters.distance_computations == single.distance_computations


def test_service_mutations_invalidate_cache(datasets, pivots):
    dataset = datasets["Words"]
    space = MetricSpace(dataset, CostCounters())
    index = LAESA.build(space, pivots["Words"])
    q = dataset[0]
    radius = RADIUS["Words"]
    with QueryService(index, use_dispatcher=False) as service:
        before = service.range_query(q, radius)
        victim = before[-1]
        service.delete(victim)
        after_delete = service.range_query(q, radius)
        assert victim not in after_delete
        service.insert(dataset[victim], object_id=victim)
        assert service.range_query(q, radius) == before


def test_reinsert_tied_at_the_kth_distance_drops_the_cached_knn():
    """The kNN answer cached after its 5th object was deleted ends at a tie
    (object 5, at the deleted object's distance 3).  Re-inserting the
    deleted object at its id brings back a neighbour *at* the kth distance,
    which wins the tie on its id: the cache must drop the entry (``d <=``
    the kth distance, not ``<``) and serve what the index answers."""
    words = make_words(500, seed=7)
    space = MetricSpace(words)
    index = LAESA.build(space, select_pivots(space, 4, strategy="hfi", seed=0))
    q = words[0]
    with QueryService(index, cache_size=64) as service:
        gone = service.knn_query(q, 5)[-1].object_id
        service.delete(gone)
        after_delete = service.knn_query(q, 5)
        assert after_delete[-1].distance == 3.0 and gone not in [n.object_id for n in after_delete]
        service.insert(words[gone], object_id=gone)
        served = service.knn_query(q, 5)
    assert [n.object_id for n in served] == [n.object_id for n in index.knn_query(q, 5)]
    assert [n.object_id for n in served] == [0, 1, 2, 3, 4]


def test_service_from_snapshot_roundtrip(datasets, built_indexes, tmp_path):
    dataset = datasets["Words"]
    index = built_indexes("Words", "LAESA")
    queries = _sample_queries(dataset)
    radius = RADIUS["Words"]
    path = tmp_path / "svc.snap"
    with QueryService(index, use_dispatcher=False) as service:
        expected = service.range_query_many(queries, radius)
        service.save(path)
    with QueryService.from_snapshot(path, use_dispatcher=False) as restored:
        assert restored.counters.distance_computations == 0
        assert restored.range_query_many(queries, radius) == expected
        stats = restored.stats()
    assert stats["cache"]["misses"] == len(queries)
    assert stats["distance_computations"] > 0


def test_service_stats_shape(datasets, built_indexes):
    index = built_indexes("Words", "LAESA")
    with QueryService(index) as service:
        service.range_query(datasets["Words"][0], 2.0)
        stats = service.stats()
    assert stats["index"] == "LAESA"
    assert set(stats["cache"]) >= {"hits", "misses", "evictions", "hit_rate"}
    assert set(stats["dispatcher"]) >= {"queries", "batches", "mean_batch_size"}


def test_service_submit_futures(datasets, built_indexes):
    dataset = datasets["Words"]
    index = built_indexes("Words", "LAESA")
    q = dataset[5]
    radius = RADIUS["Words"]
    with QueryService(index) as service:
        first = service.submit_range(q, radius).result(timeout=5)
        # second submit is a cache hit: resolved future, no dispatcher trip
        batches_before = service.dispatcher.stats.batches
        second = service.submit_range(q, radius)
        assert second.done()
        assert second.result() == first
        assert service.dispatcher.stats.batches == batches_before
        knn = service.submit_knn(q, K).result(timeout=5)
    assert knn == index.knn_query(q, K)
    with QueryService(index, use_dispatcher=False) as plain:
        with pytest.raises(RuntimeError, match="use_dispatcher"):
            plain.submit_range(q, radius)


# ---------------------------------------------------------------------------
# satellite: per-shard counters under thread and process pools
# ---------------------------------------------------------------------------


def _build_shard_laesa(space):
    """Module-level so a ProcessPoolExecutor can pickle the factory."""
    return LAESA.build(space, select_pivots(space, 3, strategy="hfi", seed=0))


def _sharded_counts(datasets, executor, per_shard):
    dataset = datasets["LA"]
    space = MetricSpace(dataset, CostCounters())
    index = ShardedIndex.build(
        space,
        _build_shard_laesa,
        n_shards=3,
        seed=2,
        executor=executor,
        per_shard_counters=per_shard,
    )
    build_snap = space.counters.snapshot()
    queries = _sample_queries(dataset, n=4)
    answers = index.range_query_many(queries, RADIUS["LA"])
    answers_knn = index.knn_query_many(queries, K)
    single = [index.range_query(queries[0], RADIUS["LA"])]
    total = space.counters.snapshot()
    return {
        "build": build_snap.distance_computations,
        "queries": (total - build_snap).distance_computations,
        "answers": (answers, answers_knn, single),
    }


def test_counters_merge_adds_counts():
    a = CostCounters(distance_computations=3, page_reads=1, cache_hits=2)
    b = CostCounters(distance_computations=4, page_writes=5, cache_misses=6)
    a.merge(b)
    assert a.distance_computations == 7
    assert a.page_reads == 1 and a.page_writes == 5
    assert a.cache_hits == 2 and a.cache_misses == 6
    a.merge(b.snapshot())  # snapshots merge too (elapsed ignored)
    assert a.distance_computations == 11


def test_sharded_counters_equal_across_executors(datasets):
    serial = _sharded_counts(datasets, executor=None, per_shard=False)
    per_shard_serial = _sharded_counts(datasets, executor=None, per_shard=True)
    with ThreadPoolExecutor(max_workers=3) as pool:
        threaded = _sharded_counts(datasets, executor=pool, per_shard=True)
    with ProcessPoolExecutor(max_workers=2) as pool:
        processed = _sharded_counts(datasets, executor=pool, per_shard=True)
    assert (
        serial["answers"]
        == per_shard_serial["answers"]
        == threaded["answers"]
        == processed["answers"]
    )
    # the satellite contract: counts are exact in every execution mode --
    # including the process pool, where shared counters would read zero
    assert (
        serial["build"]
        == per_shard_serial["build"]
        == threaded["build"]
        == processed["build"]
    )
    assert (
        serial["queries"]
        == per_shard_serial["queries"]
        == threaded["queries"]
        == processed["queries"]
    )


def test_process_pool_with_shared_counters_loses_counts(datasets):
    """Documents *why* per_shard_counters exists: shared counters cannot
    cross a process boundary, so query work appears free."""
    dataset = datasets["LA"]
    space = MetricSpace(dataset, CostCounters())
    index = ShardedIndex.build(
        space, _build_shard_laesa, n_shards=3, seed=2, per_shard_counters=False
    )
    queries = _sample_queries(dataset, n=3)
    expected = index.range_query_many(queries, RADIUS["LA"])
    with ProcessPoolExecutor(max_workers=2) as pool:
        index.executor = pool
        before = space.counters.snapshot()
        answers = index.range_query_many(queries, RADIUS["LA"])
        delta = space.counters.snapshot() - before
        index.executor = None
    assert answers == expected  # results survive the boundary
    assert delta.distance_computations == 0  # ...but the counts do not


# ---------------------------------------------------------------------------
# satellite: AESA insert signature
# ---------------------------------------------------------------------------


def test_aesa_insert_signature_uniform(datasets):
    import inspect

    from repro.core.index import MetricIndex

    assert list(inspect.signature(AESA.insert).parameters) == list(
        inspect.signature(MetricIndex.insert).parameters
    )
    index = AESA.build(MetricSpace(datasets["Words"].subset(range(20))))
    with pytest.raises(UnsupportedOperation):
        index.insert("newword")
    with pytest.raises(UnsupportedOperation):
        index.insert("newword", object_id=3)


# ---------------------------------------------------------------------------
# satellite: partial cache invalidation on insert/delete
# ---------------------------------------------------------------------------


class TestPartialInvalidation:
    def _entry(self, cache, index_id, kind, query_obj, param, result):
        key = cache.make_key(index_id, kind, query_obj, param)
        cache.put(key, result, query_obj=query_obj)
        return key

    def test_insert_keeps_out_of_ball_range_entries(self):
        cache = QueryResultCache(capacity=8)
        distance = lambda a, b: abs(a - b)  # noqa: E731 - 1-d toy metric
        near = self._entry(cache, "idx", "range", 10.0, 2.0, [1])
        far = self._entry(cache, "idx", "range", 100.0, 2.0, [7])
        dropped = cache.invalidate_affected("idx", obj=11.0, distance=distance)
        assert dropped == 1  # only the entry whose ball contains 11.0
        assert cache.get(near) is None
        assert cache.get(far) == [7]

    def test_insert_uses_knn_kth_distance_ball(self):
        from repro.core.queries import Neighbor

        cache = QueryResultCache(capacity=8)
        distance = lambda a, b: abs(a - b)  # noqa: E731
        answer = [Neighbor(1.0, 3), Neighbor(4.0, 8)]
        key = self._entry(cache, "idx", "knn", 10.0, 2, list(answer))
        # d(q, 20) = 10 > kth distance 4: provably outside, entry survives
        assert cache.invalidate_affected("idx", obj=20.0, distance=distance) == 0
        assert cache.get(key) == answer
        # d(q, 13) = 3 <= 4: could enter the top-k, entry dies
        assert cache.invalidate_affected("idx", obj=13.0, distance=distance) == 1
        assert cache.get(key) is None

    def test_insert_drops_short_knn_answers(self):
        from repro.core.queries import Neighbor

        cache = QueryResultCache(capacity=8)
        distance = lambda a, b: abs(a - b)  # noqa: E731
        key = self._entry(cache, "idx", "knn", 10.0, 5, [Neighbor(1.0, 3)])
        # fewer than k answers known: any insert grows the answer
        assert cache.invalidate_affected("idx", obj=999.0, distance=distance) == 1
        assert cache.get(key) is None

    def test_delete_drops_only_containing_entries(self):
        cache = QueryResultCache(capacity=8)
        with_victim = self._entry(cache, "idx", "range", "qa", 2.0, [1, 42])
        without = self._entry(cache, "idx", "range", "qb", 2.0, [7])
        assert cache.invalidate_affected("idx", object_id=42) == 1
        assert cache.get(with_victim) is None
        assert cache.get(without) == [7]

    def test_missing_bound_falls_back_to_full_wipe(self):
        cache = QueryResultCache(capacity=8)
        self._entry(cache, "idx", "range", "qa", 2.0, [1])
        self._entry(cache, "idx", "range", "qb", 2.0, [2])
        # neither an insert bound nor a delete id: whole index wipes
        assert cache.invalidate_affected("idx") == 2
        assert len(cache) == 0

    def test_entry_without_query_object_drops_conservatively(self):
        cache = QueryResultCache(capacity=8)
        key = cache.make_key("idx", "range", 10.0, 2.0)
        cache.put(key, [1])  # stored without query_obj
        distance = lambda a, b: abs(a - b)  # noqa: E731
        assert cache.invalidate_affected("idx", obj=999.0, distance=distance) == 1
        assert cache.get(key) is None

    def test_cached_query_object_immune_to_caller_mutation(self):
        """The ball test must see the value the answer was computed for,
        even when the caller reuses its query buffer afterwards."""
        cache = QueryResultCache(capacity=8)
        q = np.array([1.0, 2.0])
        key = cache.make_key("idx", "range", q, 2.0)
        cache.put(key, [1], query_obj=q)
        q[:] = 1e9  # caller recycles the array in place
        distance = lambda a, b: float(np.abs(a - b).max())  # noqa: E731
        # the mutated object is right next to the *recycled* buffer but far
        # from the original query: the entry is provably unaffected
        dropped = cache.invalidate_affected(
            "idx", obj=np.array([1e9, 1e9]), distance=distance
        )
        assert dropped == 0
        assert cache.get(key) == [1]

    def test_partial_invalidation_bumps_generation(self):
        cache = QueryResultCache(capacity=8)
        distance = lambda a, b: abs(a - b)  # noqa: E731
        generation = cache.generation("idx")
        cache.invalidate_affected("idx", obj=0.0, distance=distance)
        assert cache.generation("idx") != generation
        # an in-flight answer computed before the mutation is dropped
        key = cache.make_key("idx", "range", 50.0, 2.0)
        cache.put(key, [9], generation=generation, query_obj=50.0)
        assert cache.get(key) is None

    def test_other_index_entries_untouched(self):
        cache = QueryResultCache(capacity=8)
        distance = lambda a, b: abs(a - b)  # noqa: E731
        mine = self._entry(cache, "a", "range", 10.0, 2.0, [1])
        other = self._entry(cache, "b", "range", 10.0, 2.0, [2])
        cache.invalidate_affected("a", obj=10.0, distance=distance)
        assert cache.get(mine) is None
        assert cache.get(other) == [2]

    def test_survivors_exclude_concurrently_evicted_entries(self):
        """The ball checks run outside the lock; entries evicted meanwhile
        were not kept by the proof and must not be credited as survivors.
        (Reproduces the defect: the old accounting added
        len(candidates) - len(doomed) regardless of what still existed.)
        The side-effecting metric stands in for a concurrent writer --
        it runs at exactly the point where real concurrent traffic can."""
        cache = QueryResultCache(capacity=2)
        for query in (100.0, 200.0):  # both far from the mutation: provable
            key = cache.make_key("idx", "range", query, 2.0)
            cache.put(key, [int(query)], query_obj=query)

        def evicting_distance(a, b):
            # each check pushes two fresh entries: capacity 2 evicts both
            # candidates while invalidate_affected is still deciding
            for i in (1, 2):
                other = cache.make_key("idx", "range", f"intruder-{a}-{i}", 9.0)
                cache.put(other, [0], query_obj=f"intruder-{a}-{i}")
            return abs(a - b)

        dropped = cache.invalidate_affected(
            "idx", obj=0.0, distance=evicting_distance
        )
        assert dropped == 0  # nothing affected, nothing left to drop
        assert cache.partial_survivors == 0  # ...and nothing survived either

    def test_survivors_exclude_concurrently_replaced_entries(self):
        """A candidate replaced by a fresh post-mutation answer is present
        under the same key but was not kept by the invalidation proof."""
        cache = QueryResultCache(capacity=8)
        key = cache.make_key("idx", "range", 100.0, 2.0)
        cache.put(key, [1], query_obj=100.0)
        kept_key = cache.make_key("idx", "range", 500.0, 2.0)
        cache.put(kept_key, [5], query_obj=500.0)

        def replacing_distance(a, b):
            if a == 100.0:  # replace this candidate mid-check
                cache.put(key, [99], query_obj=100.0)
            return abs(a - b)

        cache.invalidate_affected("idx", obj=0.0, distance=replacing_distance)
        # exactly one genuine survivor: the untouched far entry
        assert cache.partial_survivors == 1
        assert cache.get(key) == [99]  # the replacement itself is untouched
        assert cache.get(kept_key) == [5]

    def test_service_mutations_preserve_unaffected_entries(self, datasets, pivots):
        """End to end: a far-away query's cached answer survives mutations."""
        dataset = datasets["Words"]
        space = MetricSpace(dataset, CostCounters())
        index = LAESA.build(space, pivots["Words"])
        q = dataset[0]
        radius = 1.0  # tight ball: most mutations are provably outside it
        with QueryService(index, use_dispatcher=False) as service:
            before = service.range_query(q, radius)
            far_victim = max(
                range(len(dataset)),
                key=lambda i: dataset.distance(q, dataset[i]),
            )
            hits_before = service.cache.hits
            service.delete(far_victim)
            assert service.range_query(q, radius) == before
            assert service.cache.hits == hits_before + 1  # served from cache
            service.insert(dataset[far_victim], object_id=far_victim)
            assert service.range_query(q, radius) == before
            assert service.cache.hits == hits_before + 2
            assert service.cache.partial_survivors >= 2


# ---------------------------------------------------------------------------
# satellite: dispatcher stats are read/written under one lock
# ---------------------------------------------------------------------------


def test_dispatcher_stats_never_torn_under_concurrent_reads():
    """record() increments queries and batches as one atomic step: a reader
    must never observe a snapshot where one moved and the other did not.
    (The old code updated them without a lock; on GIL builds the tear
    window is real but needs unlucky preemption -- this pins the invariant
    so free-threaded builds and future edits cannot regress it.)"""
    import sys

    from repro.service import DispatcherStats

    stats = DispatcherStats()
    stop = threading.Event()

    def worker():
        while not stop.is_set():
            stats.record(4)  # a constant batch size keeps the invariant exact

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    thread = threading.Thread(target=worker)
    thread.start()
    try:
        for _ in range(4000):
            snap = stats.as_dict()
            assert snap["queries"] == 4 * snap["batches"], snap
            assert snap["mean_batch_size"] in (0.0, 4.0), snap
    finally:
        stop.set()
        thread.join()
        sys.setswitchinterval(old_interval)


def test_dispatcher_stats_updates_and_reads_share_one_lock():
    """The synchronization contract itself: while a reader holds the stats
    lock, record() and as_dict() must both block -- updates
    and reads are serialized, never interleaved."""
    from repro.service import DispatcherStats

    stats = DispatcherStats()
    stats.record(2)
    results = []
    with stats._lock:
        blocked = threading.Thread(target=lambda: (stats.record(3), results.append(stats.as_dict())))
        blocked.start()
        blocked.join(timeout=0.2)
        assert blocked.is_alive()  # record() is waiting on the held lock
        assert not results
    blocked.join(timeout=5)
    assert not blocked.is_alive()
    assert results[0]["queries"] == 5 and results[0]["batches"] == 2


def test_service_stats_consistent_under_load(datasets, built_indexes):
    """End to end: QueryService.stats() while traffic flows must report a
    dispatcher snapshot whose totals are mutually consistent."""
    index = built_indexes("Words", "LAESA")
    queries = _sample_queries(datasets["Words"], n=8)
    radius = RADIUS["Words"]
    with QueryService(index, cache_size=0) as service:
        stop = threading.Event()
        torn = []

        def reader():
            while not stop.is_set():
                snap = service.stats()["dispatcher"]
                if snap["queries"] < snap["batches"]:
                    torn.append(snap)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                list(
                    pool.map(
                        lambda i: service.range_query(queries[i % 8], radius),
                        range(64),
                    )
                )
        finally:
            stop.set()
            thread.join()
    assert not torn, torn[:3]


# ---------------------------------------------------------------------------
# satellite: a disabled cache is truly bypassed
# ---------------------------------------------------------------------------


def test_zero_capacity_cache_records_no_misses(datasets, built_indexes):
    """cache_size=0 is documented as 'disables caching entirely' -- so no
    lookup may run and no cache_miss may be counted for traffic that can
    never hit.  (Reproduces the defect: the old code counted one miss per
    query and hashed every query vector.)"""
    dataset = datasets["Words"]
    index = built_indexes("Words", "LAESA")
    queries = _sample_queries(dataset, n=4)
    radius = RADIUS["Words"]
    counters = CostCounters()
    with QueryService(
        index, counters=counters, cache_size=0, use_dispatcher=False
    ) as service:
        single = [service.range_query(q, radius) for q in queries]
        batched = service.range_query_many(queries, radius)
    assert batched == single == [index.range_query(q, radius) for q in queries]
    assert counters.cache_misses == 0
    assert counters.cache_hits == 0
    assert service.cache.misses == 0


def test_zero_capacity_cache_never_consulted(datasets, built_indexes):
    """No get() call at all with capacity 0 -- the key construction and the
    lookup are short-circuited, not just the counter."""
    index = built_indexes("Words", "LAESA")
    q = datasets["Words"][0]
    with QueryService(index, cache_size=0) as service:

        def forbidden(key):  # pragma: no cover - only on regression
            raise AssertionError("cache.get() reached despite capacity 0")

        service.cache.get = forbidden
        assert service.range_query(q, RADIUS["Words"]) == index.range_query(
            q, RADIUS["Words"]
        )
        future = service.submit_range(q, RADIUS["Words"])
        assert future.result(timeout=5) == index.range_query(q, RADIUS["Words"])


def test_zero_capacity_service_still_deduplicates_in_flight(
    datasets, built_indexes
):
    """In-batch dedup is independent of caching and must survive the
    bypass: four identical queries still cost one evaluation."""
    dataset = datasets["Words"]
    index = built_indexes("Words", "LAESA")
    q = dataset[3]
    radius = RADIUS["Words"]
    expected = index.range_query(q, radius)
    counters = CostCounters()
    with QueryService(
        index, counters=counters, cache_size=0, use_dispatcher=False
    ) as service:
        answers = service.range_query_many([q, q, q, q], radius)
        batched_cost = counters.distance_computations
    assert answers == [expected] * 4
    single = CostCounters()
    with QueryService(
        index, counters=single, cache_size=0, use_dispatcher=False
    ) as fresh:
        fresh.range_query(q, radius)
    assert batched_cost == single.distance_computations
