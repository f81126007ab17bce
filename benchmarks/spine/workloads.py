"""The four workloads of the measurement spine.

A workload is a fixed corpus plus seeded traffic.  The corpus (dataset,
radius) is part of the workload's definition and always the same; ``--seed``
draws the traffic from it: which held-out objects are queried and in what
order, which objects are deleted and re-inserted, which requests hit the hot
set.  (Drawing the corpus from the seed too was measured first: cluster
layouts differ so much that the same code read 20-50 % apart between seeds,
wider than any bound this benchmark could hold.)  The system under test is
set up through the library's public functions and never sees the seed.

Sizes are for ``--seconds 9 --scale 1`` on the 2-core sandbox the benchmark
was sized on; operation counts scale with ``--seconds``, dataset sizes
only with the benchmark-only ``--scale``.
"""

from __future__ import annotations

import math
import tempfile
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import (
    DATASET_FACTORIES,
    LAESA,
    MVPT,
    CostCounters,
    Dataset,
    HttpQueryServer,
    IndexCatalog,
    MetricSpace,
    QueryService,
    ServiceClient,
    SPBTree,
    brute_force_knn,
    brute_force_range,
    select_pivots,
)
from repro.core.distances import MetricDistance

from harness import Op, interleave, median

N_PIVOTS = 5
K = 10
BASE_SECONDS = 9
CORPUS_SEED = 2017
# where snapshots go: inside the checkout, never the system temp directory
WORK_DIR = Path(__file__).resolve().parent / ".tmp"


@dataclass(frozen=True)
class Spec:
    dataset: str
    family: str  # the module that hosts the index: per-layer build/self time
    n: int
    # objects generated beyond ``n`` in the same call (same clusters, same
    # word families): the seed picks its queries among them.  Fixed, because
    # the generators shape the whole corpus by the total they are asked for.
    held_out: int
    batch: int  # queries per mrq / knn call (1 = sequential calls)
    selectivity: float | None  # MRQ radius as a share of the dataset ...
    radius: float | None  # ... or fixed (discrete metrics)
    per_pass: dict  # operations per pass at BASE_SECONDS
    # Words only: queries and update targets are words of these lengths.  An
    # edit distance costs |a| x |b|, and words run from 2 to 34 letters: over
    # all of them "one MRQ" is not one kind of call, and its median moved by
    # 28 % with the seed
    lengths: tuple | None = None


# BENCHMARK.json and the README say why each workload exists.  Operation
# counts were tuned so a pass lasts ~1.3 s and the seven passes ~9 s.
SPECS = {
    "color_table_batch": Spec(
        dataset="Color",
        family="tables",
        n=20_000,
        held_out=8_192,
        batch=16,
        selectivity=0.01,
        radius=None,
        per_pass={"mrq": 14, "knn": 14, "update": 24},
    ),
    "words_tree_seq": Spec(
        dataset="Words",
        family="trees",
        n=2_500,
        held_out=1_024,
        batch=1,
        selectivity=None,
        radius=2.0,
        per_pass={"mrq": 16, "knn": 13, "update": 30},
        lengths=(9, 13),
    ),
    "la_disk_mixed_rw": Spec(
        dataset="LA",
        family="external",
        n=20_000,
        held_out=8_192,
        batch=1,
        selectivity=0.0005,
        radius=None,
        per_pass={"mrq": 112, "knn": 112, "update": 224},
    ),
    "la_http_catalog": Spec(
        dataset="LA",
        family="service",
        n=50_000,
        held_out=32_768,
        batch=1,
        selectivity=0.0005,
        radius=None,
        per_pass={"mrq": 300, "knn": 300, "many": 15, "update": 30},
    ),
}

# la_disk_mixed_rw: 4 KB pages, LRU buffer pool ~90x smaller than the index
PAGE_SIZE = 4096
BUFFER_POOL_BYTES = 64 * 1024
# la_http_catalog: result cache, hot set, batch endpoint
CACHE_ENTRIES = 512
HOT_QUERIES = 16
HOT_SHARE = 0.25
MANY_BATCH = 32
MANY_SELECTIVITY = 0.005


class VectorEditDistance(MetricDistance):
    """Benchmark-owned Levenshtein distance, one query against all words.

    The oracle for ``words_tree_seq`` must not cost 40 us per pair, and an
    oracle that shares no code with ``repro.core.distances.EditDistance``
    also checks that function.  Row ``i`` of the classic table is computed
    for every word at once; the left-to-right dependency ``cur[j] =
    min(t[j], cur[j-1] + 1)`` is ``j + cummin(t[j] - j)``.
    """

    name = "edit"
    is_discrete = True

    def __init__(self, words):
        self._words = words
        self._lengths = np.array([len(w) for w in words], dtype=np.intp)
        width = int(self._lengths.max())
        self._codes = np.zeros((len(words), width), dtype=np.int32)
        for i, word in enumerate(words):
            self._codes[i, : len(word)] = [ord(c) for c in word]
        self._cols = np.arange(width + 1, dtype=np.int32)

    def one_to_many(self, q, objects) -> np.ndarray:
        if objects is not self._words:
            raise ValueError("the oracle distance is bound to one word list")
        cols = self._cols
        previous = np.broadcast_to(cols, (len(self._words), len(cols))).copy()
        for i, ch in enumerate(q, start=1):
            t = np.empty_like(previous)
            t[:, 0] = i
            np.minimum(
                previous[:, 1:] + 1,
                previous[:, :-1] + (self._codes != ord(ch)),
                out=t[:, 1:],
            )
            previous = np.minimum.accumulate(t - cols, axis=1) + cols
        return previous[np.arange(len(self._words)), self._lengths].astype(np.float64)

    def __call__(self, a, b) -> float:
        raise NotImplementedError("the oracle only runs one-to-many scans")


def _scaled(count: int, factor: float, floor: int) -> int:
    return max(floor, int(round(count * factor)))


def _p50(fn, args) -> float:
    """Median wall seconds of ``fn(arg)`` over ``args``."""
    samples = []
    for arg in args:
        t0 = time.perf_counter()
        fn(arg)
        samples.append(time.perf_counter() - t0)
    return median(samples)


class Workload:
    """A library workload: one index, queried and updated in process.

    Every pass runs its own slice of the tape (distinct queries and update
    targets), so a latency median rests on ~100 or more distinct queries per
    run rather than on the few one pass holds.  The warm-up replays the
    first timed slice; its digest must equal that pass's digest.
    """

    def __init__(self, name: str, seed: int, seconds: float, scale: float, passes: int):
        self.name = name
        self.spec = spec = SPECS[name]
        self.family = spec.family
        self.passes = passes
        self.n = _scaled(spec.n, scale, 400)
        ops = seconds / BASE_SECONDS * scale
        self.per_pass = {k: _scaled(c, ops, 2) for k, c in spec.per_pass.items()}
        self.index = None
        self.snapshot_bytes = 0
        self.setup_stages: dict[str, float] = {}

        t0 = time.perf_counter()
        made = DATASET_FACTORIES[spec.dataset](self.n + spec.held_out, seed=CORPUS_SEED)
        self.distance = made.distance
        self.objects, held_out = made.objects[: self.n], made.objects[self.n :]
        targets = range(self.n)
        if spec.lengths is not None:
            low, high = spec.lengths
            held_out = [w for w in held_out if low <= len(w) <= high]
            targets = [i for i in targets if low <= len(self.objects[i]) <= high]
        self.radius = spec.radius or self._quantile_radius(held_out, spec.selectivity)
        # the batch endpoint's radius, where the tape has batch requests
        self.many_radius = (
            self._quantile_radius(held_out, MANY_SELECTIVITY)
            if "many" in spec.per_pass
            else None
        )
        self.generate_s = time.perf_counter() - t0

        # the traffic: everything below depends on the seed, nothing above
        self.rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        need = self._queries_needed()
        # a tape longer than the held-out set (a large --seconds) reuses objects
        picks = self.rng.choice(len(held_out), size=need, replace=need > len(held_out))
        if isinstance(held_out, np.ndarray):
            self.pool = held_out[picks]
        else:
            self.pool = [held_out[int(i)] for i in picks]
        self._cursor = 0
        updates = self.per_pass["update"] * self._slices()
        self._targets = iter(
            self.rng.choice(targets, size=updates, replace=updates > len(targets))
        )
        self._tapes = self._build_tapes()

    # -- inputs -------------------------------------------------------------

    def _slices(self) -> int:
        return self.passes

    def _queries_needed(self) -> int:
        per = self.per_pass
        return (per["mrq"] + per["knn"]) * self.spec.batch * self._slices()

    def _quantile_radius(self, held_out, selectivity: float) -> float:
        """Radius whose MRQ returns ``selectivity`` of the dataset, measured
        with the raw metric from 64 held-out objects to the whole dataset."""
        # row by row: ``pairwise`` would materialise a q x n x dim temporary
        dists = [self.distance.one_to_many(q, self.objects) for q in held_out[:64]]
        return float(np.quantile(np.concatenate(dists), selectivity))

    def _take(self, count: int):
        """The next ``count`` unused pool objects."""
        chunk = self.pool[self._cursor : self._cursor + count]
        self._cursor += count
        if len(chunk) < count:
            raise RuntimeError("query pool exhausted")
        return chunk

    def _update_op(self) -> Op:
        object_id = int(next(self._targets))
        return Op("update", (object_id, self.objects[object_id]), 0)

    def _build_slice(self, slice_no: int) -> list[Op]:
        batch = self.spec.batch
        ops = []
        for kind in interleave(self.per_pass):
            if kind == "update":
                ops.append(self._update_op())
            else:
                arg = self._take(batch) if batch > 1 else self._take(1)[0]
                ops.append(Op(kind, arg, batch))
        return ops

    def _build_tapes(self) -> list[list[Op]]:
        tapes = [self._build_slice(s) for s in range(self._slices())]
        # at least 32 MRQ and 32 MkNNQ queries, anywhere in the run, carry
        # their brute-force answer
        for kind in ("mrq", "knn"):
            of_kind = [op for tape in tapes for op in tape if op.kind == kind]
            want = min(len(of_kind), math.ceil(32 / self.spec.batch))
            for i in self.rng.choice(len(of_kind), size=want, replace=False):
                of_kind[int(i)].check = True
        return tapes

    def tape(self, pass_no: int) -> list[Op]:
        """Pass 0 is the warm-up: it replays pass 1's slice."""
        return self._tapes[max(pass_no, 1) - 1]

    # -- system under test --------------------------------------------------------

    def dataset(self) -> Dataset:
        objects = self.objects
        if isinstance(objects, np.ndarray):
            objects = objects.copy()  # inserts must not grow the inputs
        return Dataset(objects, self.distance, name=self.spec.dataset)

    def _build(self, space: MetricSpace, pivots):
        if self.family == "tables":
            return LAESA.build(space, pivots)
        if self.family == "trees":
            return MVPT.build(space, pivots)
        index = SPBTree.build(space, pivots, page_size=PAGE_SIZE)
        index.pager.set_cache_bytes(BUFFER_POOL_BYTES)
        return index

    def setup(self) -> None:
        """Pivot selection and build, from raw objects to a query-ready index."""
        space = MetricSpace(self.dataset())
        t0 = time.perf_counter()
        pivots = select_pivots(space, N_PIVOTS, strategy="hfi")
        t1 = time.perf_counter()
        self.select_compdists = space.counters.distance_computations
        self.index = self._build(space, pivots)
        t2 = time.perf_counter()
        self.setup_stages = {"select_s": t1 - t0, f"{self.family}_build_s": t2 - t1}

    def teardown(self) -> None:
        self.index = None

    def executors(self) -> dict:
        index, radius = self.index, self.radius

        def update(target):
            object_id, obj = target
            index.delete(object_id)
            return index.insert(obj, object_id=object_id)

        if self.spec.batch > 1:
            return {
                "mrq": lambda qs: index.range_query_many(qs, radius),
                "knn": lambda qs: index.knn_query_many(qs, K),
                "update": update,
            }
        return {
            "mrq": lambda q: index.range_query(q, radius),
            "knn": lambda q: index.knn_query(q, K),
            "update": update,
        }

    def counters(self) -> list[CostCounters]:
        return [self.index.space.counters]

    def read_counts(self) -> tuple:
        """Every cost count, summed over the counters, in ``count_fields()`` order."""
        return tuple(map(sum, zip(*(c.counts() for c in self.counters()))))

    def storage_bytes(self) -> dict:
        """``{"memory": .., "disk": ..}`` of everything that is indexed."""
        return self.index.storage_bytes()

    # -- what only a traced run reads -----------------------------------------------

    def service_stats(self) -> dict:
        """The serving layer's own statistics (none without a service)."""
        return {}

    def client_stats(self) -> list[dict]:
        return []

    def trace_extras(self, executors) -> dict:
        """Comparisons a traced run makes after its passes."""
        if self.family != "external":
            return {}
        index = self.index
        queries = [op.arg for op in self.tape(1) if op.kind == "knn"][:32]
        t0 = time.perf_counter()
        sequential = [index.knn_query(q, K) for q in queries]
        t1 = time.perf_counter()
        batched = index.knn_query_many(queries, K)
        t2 = time.perf_counter()
        return {
            "external.knn_many_over_seq": (t2 - t1) / (t1 - t0),
            "mismatch": int(batched != sequential),
        }

    # -- oracle ---------------------------------------------------------------------

    def oracle_space(self) -> MetricSpace:
        """A separate counted space for brute force (own counters; for Words
        an independent distance implementation)."""
        dataset = Dataset(self.objects, self.distance)
        if self.spec.dataset == "Words":
            dataset.distance = VectorEditDistance(dataset.objects)
        return MetricSpace(dataset, CostCounters())

    def oracle(self, space: MetricSpace, op: Op):
        radius = self.many_radius if op.kind == "many" else self.radius

        def one(q):
            if op.kind == "knn":
                return brute_force_knn(space, q, K)
            return brute_force_range(space, q, radius)

        return [one(q) for q in op.arg] if op.queries > 1 else one(op.arg)


class HttpCatalogWorkload(Workload):
    """``la_http_catalog``: a two-member catalog behind the HTTP front-end.

    The warm-up has a slice of its own: replaying pass 1 would find some of
    its cold queries still in the result cache.
    """

    def _slices(self) -> int:
        return self.passes + 1

    def _queries_needed(self) -> int:
        per = self.per_pass
        cold_singles = per["mrq"] + per["knn"]  # upper bound: the hot share is unused
        per_slice = cold_singles + per["many"] * MANY_BATCH
        return HOT_QUERIES + per_slice * self._slices()

    def _build_tapes(self) -> list[list[Op]]:
        hot = self._take(HOT_QUERIES)
        # one op object per hot query and kind, shared by every pass, so the
        # oracle answer attached once is compared on every execution
        self._hot_ops = {
            kind: [Op(kind, q, 1, check=True, hot=True) for q in hot]
            for kind in ("mrq", "knn")
        }
        return [self._build_slice(s) for s in range(self._slices())]

    def _build_slice(self, slice_no: int) -> list[Op]:
        ops = []
        for kind in interleave(self.per_pass):
            if kind == "update":
                ops.append(self._update_op())
            elif kind == "many":
                ops.append(Op("many", self._take(MANY_BATCH), MANY_BATCH))
            elif self.rng.random() < HOT_SHARE:
                ops.append(self._hot_ops[kind][int(self.rng.integers(HOT_QUERIES))])
            else:
                ops.append(Op(kind, self._take(1)[0], 1))
        # with the 16 hot queries of each kind, 32 per kind before timing
        # (slice 0 is the warm-up), then a few cold ones inside every pass
        wanted = {"mrq": 16, "knn": 16, "many": 1} if slice_no == 0 else {"mrq": 4, "knn": 4}
        for op in ops:
            if not op.hot and wanted.get(op.kind, 0) > 0:
                wanted[op.kind] -= 1
                op.check = True
        return ops

    def tape(self, pass_no: int) -> list[Op]:
        return self._tapes[pass_no]

    def setup(self) -> None:
        """Build both members, save the catalog, restore it as a calibrated
        service and start the HTTP server."""
        dataset = self.dataset()
        t0 = time.perf_counter()
        pivot_space = MetricSpace(dataset)
        pivots = select_pivots(pivot_space, N_PIVOTS, strategy="hfi")
        self.select_compdists = pivot_space.counters.distance_computations
        t1 = time.perf_counter()
        catalog = IndexCatalog()
        catalog.register(LAESA.build(MetricSpace(dataset), pivots))
        t2 = time.perf_counter()
        catalog.register(MVPT.build(MetricSpace(dataset), pivots))
        t3 = time.perf_counter()
        WORK_DIR.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=WORK_DIR)
        manifest = catalog.save(Path(self._tmp.name) / "spine")
        t4 = time.perf_counter()
        self.snapshot_bytes = sum(
            p.stat().st_size for p in Path(self._tmp.name).iterdir()
        )
        # planner calibrated, dispatcher on, telemetry off (no registry)
        self.service = QueryService.from_snapshot(
            manifest, calibrate=False, cache_size=CACHE_ENTRIES, planner_seed=0
        )
        t5 = time.perf_counter()
        # on the radii, k and batch size this workload serves: the default
        # (quantile radii, batches of 8) extrapolates the 32-query batches so
        # badly that they start on the slower member and switch over at a
        # moment that differs from run to run
        self.service.planner.calibrate(
            radii=[self.radius, self.many_radius], ks=(K,), n_queries=MANY_BATCH
        )
        t6 = time.perf_counter()
        self.server = HttpQueryServer(self.service, host="127.0.0.1", port=0)
        self.server.start()
        self.binary = ServiceClient(port=self.server.port, binary=True)
        self.json = ServiceClient(port=self.server.port, binary=False)
        self.binary.healthz()
        t7 = time.perf_counter()
        self.index = self.service.catalog
        self.setup_stages = {
            "select_s": t1 - t0,
            "tables_build_s": t2 - t1,
            "trees_build_s": t3 - t2,
            "save_s": t4 - t3,
            "load_s": t5 - t4,
            "calibrate_s": t6 - t5,
            "serve_s": t7 - t6,
        }

    def teardown(self) -> None:
        self.binary.close()
        self.json.close()
        self.server.close()  # drains requests, then the service's dispatcher
        self._tmp.cleanup()
        self.index = None

    def executors(self) -> dict:
        binary, json_client = self.binary, self.json
        radius, many_radius = self.radius, self.many_radius

        def update(target):
            object_id, obj = target
            binary.delete(object_id)
            return binary.insert(obj, object_id=object_id)

        return {
            "mrq": lambda q: binary.range_query(q, radius),
            "knn": lambda q: binary.knn_query(q, K),
            "many": lambda qs: json_client.range_query_many(qs, many_radius),
            "update": update,
        }

    def counters(self) -> list[CostCounters]:
        members = [m.counters for m in self.service.catalog.members()]
        return members + [self.service.counters]

    def storage_bytes(self) -> dict:
        sizes = [m.index.storage_bytes() for m in self.service.catalog.members()]
        return {key: sum(size[key] for size in sizes) for key in ("memory", "disk")}

    def service_stats(self) -> dict:
        stats = self.service.stats()
        return {
            "cache": stats["cache"],
            "routes": dict(stats["planner"]["routes"]),
            "mispredict_ratio": stats["planner"]["mispredict_ratio"],
            "dispatcher": stats["dispatcher"],
        }

    def client_stats(self) -> list[dict]:
        return [self.binary.client_stats(), self.json.client_stats()]

    def trace_extras(self, executors) -> dict:
        """One slice of cold MRQ queries three ways: on the member that takes
        most routes, through the in-process service, over HTTP."""
        service, radius = self.service, self.radius
        last = self.tape(self.passes)
        queries = [op.arg for op in last if op.kind == "mrq" and not op.hot][:150]
        routes = service.planner.stats()["routes"]
        member = service.catalog.get(max(routes, key=routes.get))
        direct = _p50(lambda q: member.range_query(q, radius), queries)
        # drop what the previous way cached.  The in-process call takes the
        # batch entry point, which skips the dispatcher: back-to-back callers
        # arrive faster than its 2 ms bound and would each be held for it
        # (that wait has its own metric)
        service.cache.invalidate()
        inproc = _p50(lambda q: service.range_query_many([q], radius), queries)
        service.cache.invalidate()
        http = _p50(executors["mrq"], queries)
        return {
            "service.http.overhead_ms_p50": (http - inproc) * 1e3,
            "service.service.overhead_ms_p50": (inproc - direct) * 1e3,
        }


def make_workload(name, seed, seconds, scale, passes) -> Workload:
    cls = HttpCatalogWorkload if name == "la_http_catalog" else Workload
    return cls(name, seed, seconds, scale, passes)
