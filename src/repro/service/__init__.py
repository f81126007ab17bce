"""Query service subsystem: snapshots, result caching, micro-batching.

Turns the library from a build-and-query toolkit into a long-running query
service (the ROADMAP's serving north star):

* :mod:`~repro.service.snapshot` -- serialise any built index to disk and
  restore it with zero distance computations (versioned format);
* :mod:`~repro.service.cache` -- an LRU over exact query results, keyed on
  (index, query, radius | k), with stats folded into
  :class:`~repro.core.counters.CostCounters`;
* :mod:`~repro.service.dispatcher` -- coalesces concurrent single-query
  callers into the batch execution layer's vectorised multi-query calls;
* :mod:`~repro.service.catalog` -- the :class:`IndexCatalog`: one or
  several hosted indexes over one dataset, kept answer-equivalent (fan-out
  mutations, whole-catalog snapshots), each with private cost counters;
* :mod:`~repro.service.planner` -- the :class:`QueryPlanner`: one table
  of what each member cost per (kind, half-octave of the radius or k,
  single or batch), filled from counter deltas, routing every query to
  the member with the lowest mean wall there (``repro plan`` explains the
  choice);
* :mod:`~repro.service.service` -- the :class:`QueryService` facade wiring
  the layers together (used by ``python -m repro serve``); an index is
  hosted as a catalog of one, ``catalog=`` hosts several behind the planner;
* :mod:`~repro.service.http` -- the JSON HTTP front-end over the facade
  (``python -m repro serve --http PORT``) and its :class:`ServiceClient`;
* :mod:`~repro.service.cluster` -- the multi-process topology layer:
  remote backends as index members (:class:`RemoteIndex`), a
  :class:`ClusterIndex` of them scatter-gathering over shards (or
  load-balancing over replicas) with health-checked membership and
  rolling reloads, served by the same HTTP front-end
  (``python -m repro cluster``).

Observability (:mod:`repro.obs`) threads through every layer: pass one
:class:`~repro.obs.metrics.MetricsRegistry` to :class:`QueryService` and
:class:`HttpQueryServer` for latency/queue/batch/cache metrics behind
``GET /metrics``, and serve with a slow-query threshold for per-request
trace spans with attributed batch costs.
"""

from .cache import QueryResultCache, query_key
from .catalog import (
    CatalogError,
    CatalogMember,
    IndexCatalog,
    is_catalog_manifest,
    load_catalog_manifest,
)
from .cluster import (
    BackendUnavailable,
    ClusterError,
    ClusterIndex,
    ClusterSupervisor,
    RemoteIndex,
    load_cluster_manifest,
    save_split,
    split_snapshot,
)
from .dispatcher import DispatcherStats, MicroBatchDispatcher
from .http import HttpQueryServer, ServiceClient, ServiceClientError
from .planner import QueryPlanner
from .service import QueryService
from .snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SNAPSHOT_MAGIC,
    SnapshotError,
    SnapshotInfo,
    iter_components,
    load_index,
    rebind_counters,
    save_index,
    snapshot_info,
)

__all__ = [
    "BackendUnavailable",
    "CatalogError",
    "CatalogMember",
    "ClusterError",
    "ClusterIndex",
    "ClusterSupervisor",
    "DispatcherStats",
    "HttpQueryServer",
    "IndexCatalog",
    "MicroBatchDispatcher",
    "QueryPlanner",
    "QueryResultCache",
    "QueryService",
    "RemoteIndex",
    "ServiceClient",
    "ServiceClientError",
    "SNAPSHOT_FORMAT_VERSION",
    "SNAPSHOT_MAGIC",
    "SnapshotError",
    "SnapshotInfo",
    "is_catalog_manifest",
    "iter_components",
    "load_catalog_manifest",
    "load_cluster_manifest",
    "load_index",
    "query_key",
    "save_split",
    "split_snapshot",
    "rebind_counters",
    "save_index",
    "snapshot_info",
]
