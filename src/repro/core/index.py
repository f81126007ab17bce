"""The abstract interface every pivot-based metric index implements.

The uniform surface lets the benchmark harness run the full grid of the
paper's Section 6 over any index, and lets the test suite assert the golden
invariant (index answers == brute-force answers) uniformly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .metric_space import MetricSpace
from .queries import Neighbor

__all__ = [
    "MetricIndex",
    "UnsupportedOperation",
    "InsertRefused",
    "NotIndexed",
    "brute_force_range",
    "brute_force_knn",
    "brute_force_range_many",
    "brute_force_knn_many",
    "claim_object_id",
]


class UnsupportedOperation(RuntimeError):
    """Raised when an index does not support an optional operation.

    Example: AESA has no dynamic delete; BKT/FQT reject continuous metrics.
    """


class InsertRefused(ValueError):
    """An insert :func:`claim_object_id` refuses, before anything is written."""


class NotIndexed(KeyError):
    """A delete of an id the index does not hold, before anything is written."""


class MetricIndex(ABC):
    """Base class of all indexes in the study.

    Subclasses are constructed by their own ``build`` classmethods; the
    shared constructor just wires the metric space in.

    Attributes:
        space: the counted metric space the index answers queries against.
        name: short name used in benchmark tables (paper's row labels).
        is_disk_based: True for the external category (reports PA).
    """

    name: str = "index"
    is_disk_based: bool = False

    def __init__(self, space: MetricSpace):
        self.space = space

    # -- queries ---------------------------------------------------------
    #
    # The batch entry points are each index's bodies; one query is a batch
    # of one.  An index whose MkNNQ is a per-query walk (the SPB-tree,
    # OmniR-tree, M-index*, the frontier trees) overrides ``knn_query`` with
    # that walk: the same distance computations, and on the paged ones the
    # buffer pool's page accesses rather than a batch's shared page cache.

    @abstractmethod
    def range_query_many(self, queries, radius: float) -> list[list[int]]:
        """Batched MRQ(q, r): for each query, in query order, the sorted
        ids of all objects within ``radius`` of it."""

    @abstractmethod
    def knn_query_many(self, queries, k: int) -> list[list[Neighbor]]:
        """Batched MkNNQ(q, k): for each query, in query order, its k
        nearest objects ascending by (distance, id)."""

    def range_query(self, query_obj, radius: float) -> list[int]:
        """MRQ(q, r): the ``q = 1`` view of :meth:`range_query_many`."""
        return self.range_query_many([query_obj], radius)[0]

    def knn_query(self, query_obj, k: int) -> list[Neighbor]:
        """MkNNQ(q, k): the ``q = 1`` view of :meth:`knn_query_many`."""
        return self.knn_query_many([query_obj], k)[0]

    # -- maintenance -------------------------------------------------------

    def insert(self, obj, object_id: int | None = None) -> int:
        """Add an object; returns its id.

        When ``object_id`` is given, the object re-registers under an
        existing dataset slot (the paper's update experiment deletes an
        object and inserts it back); otherwise the object is appended to the
        dataset and receives a fresh id.
        """
        raise UnsupportedOperation(f"{self.name} does not support insert")

    def delete(self, object_id: int) -> None:
        """Remove an object by id."""
        raise UnsupportedOperation(f"{self.name} does not support delete")

    # -- snapshots ---------------------------------------------------------

    def prepare_snapshot(self) -> None:
        """Hook called before the index is serialised to a snapshot.

        The snapshot contract every index upholds:

        * all query-relevant state lives in picklable attributes (numpy
          tables, node objects, page stores) -- no open files, threads, or
          callables created at query time;
        * ``prepare_snapshot`` leaves the index fully queryable, and after
          it returns, pickling the index captures everything needed to
          answer queries identically with **zero** further distance
          computations;
        * disk-based indexes write dirty buffered pages back to their page
          store here so that the snapshot carries a single authoritative
          copy of each page.

        The default is a no-op (pure in-memory indexes have nothing to
        flush); :mod:`repro.service.snapshot` additionally flushes every
        reachable :class:`~repro.storage.pager.Pager` as a safety net.
        """

    # -- hosting -----------------------------------------------------------
    #
    # What a service asks of the index it hosts beyond queries.  An index
    # whose data lives in this process answers all three trivially; one
    # whose data lives in other processes (repro.service.cluster) is where
    # they mean something.

    def health(self) -> dict:
        """Facts a front-end adds to its ``/healthz`` and ``/stats``: none
        for an in-process index; a remote one reports its backends."""
        return {}

    def reload(self, snapshot):
        """Roll ``snapshot`` out to where this index's data lives.

        Returns the :class:`~repro.service.snapshot.SnapshotInfo` of what
        now serves, or None when the data lives right here -- the host
        then restores the snapshot and serves the new index in this one's
        place (:meth:`repro.service.catalog.IndexCatalog.reload`).
        """
        return None

    def close(self) -> None:
        """Release what the index holds open (sockets, threads); the
        hosting service calls it when it closes.  Nothing, by default."""

    # -- accounting --------------------------------------------------------

    def storage_bytes(self) -> dict[str, int]:
        """Storage footprint split into ``memory`` and ``disk`` bytes."""
        return {"memory": 0, "disk": 0}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.__class__.__name__}(n={len(self.space)})"


def claim_object_id(space: MetricSpace, obj, object_id: int | None, is_live) -> int:
    """The id an inserted object goes under, before anything is written.

    ``None`` appends ``obj`` to the dataset.  An explicit id re-registers
    an existing dataset slot (delete, then insert back), so it must name
    one, ``is_live(object_id)`` must be false -- a second live copy would
    answer twice forever after, and an id past the dataset would make every
    later verification raise -- and ``obj`` must be the slot's object by
    value (a copy is fine): the index keys it by ``obj`` but verifies and
    deletes it by ``dataset[object_id]``.
    """
    if object_id is None:
        return int(space.dataset.add(obj))
    if not 0 <= object_id < len(space.dataset):
        raise InsertRefused(
            f"object_id {object_id} is outside the dataset (0..{len(space.dataset) - 1})"
        )
    if is_live(object_id):
        raise InsertRefused(f"object {object_id} is already indexed")
    held = space.dataset[object_id]
    vectors = isinstance(held, np.ndarray) or isinstance(obj, np.ndarray)
    if not (np.array_equal(held, obj) if vectors else held == obj):
        raise InsertRefused(f"object {object_id} of the dataset is another object")
    return int(object_id)


def brute_force_range(space: MetricSpace, query_obj, radius: float) -> list[int]:
    """Reference MRQ by linear scan (golden answers for tests)."""
    dataset = space.dataset
    dists = space.d_many(query_obj, dataset.objects)
    return [int(i) for i in range(len(dataset)) if dists[i] <= radius]


def brute_force_knn(space: MetricSpace, query_obj, k: int) -> list[Neighbor]:
    """Reference MkNNQ by linear scan (golden answers for tests)."""
    from .queries import KnnHeap

    dataset = space.dataset
    dists = space.d_many(query_obj, dataset.objects)
    heap = KnnHeap(k)
    for object_id, dist in enumerate(dists):
        heap.consider(object_id, float(dist))
    return heap.neighbors()


def brute_force_range_many(space: MetricSpace, queries, radius: float) -> list[list[int]]:
    """Batched reference MRQ: one q x n matrix, then per-row thresholding."""
    queries = list(queries)
    if not queries:
        return []
    dists = space.pairwise_objects(queries, space.dataset.objects)
    return [[int(i) for i in np.flatnonzero(row <= radius)] for row in dists]


def brute_force_knn_many(space: MetricSpace, queries, k: int) -> list[list[Neighbor]]:
    """Batched reference MkNNQ via one distance matrix and stable argsorts.

    A stable sort on each row yields ascending distance with ties broken by
    ascending id -- exactly the answer :func:`brute_force_knn` produces.
    """
    from .queries import Neighbor as _Neighbor

    queries = list(queries)
    if not queries:
        return []
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    dists = space.pairwise_objects(queries, space.dataset.objects)
    out: list[list[Neighbor]] = []
    for row in dists:
        order = np.argsort(row, kind="stable")[:k]
        out.append([_Neighbor(float(row[i]), int(i)) for i in order])
    return out

