"""MetricSpace: a dataset + distance with exact distance-computation counting.

Every distance evaluation an index performs goes through one of the methods
here, so the ``compdists`` metric of the paper is *counted*, never estimated.
Vectorised batch calls count one computation per pair, exactly as a scalar
loop would.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .counters import CostCounters
from .dataset import Dataset

__all__ = ["MetricSpace"]


def _batch_len(objects) -> int:
    """Number of objects in a batch given either a 2-d array or a sequence."""
    if isinstance(objects, np.ndarray):
        return objects.shape[0] if objects.ndim > 1 else 1
    return len(objects)


class MetricSpace:
    """Couples a :class:`Dataset` with counted distance evaluation.

    Args:
        dataset: the object collection and its metric.
        counters: shared cost accumulator; a fresh one is created when
            omitted.  External indexes pass the same instance to their page
            store so that one measurement block captures both metrics.
    """

    def __init__(self, dataset: Dataset, counters: CostCounters | None = None):
        self.dataset = dataset
        self.distance = dataset.distance
        self.counters = counters if counters is not None else CostCounters()

    # -- raw-object interface ------------------------------------------------

    def d(self, a, b) -> float:
        """Counted distance between two raw objects."""
        self.counters.add_distances(1)
        return self.distance(a, b)

    def d_many(self, q, objects) -> np.ndarray:
        """Counted distances from raw object ``q`` to a batch of raw objects."""
        if isinstance(objects, np.ndarray):
            count = objects.shape[0] if objects.ndim > 1 else 1
        else:
            count = len(objects)
        if count == 0:
            return np.empty(0, dtype=np.float64)
        self.counters.add_distances(count)
        return self.distance.one_to_many(q, objects)

    def pairwise_objects(self, left_objects, right_objects) -> np.ndarray:
        """Counted |left| x |right| distance matrix between raw objects.

        The batch query layer uses this to obtain every query-pivot distance
        of a whole query batch in one call.  Counts one computation per pair,
        exactly as the equivalent scalar loop would.
        """
        n_left = _batch_len(left_objects)
        n_right = _batch_len(right_objects)
        if n_left == 0 or n_right == 0:
            return np.empty((n_left, n_right), dtype=np.float64)
        self.counters.add_distances(n_left * n_right)
        return self.distance.pairwise(left_objects, right_objects)

    # -- id-based interface --------------------------------------------------

    def d_id(self, q, object_id: int) -> float:
        """Counted distance from raw object ``q`` to the object with ``object_id``."""
        return self.d(q, self.dataset[object_id])

    def d_ids(self, q, ids: Sequence[int]) -> np.ndarray:
        """Counted distances from raw ``q`` to a batch of stored objects."""
        if len(ids) == 0:
            return np.empty(0, dtype=np.float64)
        return self.d_many(q, self.dataset.gather(ids))

    def d_between_ids(self, i: int, j: int) -> float:
        return self.d(self.dataset[i], self.dataset[j])

    def pairwise_ids(self, left_ids: Sequence[int], right_ids: Sequence[int]) -> np.ndarray:
        """Counted |left| x |right| distance matrix between stored objects."""
        if len(left_ids) == 0 or len(right_ids) == 0:
            return np.empty((len(left_ids), len(right_ids)), dtype=np.float64)
        self.counters.add_distances(len(left_ids) * len(right_ids))
        return self.distance.pairwise(
            self.dataset.gather(left_ids), self.dataset.gather(right_ids)
        )

    # -- wire values ----------------------------------------------------------

    def decode(self, value, field: str = "query"):
        """A wire value (a JSON value, or a binary frame's ndarray) as an
        object of this space's dataset; ValueError names what is wrong.

        Vector datasets cast to their dtype and check the shape against
        their dimensionality; everything else (strings for Words) passes
        through, but never as an array.
        """
        objects = self.dataset.objects
        if self.dataset.is_vector:
            try:
                arr = np.asarray(value, dtype=objects.dtype)
            except (TypeError, ValueError):
                raise ValueError(
                    f"{field!r} must be a numeric array for this index"
                ) from None
            if arr.shape != objects.shape[1:]:
                raise ValueError(
                    f"{field!r} has shape {arr.shape}, index expects "
                    f"{objects.shape[1:]}"
                )
            return arr
        if isinstance(value, np.ndarray):
            raise ValueError(f"{field!r} must not be an array for this index")
        return value

    def decode_many(self, values) -> list:
        """:meth:`decode` of a query batch.  A binary frame's 2-D matrix is
        validated once and cast whole -- no per-element Python object."""
        if not isinstance(values, np.ndarray):
            return [self.decode(value, "queries[]") for value in values]
        objects = self.dataset.objects
        if not self.dataset.is_vector:
            raise ValueError("'queries' must not be an array for this index")
        if values.ndim != 2 or values.shape[1:] != objects.shape[1:]:
            raise ValueError(
                f"'queries' has shape {values.shape}, index expects "
                f"(batch, {', '.join(map(str, objects.shape[1:]))})"
            )
        return list(np.asarray(values, dtype=objects.dtype))

    # -- convenience ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.dataset)

    @property
    def is_discrete(self) -> bool:
        return self.distance.is_discrete

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricSpace({self.dataset!r})"
