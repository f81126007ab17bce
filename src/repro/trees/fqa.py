"""FQA: the Fixed Queries Array (Chavez et al. 2001).

The FQA linearises an FQT: each object is represented by the tuple of its
(discretised) distances to the l level pivots, and the tuples are kept in
one lexicographically sorted array.  Subtrees of the conceptual FQT
correspond to contiguous runs of the array, found by binary search.

Each coordinate is one byte, the cell of a :class:`~repro.core.quantise.Frame`
fitted per pivot column: low end 0 and the smallest integer width that
keeps the build's largest distance below the open top cell.  Lemma 1 works
on cell bounds (the discretisation trade-off of Section 5.4): a gap table
per query and column, looked up at every row's code.
"""

from __future__ import annotations

import numpy as np

from ..core.index import MetricIndex, NotIndexed, claim_object_id
from ..core.mapping import PivotMapping
from ..core.metric_space import MetricSpace
from ..core.quantise import Frame, gap_tables
from ..core.queries import Neighbor, best_first_knn
from .common import require_discrete

__all__ = ["FQA"]


class FQA(MetricIndex):
    """Fixed Queries Array: sorted discretised signature matrix."""

    name = "FQA"

    def __init__(self, space: MetricSpace, pivot_ids, signatures, row_ids, frames):
        super().__init__(space)
        self.pivot_ids = [int(p) for p in pivot_ids]
        self._signatures = signatures  # n x l codes, lex-sorted
        self._row_ids = row_ids
        self._frames = frames  # one per pivot column

    def __setstate__(self, state):
        # a table pickled while row ids were ``intp`` loads in the layout a
        # build makes
        state["_row_ids"] = np.asarray(state["_row_ids"], dtype=np.int32)
        self.__dict__.update(state)

    @classmethod
    def build(cls, space: MetricSpace, pivot_ids) -> "FQA":
        require_discrete(space, "FQA")
        matrix = PivotMapping(space, pivot_ids).matrix
        max_value = float(matrix.max()) if matrix.size else 1.0
        # the narrowest integer width that leaves the top cell to inserts
        frame = Frame(0.0, max(1.0, np.ceil((max_value + 1) / 255)), True)
        signatures = frame.encode(matrix)  # every column shares the frame
        order = np.lexsort(signatures.T[::-1])  # lexicographic by column 0,1,...
        row_ids = np.arange(len(space), dtype=np.int32)[order]
        return cls(space, pivot_ids, signatures[order], row_ids, (frame,) * matrix.shape[1])

    # -- bounds -----------------------------------------------------------------

    def _lower_bounds_many(self, query_dist_matrix: np.ndarray) -> np.ndarray:
        """Lemma 1 over the code cells: ``q x n`` bounds.

        The FQA is the linearised FQT, so its batch engine is the table
        indexes' 2-D bound matrix rather than a node frontier: per column,
        one gap table per query looked up at every row's code.
        """
        qmat = np.atleast_2d(np.asarray(query_dist_matrix, dtype=np.float64))
        out = np.zeros((qmat.shape[0], self._signatures.shape[0]))
        tables = gap_tables(self._frames, qmat)  # q x l x cells
        for column, codes in enumerate(self._signatures.T):
            np.maximum(out, tables[:, column, codes], out=out)
        return out

    def _query_pivot_matrix(self, queries) -> np.ndarray:
        """Counted ``q x l`` query-to-pivot distances, one pairwise call."""
        return self.space.pairwise_objects(
            queries, self.space.dataset.gather(self.pivot_ids)
        )

    # -- queries -------------------------------------------------------------------

    def range_query_many(self, queries, radius: float) -> list[list[int]]:
        """MRQ: one q x l pivot matrix, one 2-D bound matrix."""
        queries = list(queries)
        if not queries:
            return []
        lower = self._lower_bounds_many(self._query_pivot_matrix(queries))
        out: list[list[int]] = []
        for q, row in zip(queries, lower):
            ids = [int(i) for i in self._row_ids[row <= radius]]
            dists = self.space.d_ids(q, ids)
            out.append(sorted(o for o, d in zip(ids, dists) if d <= radius))
        return out

    def knn_query_many(self, queries, k: int) -> list[list[Neighbor]]:
        """MkNNQ: shared bound matrix, candidates verified in ascending
        lower-bound order (the array's sorted runs make this the FQA's
        natural traversal)."""
        queries = list(queries)
        if not queries:
            return []
        lower = self._lower_bounds_many(self._query_pivot_matrix(queries))
        return [
            best_first_knn(
                lower[qi], self._row_ids, k, lambda ids, q=q: self.space.d_ids(q, ids)
            )
            for qi, q in enumerate(queries)
        ]

    # -- maintenance ------------------------------------------------------------------

    def insert(self, obj, object_id: int | None = None) -> int:
        """l distance computations + sorted insertion."""
        object_id = claim_object_id(
            self.space, obj, object_id, lambda i: bool((self._row_ids == i).any())
        )
        signature = np.array(
            [
                frame.encode_one(self.space.d(obj, self.space.dataset[p]))
                for frame, p in zip(self._frames, self.pivot_ids)
            ],
            dtype=self._signatures.dtype,
        )
        # binary search for the lexicographic position
        position = self._lex_position(signature)
        self._signatures = np.insert(self._signatures, position, signature, axis=0)
        self._row_ids = np.insert(self._row_ids, position, object_id)
        return object_id

    def _lex_position(self, signature: np.ndarray) -> int:
        lo, hi = 0, len(self._row_ids)
        sig_tuple = tuple(signature.tolist())
        while lo < hi:
            mid = (lo + hi) // 2
            if tuple(self._signatures[mid].tolist()) < sig_tuple:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def delete(self, object_id: int) -> None:
        positions = np.flatnonzero(self._row_ids == object_id)
        if positions.size == 0:
            raise NotIndexed(f"object {object_id} is not in the table")
        self._signatures = np.delete(self._signatures, positions[0], axis=0)
        self._row_ids = np.delete(self._row_ids, positions[0])

    # -- accounting -----------------------------------------------------------------------

    def storage_bytes(self) -> dict[str, int]:
        objects = sum(
            self.space.dataset.object_nbytes(int(i)) for i in self._row_ids
        )
        return {
            "memory": int(self._signatures.nbytes)
            + int(self._row_ids.nbytes)
            + 8 * len(self.pivot_ids)
            + objects,
            "disk": 0,
        }
