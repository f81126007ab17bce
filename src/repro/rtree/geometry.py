"""Axis-aligned rectangle (MBB) algebra in pivot space.

The OmniR-tree indexes mapped vectors I(o) in R^l; its rectangles are minimum
bounding boxes over those vectors.  Distances between a query's mapped point
and a rectangle are measured in the L-infinity metric because
max_i |d(q,p_i) - v_i| is the triangle-inequality lower bound of d(q, o) --
see Lemma 1 and :func:`repro.core.pivot_filter.lower_bound_many_queries`,
which computes them for many boxes at once.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Rect"]


class Rect:
    """Immutable axis-aligned box [lows, highs] in R^l."""

    __slots__ = ("lows", "highs")

    def __init__(self, lows, highs):
        self.lows = np.asarray(lows, dtype=np.float64)
        self.highs = np.asarray(highs, dtype=np.float64)
        if self.lows.shape != self.highs.shape:
            raise ValueError("lows and highs must have the same shape")
        if np.any(self.lows > self.highs):
            raise ValueError("lows must not exceed highs")

    @classmethod
    def from_point(cls, point) -> "Rect":
        point = np.asarray(point, dtype=np.float64)
        return cls(point, point.copy())

    @classmethod
    def union_of(cls, rects: list["Rect"]) -> "Rect":
        if not rects:
            raise ValueError("union of zero rectangles")
        lows = np.minimum.reduce([r.lows for r in rects])
        highs = np.maximum.reduce([r.highs for r in rects])
        return cls(lows, highs)

    @classmethod
    def bounding_points(cls, points) -> "Rect":
        mat = np.asarray(points, dtype=np.float64)
        if mat.ndim == 1:
            mat = mat.reshape(1, -1)
        return cls(mat.min(axis=0), mat.max(axis=0))

    @property
    def dims(self) -> int:
        return self.lows.shape[0]

    def expanded_point(self, point) -> "Rect":
        point = np.asarray(point, dtype=np.float64)
        return Rect(np.minimum(self.lows, point), np.maximum(self.highs, point))

    def intersects(self, other: "Rect") -> bool:
        return bool(np.all(self.lows <= other.highs) and np.all(other.lows <= self.highs))

    def contains_point(self, point) -> bool:
        point = np.asarray(point, dtype=np.float64)
        return bool(np.all(self.lows <= point) and np.all(point <= self.highs))

    def contains_rect(self, other: "Rect") -> bool:
        return bool(np.all(self.lows <= other.lows) and np.all(other.highs <= self.highs))

    def margin(self) -> float:
        """Sum of side lengths (used by split heuristics)."""
        return float((self.highs - self.lows).sum())

    def volume(self) -> float:
        return float(np.prod(self.highs - self.lows))

    def enlargement(self, point) -> float:
        """Margin growth needed to absorb ``point`` (choose-subtree metric).

        Margin (perimeter) rather than volume: pivot-space boxes are often
        degenerate (zero extent in some dimension), where volume-based
        heuristics break down.
        """
        point = np.asarray(point, dtype=np.float64)
        new_lows = np.minimum(self.lows, point)
        new_highs = np.maximum(self.highs, point)
        return float((new_highs - new_lows).sum() - (self.highs - self.lows).sum())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Rect)
            and np.array_equal(self.lows, other.lows)
            and np.array_equal(self.highs, other.highs)
        )

    def __hash__(self):  # pragma: no cover - Rects are not dict keys in hot paths
        return hash((self.lows.tobytes(), self.highs.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Rect({self.lows.tolist()}, {self.highs.tolist()})"
