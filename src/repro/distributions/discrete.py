"""Discrete (point-mass) distributions — Eq. (7) of the paper.

``D = {(B_1, w_1), ..., (B_m, w_m)}`` where the ``B_i`` are *points* in
``R^d`` and ``Σ w_i = 1``.  Selectivity of a query range R:

.. math:: s_D(R) = \\sum_i \\mathbf{1}(B_i \\in R) \\, w_i
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.batch import containment_matrix
from repro.geometry.index import BucketIndex, build_bucket_index
from repro.geometry.ranges import Range
from repro.geometry.sparse import sparse_containment_dot

__all__ = ["DiscreteDistribution"]


class DiscreteDistribution:
    """A finitely supported probability distribution over ``R^d``."""

    def __init__(self, points: np.ndarray, weights: np.ndarray):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError(f"points must be a non-empty (m, d) array, got shape {pts.shape}")
        weight_arr = np.asarray(weights, dtype=float)
        if weight_arr.shape != (pts.shape[0],):
            raise ValueError(
                f"weights must have shape ({pts.shape[0]},), got {weight_arr.shape}"
            )
        if np.any(weight_arr < -1e-9):
            raise ValueError("weights must be non-negative")
        weight_arr = np.maximum(weight_arr, 0.0)
        total = float(weight_arr.sum())
        if total <= 0.0:
            raise ValueError("weights must not all be zero")
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"weights must sum to 1 (got {total}); normalise first")
        self.points = pts
        self.weights = weight_arr / total
        self._index: BucketIndex | None = None

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        """Model complexity: the support size."""
        return self.points.shape[0]

    def to_state(self) -> dict:
        """Serialisable state (see :mod:`repro.persistence`)."""
        return {"points": self.points.copy(), "weights": self.weights.copy()}

    @classmethod
    def from_state(cls, state: dict) -> "DiscreteDistribution":
        """Rebuild from :meth:`to_state` output, bypassing ``__init__``.

        The persisted weights are already normalised; renormalising again
        could drift by ulps and break bitwise round-tripping.
        """
        self = cls.__new__(cls)
        self.points = np.asarray(state["points"], dtype=float)
        self.weights = np.asarray(state["weights"], dtype=float)
        self._index = None
        return self

    def selectivity(self, range_: Range) -> float:
        """``s_D(R)`` per Eq. (7)."""
        inside = np.asarray(range_.contains(self.points))
        return float(np.clip(self.weights[inside].sum(), 0.0, 1.0))

    def attach_index(self) -> "DiscreteDistribution":
        """Build (or rebuild) the spatial index over the support points.

        Estimators call this once after fit/load; batch selectivity then
        routes through the sparse membership dot.  Never serialised —
        rebuilt deterministically from the points.
        """
        self._index = build_bucket_index(self.points, self.points)
        return self

    def selectivity_many(self, ranges: Sequence[Range]) -> np.ndarray:
        """``s_D(R_i)`` for a whole workload via one batch membership matrix."""
        if self._index is not None:
            dots = sparse_containment_dot(ranges, self._index, self.weights)
            return np.clip(dots, 0.0, 1.0)
        matrix = containment_matrix(ranges, self.points)
        return np.clip(matrix @ self.weights, 0.0, 1.0)

    def membership_row(self, range_: Range) -> np.ndarray:
        """Indicator vector ``1(B_j in R)`` — one design-matrix row."""
        return np.asarray(range_.contains(self.points), dtype=float)

    def membership_matrix(self, ranges: Sequence[Range]) -> np.ndarray:
        """Indicator matrix ``1(B_j in R_i)`` — the Eq. (7) design matrix."""
        return containment_matrix(ranges, self.points)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` points (with replacement) from the support."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        idx = rng.choice(self.size, size=count, p=self.weights)
        return self.points[idx]

    def __repr__(self) -> str:
        return f"DiscreteDistribution(size={self.size}, dim={self.dim})"
