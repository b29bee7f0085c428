"""Piecewise-constant (histogram) distributions — Eq. (6) of the paper.

``D = {(B_1, w_1), ..., (B_m, w_m)}`` with ``Σ w_i = 1`` and uniform density
``w_i / Vol(B_i)`` inside each bucket.  Selectivity of a query range R:

.. math:: s_D(R) = \\sum_i \\frac{Vol(B_i \\cap R)}{Vol(B_i)} \\, w_i
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.batch import (
    CHUNK_ELEMENTS,
    batch_intersection_volumes,
    containment_matrix,
    coverage_matrix,
)
from repro.geometry.ranges import Box, Range
from repro.geometry.sampling import sample_in_box

__all__ = ["HistogramDistribution"]


class HistogramDistribution:
    """A probability distribution that is uniform within each box bucket.

    Parameters
    ----------
    buckets:
        Pairwise-disjoint boxes (disjointness is the caller's contract, as
        in the paper's bucket-design procedures; it is validated only in
        ``validate()`` because the check is quadratic).
    weights:
        Non-negative weights summing to 1 (renormalised if slightly off).
    """

    def __init__(self, buckets: Sequence[Box], weights: Sequence[float]):
        if len(buckets) == 0:
            raise ValueError("a histogram needs at least one bucket")
        if len(buckets) != len(weights):
            raise ValueError(f"{len(buckets)} buckets but {len(weights)} weights")
        dims = {b.dim for b in buckets}
        if len(dims) != 1:
            raise ValueError(f"buckets must share one dimension, got {sorted(dims)}")
        weight_arr = np.asarray(weights, dtype=float)
        if np.any(weight_arr < -1e-9):
            raise ValueError("weights must be non-negative")
        weight_arr = np.maximum(weight_arr, 0.0)
        total = float(weight_arr.sum())
        if total <= 0.0:
            raise ValueError("weights must not all be zero")
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"weights must sum to 1 (got {total}); normalise first")
        self.buckets = list(buckets)
        self.weights = weight_arr / total
        self._lows = np.stack([b.lows for b in self.buckets])
        self._highs = np.stack([b.highs for b in self.buckets])
        self._volumes = np.array([b.volume() for b in self.buckets])
        degenerate = self._volumes <= 0.0
        if np.any(self.weights[degenerate] > 1e-12):
            raise ValueError("zero-volume buckets cannot carry weight in a histogram")

    @property
    def dim(self) -> int:
        return self.buckets[0].dim

    @property
    def size(self) -> int:
        """Model complexity: the number of buckets."""
        return len(self.buckets)

    def to_state(self) -> dict:
        """Serialisable state (see :mod:`repro.persistence`).

        Captures the internal arrays verbatim — including the already
        normalised weights — so :meth:`from_state` reproduces selectivity
        computations bitwise instead of renormalising a second time.
        """
        return {
            "lows": self._lows.copy(),
            "highs": self._highs.copy(),
            "volumes": self._volumes.copy(),
            "weights": self.weights.copy(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "HistogramDistribution":
        """A distribution over arrays in the :meth:`to_state` layout, used
        as given (not copied).

        Bypasses ``__init__`` on purpose: the constructor renormalises
        weights and recomputes volumes, which can drift by ulps from the
        given values.  The histogram learners view their fitted bucket
        arrays and weights through this, so the view matches what they
        predict with.
        """
        lows = np.asarray(state["lows"], dtype=float)
        highs = np.asarray(state["highs"], dtype=float)
        self = cls.__new__(cls)
        self.buckets = [Box(lows[i], highs[i]) for i in range(lows.shape[0])]
        self.weights = np.asarray(state["weights"], dtype=float)
        self._lows = lows
        self._highs = highs
        self._volumes = np.asarray(state["volumes"], dtype=float)
        return self

    def selectivity(self, range_: Range) -> float:
        """``s_D(R)`` per Eq. (6), in one vectorised kernel call."""
        overlaps = batch_intersection_volumes(self._lows, self._highs, range_)
        active = (self.weights > 0.0) & (self._volumes > 0.0)
        total = float(
            np.sum(self.weights[active] * overlaps[active] / self._volumes[active])
        )
        return float(min(1.0, max(0.0, total)))

    def selectivity_many(self, ranges: Sequence[Range]) -> np.ndarray:
        """``s_D(R_i)`` for a whole workload via one coverage matrix."""
        fractions = coverage_matrix(ranges, self._lows, self._highs, self._volumes)
        return np.clip(fractions @ self.weights, 0.0, 1.0)

    def intersection_fractions(self, range_: Range) -> np.ndarray:
        """Per-bucket ``Vol(B_i ∩ R)/Vol(B_i)`` — one design-matrix row."""
        overlaps = batch_intersection_volumes(self._lows, self._highs, range_)
        with np.errstate(divide="ignore", invalid="ignore"):
            fractions = np.where(self._volumes > 0.0, overlaps / self._volumes, 0.0)
        return np.clip(fractions, 0.0, 1.0)

    def density(self, points: np.ndarray) -> np.ndarray:
        """Probability density at the given points (0 outside all buckets).

        Vectorised over both points and buckets.  Buckets are disjoint up to
        shared faces; on a shared face the *last* containing bucket wins,
        matching the historical scalar loop (later buckets overwrote).
        """
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        active = np.flatnonzero((self.weights > 0.0) & (self._volumes > 0.0))
        values = np.zeros(pts.shape[0])
        if active.size:
            densities = self.weights[active] / self._volumes[active]
            boxes = [self.buckets[int(i)] for i in active]
            step = max(1, CHUNK_ELEMENTS // max(1, active.size))
            for start in range(0, pts.shape[0], step):
                chunk = pts[start : start + step]
                inside = containment_matrix(boxes, chunk)  # (m_active, n_chunk)
                hit = inside.any(axis=0)
                last = inside.shape[0] - 1 - np.argmax(inside[::-1], axis=0)
                values[start : start + step] = np.where(hit, densities[last], 0.0)
        return float(values[0]) if single else values

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` points from the distribution."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        choices = rng.choice(self.size, size=count, p=self.weights)
        points = np.empty((count, self.dim))
        for idx in np.unique(choices):
            mask = choices == idx
            points[mask] = sample_in_box(self.buckets[int(idx)], int(mask.sum()), rng)
        return points

    def validate(self) -> None:
        """Check the disjointness contract via broadcast pairwise overlaps.

        Still O(m^2) work, but one chunked NumPy broadcast instead of a
        Python double loop; memory stays bounded by ``CHUNK_ELEMENTS``.
        """
        m, d = self._lows.shape
        step = max(1, CHUNK_ELEMENTS // max(1, m * d))
        for start in range(0, m, step):
            stop = min(m, start + step)
            pair_lows = np.maximum(self._lows[start:stop, None, :], self._lows[None, :, :])
            pair_highs = np.minimum(
                self._highs[start:stop, None, :], self._highs[None, :, :]
            )
            overlap = np.prod(np.maximum(pair_highs - pair_lows, 0.0), axis=2)
            # Only pairs (i, j) with j > i matter; mask the rest out.
            cols = np.arange(m)[None, :]
            rows = np.arange(start, stop)[:, None]
            overlap[cols <= rows] = 0.0
            if np.any(overlap > 1e-12):
                i, j = np.unravel_index(int(np.argmax(overlap)), overlap.shape)
                a, b = self.buckets[start + int(i)], self.buckets[int(j)]
                raise ValueError(f"buckets overlap: {a} and {b}")

    def __repr__(self) -> str:
        return f"HistogramDistribution(size={self.size}, dim={self.dim})"
