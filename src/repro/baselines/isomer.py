"""ISOMER baseline — consistent histograms from query feedback.

Reimplementation of ISOMER [Srivastava et al., ICDE 2006], which the
paper's evaluation uses as the accuracy gold standard for orthogonal range
queries.  Two phases, matching the original design:

1. **STHoles-style bucket creation**: processing queries one by one, each
   query "drills a hole" into every bucket it intersects — the intersection
   becomes a new bucket and the remainder is decomposed into at most ``2d``
   disjoint boxes.  After processing, every bucket is entirely inside or
   entirely outside every processed query, so the feedback constraints are
   exact 0/1 sums over buckets.

2. **Maximum-entropy weights**: the bucket distribution maximising entropy
   subject to the (soft) consistency constraints
   ``Σ_{B ⊆ R_i} w_B = s_i`` — solved via the Gibbs-form dual in
   :func:`repro.solvers.maxent.fit_maxent_weights`.

Like the original (and as observed in the paper's Figure 10), the bucket
count grows much faster than the training size, which is what makes ISOMER
accurate but slow; ``max_buckets`` bounds the blow-up.
"""

from __future__ import annotations

from typing import ClassVar, Dict, Sequence

import numpy as np

from repro.core.config import IsomerConfig
from repro.core.estimator import SelectivityEstimator
from repro.core.workload import TrainingSet
from repro.distributions.histogram import HistogramDistribution
from repro.geometry.batch import batch_intersection_volumes, coverage_dot
from repro.geometry.index import BucketIndex, build_bucket_index
from repro.geometry.sparse import sparse_coverage_dot, sparse_coverage_matrix
from repro.geometry.ranges import Box, Range, unit_box
from repro.solvers.maxent import fit_maxent_weights

__all__ = ["Isomer"]


class Isomer(SelectivityEstimator):
    """ISOMER: STHoles bucket drilling + maximum-entropy weighting.

    Parameters
    ----------
    max_buckets:
        Hard cap on the number of buckets; a cut bucket whose drilling
        would pass it stays whole (the query's selectivity feedback still
        constrains the weights).
    slack:
        Softness of the max-ent consistency constraints (see
        :func:`repro.solvers.maxent.fit_maxent_weights`).
    domain:
        Data domain; defaults to the unit cube.
    """

    Config: ClassVar = IsomerConfig

    def __init__(
        self,
        max_buckets: int = 20_000,
        slack: float = 1e-3,
        domain: Box | None = None,
    ):
        super().__init__()
        if max_buckets < 1:
            raise ValueError(f"max_buckets must be >= 1, got {max_buckets}")
        self.max_buckets = int(max_buckets)
        self.slack = float(slack)
        self.domain = domain
        self._bucket_lows: np.ndarray | None = None
        self._bucket_highs: np.ndarray | None = None
        self._bucket_volumes: np.ndarray | None = None
        self._index: BucketIndex | None = None
        self._weights: np.ndarray | None = None

    def _fit(self, training: TrainingSet) -> None:
        if not all(isinstance(q, Box) for q in training.queries):
            raise TypeError("ISOMER supports orthogonal-range (Box) queries only")
        domain = self.domain if self.domain is not None else unit_box(training.dim)
        buckets = self._drill_buckets(list(training.queries), domain)
        self._bucket_lows = np.stack([b.lows for b in buckets])
        self._bucket_highs = np.stack([b.highs for b in buckets])
        self._bucket_volumes = np.prod(self._bucket_highs - self._bucket_lows, axis=1)
        self._index = build_bucket_index(self._bucket_lows, self._bucket_highs)
        design = sparse_coverage_matrix(
            training.queries, self._index, self._bucket_volumes
        )
        self._weights = fit_maxent_weights(design, training.selectivities, slack=self.slack)

    def _drill_buckets(self, queries: list[Box], domain: Box) -> list[Box]:
        """STHoles-style refinement: each query splits the buckets it cuts,
        up to ``max_buckets``."""
        buckets: list[Box] = [domain]
        for query in queries:
            if len(buckets) >= self.max_buckets:
                break
            count = len(buckets)
            next_buckets: list[Box] = []
            for bucket in buckets:
                hole = bucket.intersect(query)
                if hole is None or not 0.0 < hole.volume() < bucket.volume() - 1e-15:
                    next_buckets.append(bucket)  # the query misses or contains it
                    continue
                rest = bucket.subtract(hole)
                if count + len(rest) > self.max_buckets:
                    next_buckets.append(bucket)
                    continue
                count += len(rest)
                next_buckets.append(hole)
                next_buckets.extend(rest)
            buckets = next_buckets
        return buckets

    def _fraction_row(self, query: Range) -> np.ndarray:
        overlaps = batch_intersection_volumes(self._bucket_lows, self._bucket_highs, query)
        with np.errstate(divide="ignore", invalid="ignore"):
            fractions = np.where(
                self._bucket_volumes > 0, overlaps / self._bucket_volumes, 0.0
            )
        return np.clip(fractions, 0.0, 1.0)

    def _predict_one(self, query: Range) -> float:
        return float(self._fraction_row(query) @ self._weights)

    def _predict_batch(self, queries: Sequence[Range]) -> np.ndarray:
        if self._index is not None:
            return sparse_coverage_dot(
                queries, self._index, self._bucket_volumes, self._weights
            )
        return coverage_dot(
            queries, self._bucket_lows, self._bucket_highs, self._bucket_volumes, self._weights
        )

    @property
    def model_size(self) -> int:
        self._check_fitted()
        return int(self._weights.shape[0])

    @property
    def distribution(self) -> HistogramDistribution:
        """The learned maximum-entropy histogram, as a view over the bucket
        arrays and weights that predict."""
        self._check_fitted()
        return HistogramDistribution.from_state(
            {
                "lows": self._bucket_lows,
                "highs": self._bucket_highs,
                "volumes": self._bucket_volumes,
                "weights": self._weights,
            }
        )

    def _state_dict(self) -> Dict[str, object]:
        return {
            "bucket_lows": self._bucket_lows,
            "bucket_highs": self._bucket_highs,
            "bucket_volumes": self._bucket_volumes,
            "weights": self._weights,
        }

    def _load_state_dict(self, state: Dict[str, object]) -> None:
        # Older artifacts' ``distribution.*`` copies of these arrays are ignored.
        self._bucket_lows = np.asarray(state["bucket_lows"], dtype=float)
        self._bucket_highs = np.asarray(state["bucket_highs"], dtype=float)
        self._bucket_volumes = np.asarray(state["bucket_volumes"], dtype=float)
        self._weights = np.asarray(state["weights"], dtype=float)
        # Rebuilt deterministically from the persisted bucket arrays; the
        # index itself is never serialised.
        self._index = build_bucket_index(self._bucket_lows, self._bucket_highs)
