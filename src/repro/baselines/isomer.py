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

The result is an Eq. (6) histogram, so ISOMER keeps only its bucket design
and weighting: prediction, the ``distribution`` view and persistence (under
``bucket_*`` keys) come from :class:`~repro.core.quadhist.BucketHistogram`.
"""

from __future__ import annotations

from typing import ClassVar

import numpy as np

from repro.core.config import IsomerConfig
from repro.core.quadhist import BucketHistogram
from repro.core.workload import TrainingSet
from repro.geometry.ranges import Box, unit_box
from repro.solvers.maxent import fit_maxent_weights

__all__ = ["Isomer"]


class Isomer(BucketHistogram):
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
    _state_prefix = "bucket"

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

    def _fit(self, training: TrainingSet) -> None:
        if not all(isinstance(q, Box) for q in training.queries):
            raise TypeError("ISOMER supports orthogonal-range (Box) queries only")
        domain = self.domain if self.domain is not None else unit_box(training.dim)
        buckets = self._drill_buckets(list(training.queries), domain)
        self._set_buckets(np.stack([b.lows for b in buckets]), np.stack([b.highs for b in buckets]))
        self._weights = fit_maxent_weights(
            self._design(training.queries), training.selectivities, slack=self.slack
        )

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
