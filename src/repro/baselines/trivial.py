"""Trivial baselines: sanity floors for the benchmarks.

Any learned model should comfortably beat both of these; the benchmark
harness includes them so regressions in the real learners are visible at a
glance.
"""

from __future__ import annotations

from typing import ClassVar, Dict

import numpy as np

from repro.core.config import MeanConfig, UniformConfig
from repro.core.estimator import SelectivityEstimator
from repro.core.workload import TrainingSet
from repro.geometry.ranges import Box, Range, unit_box
from repro.geometry.volume import range_volume

__all__ = ["UniformEstimator", "MeanEstimator"]


class UniformEstimator(SelectivityEstimator):
    """Assumes uniformly distributed data: ``s(R) = Vol(R ∩ domain)``.

    This is the attribute-value-independence / uniformity assumption of
    classical optimisers, the strawman the learned-estimation literature
    improves on.
    """

    Config: ClassVar = UniformConfig

    def __init__(self, domain: Box | None = None):
        super().__init__()
        self.domain = domain
        self._resolved_domain: Box | None = None

    def _fit(self, training: TrainingSet) -> None:
        self._resolved_domain = (
            self.domain if self.domain is not None else unit_box(training.dim)
        )

    def _predict_one(self, query: Range) -> float:
        if query.dim != self._resolved_domain.dim:
            raise ValueError(
                f"query of dimension {query.dim} against "
                f"{self._resolved_domain.dim}-dimensional data"
            )
        domain_volume = self._resolved_domain.volume()
        if domain_volume <= 0.0:
            return 0.0
        return range_volume(query, self._resolved_domain) / domain_volume

    @property
    def model_size(self) -> int:
        return 1

    def _state_dict(self) -> Dict[str, object]:
        return {
            "domain_lows": self._resolved_domain.lows,
            "domain_highs": self._resolved_domain.highs,
        }

    def _load_state_dict(self, state: Dict[str, object]) -> None:
        self._resolved_domain = Box(
            np.asarray(state["domain_lows"], dtype=float),
            np.asarray(state["domain_highs"], dtype=float),
        )


class MeanEstimator(SelectivityEstimator):
    """Predicts the mean training selectivity for every query."""

    Config: ClassVar = MeanConfig

    def __init__(self):
        super().__init__()
        self._mean = 0.0

    def _fit(self, training: TrainingSet) -> None:
        self._mean = float(training.selectivities.mean())

    def _predict_one(self, query: Range) -> float:
        return self._mean

    @property
    def model_size(self) -> int:
        return 1

    def _state_dict(self) -> Dict[str, object]:
        return {"mean": float(self._mean)}

    def _load_state_dict(self, state: Dict[str, object]) -> None:
        self._mean = float(state["mean"])
