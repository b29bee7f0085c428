"""Shared estimator API contracts across all implementations."""

import numpy as np
import pytest

from repro.baselines import Isomer, MeanEstimator, QuickSel, STHoles, UniformEstimator
from repro.core import ArrangementERM, GaussianMixtureHist, KdHist, PtsHist, QuadHist
from repro.core.estimator import NotFittedError
from repro.geometry import Box

ALL_ESTIMATORS = [
    lambda: QuadHist(tau=0.05),
    lambda: PtsHist(size=50),
    lambda: ArrangementERM(mode="discrete", samples=500),
    lambda: ArrangementERM(mode="histogram"),
    lambda: GaussianMixtureHist(components=40),
    lambda: KdHist(tau=0.05),
    lambda: Isomer(max_buckets=500),
    lambda: STHoles(max_buckets=60),
    lambda: QuickSel(),
    lambda: UniformEstimator(),
    lambda: MeanEstimator(),
]


@pytest.fixture
def tiny_workload(rng):
    queries = [
        Box.from_center(rng.random(2), rng.random(2), clip_to=Box([0, 0], [1, 1]))
        for _ in range(12)
    ]
    queries = [q for q in queries if q.volume() > 0][:10]
    labels = np.clip([q.volume() * 0.8 for q in queries], 0, 1)
    return queries, labels


@pytest.mark.parametrize("factory", ALL_ESTIMATORS)
class TestAPIContracts:
    def test_predict_before_fit_raises(self, factory):
        with pytest.raises(NotFittedError):
            factory().predict(Box([0.0, 0.0], [0.5, 0.5]))

    def test_fit_returns_self(self, factory, tiny_workload):
        est = factory()
        assert est.fit(*tiny_workload) is est

    def test_predictions_in_unit_interval(self, factory, tiny_workload, rng):
        est = factory().fit(*tiny_workload)
        for _ in range(10):
            q = Box.from_center(rng.random(2), rng.random(2), clip_to=Box([0, 0], [1, 1]))
            assert 0.0 <= est.predict(q) <= 1.0

    def test_predict_many_matches_predict(self, factory, tiny_workload):
        queries, labels = tiny_workload
        est = factory().fit(queries, labels)
        batch = est.predict_many(queries[:3])
        singles = [est.predict(q) for q in queries[:3]]
        np.testing.assert_allclose(batch, singles)

    def test_model_size_positive(self, factory, tiny_workload):
        est = factory().fit(*tiny_workload)
        assert est.model_size >= 1

    def test_repr_shows_fitted_state(self, factory, tiny_workload):
        est = factory()
        assert "unfitted" in repr(est)
        est.fit(*tiny_workload)
        assert "fitted" in repr(est)


@pytest.mark.parametrize(
    "cls", [QuadHist, KdHist, PtsHist, GaussianMixtureHist, ArrangementERM]
)
@pytest.mark.parametrize("solver", ["penalty-own", "active-set", "scipy-nnls"])
def test_unknown_solver_rejected_at_construction(cls, solver):
    with pytest.raises(ValueError, match="solver must be one of"):
        cls(solver=solver)
