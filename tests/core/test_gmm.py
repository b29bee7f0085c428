"""GaussianMixtureHist — the future-work extension (Section 6)."""

import numpy as np
import pytest
from scipy.stats import norm

from repro.core import GaussianMixtureHist
from repro.geometry import Ball, Box, Halfspace, unit_box
from repro.geometry.volume import range_volume
from repro.observability import default_registry


class TestComponentMasses:
    @pytest.fixture
    def single_component(self):
        est = GaussianMixtureHist(components=1, bandwidths=(0.1,), seed=0)
        est._means = np.array([[0.5, 0.5]])
        est._sigmas = np.array([[0.1, 0.1]])
        est._weights = np.array([1.0])
        est._fitted = True
        from scipy.stats import qmc

        sampler = qmc.Sobol(d=2, scramble=True, seed=1)
        est._qmc_normal = norm.ppf(np.clip(sampler.random(2048), 1e-9, 1 - 1e-9))
        return est

    def test_box_mass_is_cdf_product(self, single_component):
        box = Box([0.4, 0.4], [0.6, 0.6])
        expected = (norm.cdf(1.0) - norm.cdf(-1.0)) ** 2
        assert single_component.predict(box) == pytest.approx(expected, abs=1e-9)

    def test_halfspace_mass_via_projection(self, single_component):
        half = Halfspace([1.0, 0.0], 0.5)  # x >= mean -> mass 1/2
        assert single_component.predict(half) == pytest.approx(0.5, abs=1e-9)

    def test_diagonal_halfspace(self, single_component):
        # a=(1,1), b=1.0: a.X ~ N(1.0, 0.02) -> P = 1/2.
        half = Halfspace([1.0, 1.0], 1.0)
        assert single_component.predict(half) == pytest.approx(0.5, abs=1e-9)

    def test_ball_mass_via_qmc(self, single_component):
        ball = Ball([0.5, 0.5], 0.2)  # 2 sigma: P(chi2_2 <= 4) ~ 0.8647
        expected = 1.0 - np.exp(-2.0)
        assert single_component.predict(ball) == pytest.approx(expected, abs=0.02)


class TestFitting:
    def test_fits_uniform_labels(self, rng):
        queries = [
            Box.from_center(rng.random(2), rng.random(2), clip_to=unit_box(2))
            for _ in range(40)
        ]
        labels = np.array([q.volume() for q in queries])
        est = GaussianMixtureHist(components=150, seed=0).fit(queries, labels)
        preds = est.predict_many(queries)
        assert np.sqrt(np.mean((preds - labels) ** 2)) < 0.03

    def test_accuracy_on_power_data(self, power2d_box_workload):
        train_q, train_s, test_q, test_s = power2d_box_workload
        est = GaussianMixtureHist(components=300, seed=0).fit(train_q, train_s)
        rms = np.sqrt(np.mean((est.predict_many(test_q) - test_s) ** 2))
        assert rms < 0.08

    def test_halfspace_workload(self, rng):
        queries = [
            Halfspace.through_point(rng.random(3), rng.normal(size=3))
            for _ in range(40)
        ]
        labels = np.array([range_volume(q, unit_box(3)) for q in queries])
        est = GaussianMixtureHist(components=200, seed=0).fit(queries, labels)
        preds = est.predict_many(queries)
        assert np.sqrt(np.mean((preds - labels) ** 2)) < 0.08

    def test_deterministic_given_seed(self, power2d_box_workload):
        train_q, train_s, test_q, _ = power2d_box_workload
        a = GaussianMixtureHist(components=100, seed=3).fit(train_q, train_s)
        b = GaussianMixtureHist(components=100, seed=3).fit(train_q, train_s)
        np.testing.assert_array_equal(a.predict_many(test_q), b.predict_many(test_q))

    def test_weights_on_simplex(self, power2d_box_workload):
        train_q, train_s, _, _ = power2d_box_workload
        est = GaussianMixtureHist(components=100, seed=0).fit(train_q, train_s)
        assert np.all(est._weights >= -1e-12)
        assert np.sum(est._weights) == pytest.approx(1.0, abs=1e-8)

    def test_linf_objective(self, power2d_box_workload):
        train_q, train_s, _, _ = power2d_box_workload
        inf_est = GaussianMixtureHist(components=100, seed=0, objective="linf").fit(
            train_q, train_s
        )
        l2_est = GaussianMixtureHist(components=100, seed=0).fit(train_q, train_s)
        inf_train = np.max(np.abs(inf_est.predict_many(train_q) - train_s))
        l2_train = np.max(np.abs(l2_est.predict_many(train_q) - train_s))
        assert inf_train <= l2_train + 1e-6

    def test_solve_goes_through_the_ladder(self, power2d_box_workload):
        train_q, train_s, _, _ = power2d_box_workload
        solves = default_registry().counter(
            "repro_solve_total",
            "Weight solves by the fallback-ladder rung that produced the answer",
            labels=("rung",),
        )
        before = sum(value for _, value in solves.series())
        est = GaussianMixtureHist(components=50, seed=0).fit(train_q, train_s)
        assert est.solve_report_ is not None
        assert est.solve_report_.requested == "penalty"
        assert sum(value for _, value in solves.series()) == before + 1
        assert solves.value(rung=est.solve_report_.rung) >= 1


class TestDistributionSemantics:
    def test_density_integrates_to_one(self, power2d_box_workload, rng):
        train_q, train_s, _, _ = power2d_box_workload
        est = GaussianMixtureHist(components=80, seed=0).fit(train_q, train_s)
        # MC integral over a generous bounding region (mixtures have
        # unbounded support but the mass far outside [0,1]^2 is tiny).
        pts = rng.uniform(-0.5, 1.5, size=(60_000, 2))
        integral = float(np.mean(est.density(pts)) * 4.0)
        assert integral == pytest.approx(1.0, abs=0.1)

    def test_sampling_matches_predictions(self, power2d_box_workload, rng):
        train_q, train_s, _, _ = power2d_box_workload
        est = GaussianMixtureHist(components=80, seed=0).fit(train_q, train_s)
        sample = est.sample(10_000, rng)
        for q in train_q[:5]:
            empirical = float(np.mean(q.contains(sample)))
            assert empirical == pytest.approx(est.predict(q), abs=0.03)

    def test_unbounded_support(self, power2d_box_workload, rng):
        """Unlike histograms, the mixture assigns (tiny) density outside
        the unit domain — the Gaussian-mixture feature the paper calls out."""
        train_q, train_s, _, _ = power2d_box_workload
        est = GaussianMixtureHist(components=80, seed=0).fit(train_q, train_s)
        assert est.density(np.array([1.2, 1.2])) > 0.0


class TestValidation:
    def test_invalid_components(self):
        with pytest.raises(ValueError):
            GaussianMixtureHist(components=0)

    def test_invalid_bandwidths(self):
        with pytest.raises(ValueError):
            GaussianMixtureHist(bandwidths=())
        with pytest.raises(ValueError):
            GaussianMixtureHist(bandwidths=(0.1, -0.2))

    def test_invalid_interior_fraction(self):
        with pytest.raises(ValueError):
            GaussianMixtureHist(interior_fraction=2.0)

    def test_invalid_objective(self):
        with pytest.raises(ValueError):
            GaussianMixtureHist(objective="l0")
