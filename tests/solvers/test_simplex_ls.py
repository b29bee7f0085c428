"""Simplex-constrained least squares — both methods, plus the projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers import fit_simplex_weights, project_to_simplex
from repro.solvers.simplex_ls import SOLVERS as METHODS

float_lists = st.lists(
    st.floats(-5, 5, allow_nan=False, allow_infinity=False), min_size=1, max_size=25
)


class TestProjection:
    def test_already_on_simplex(self):
        v = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_to_simplex(v), v, atol=1e-12)

    def test_uniform_from_constant(self):
        np.testing.assert_allclose(
            project_to_simplex(np.array([3.0, 3.0])), [0.5, 0.5]
        )

    def test_clips_dominated_coordinates(self):
        w = project_to_simplex(np.array([10.0, 0.0, 0.0]))
        np.testing.assert_allclose(w, [1.0, 0.0, 0.0])

    @settings(max_examples=60, deadline=None)
    @given(float_lists)
    def test_projection_is_feasible(self, values):
        w = project_to_simplex(np.array(values))
        assert np.all(w >= -1e-12)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(float_lists)
    def test_projection_is_closest_among_probes(self, values):
        """No random feasible probe is closer than the projection."""
        v = np.array(values)
        w = project_to_simplex(v)
        gen = np.random.default_rng(0)
        dist_w = np.sum((w - v) ** 2)
        for _ in range(20):
            probe = gen.dirichlet(np.ones(len(v)))
            assert dist_w <= np.sum((probe - v) ** 2) + 1e-9

    def test_rejects_matrix_input(self):
        with pytest.raises(ValueError):
            project_to_simplex(np.zeros((2, 2)))


class TestFitSimplexWeights:
    @pytest.fixture
    def problem(self, rng):
        a = rng.random((40, 12))
        w_true = rng.dirichlet(np.ones(12))
        s = a @ w_true + rng.normal(0, 0.005, 40)
        return a, np.clip(s, 0, 1), w_true

    @pytest.mark.parametrize("method", METHODS)
    def test_output_on_simplex(self, problem, method):
        a, s, _ = problem
        w = fit_simplex_weights(a, s, method=method)
        assert np.all(w >= -1e-12)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("method", METHODS)
    def test_recovers_low_loss(self, problem, method):
        a, s, w_true = problem
        w = fit_simplex_weights(a, s, method=method)
        fit_loss = np.mean((a @ w - s) ** 2)
        true_loss = np.mean((a @ w_true - s) ** 2)
        assert fit_loss <= true_loss + 1e-4

    def test_methods_agree_on_objective(self, problem):
        a, s, _ = problem
        objectives = []
        for method in METHODS:
            w = fit_simplex_weights(a, s, method=method)
            objectives.append(float(np.sum((a @ w - s) ** 2)))
        assert max(objectives) - min(objectives) <= 1e-4

    def test_exact_interpolation_when_possible(self):
        a = np.eye(3)
        s = np.array([0.2, 0.3, 0.5])
        w = fit_simplex_weights(a, s, method="pgd")
        np.testing.assert_allclose(w, s, atol=1e-6)

    def test_single_bucket(self):
        w = fit_simplex_weights(np.ones((5, 1)), np.linspace(0, 1, 5))
        np.testing.assert_allclose(w, [1.0])

    def test_zero_design_matrix(self):
        """All-zero design: any simplex point is optimal; must not crash."""
        w = fit_simplex_weights(np.zeros((4, 3)), np.full(4, 0.5))
        assert np.sum(w) == pytest.approx(1.0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            fit_simplex_weights(np.ones((2, 2)), np.ones(2), method="nope")

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            fit_simplex_weights(np.ones((2, 2)), np.ones(3))
        with pytest.raises(ValueError):
            fit_simplex_weights(np.ones(4), np.ones(4))
        with pytest.raises(ValueError):
            fit_simplex_weights(np.ones((2, 0)), np.ones(2))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_penalty_close_to_exact(self, seed):
        gen = np.random.default_rng(seed)
        a = gen.random((15, 6))
        s = np.clip(a @ gen.dirichlet(np.ones(6)) + gen.normal(0, 0.02, 15), 0, 1)
        w_pen = fit_simplex_weights(a, s, method="penalty")
        w_pgd = fit_simplex_weights(a, s, method="pgd")
        obj_pen = np.sum((a @ w_pen - s) ** 2)
        obj_pgd = np.sum((a @ w_pgd - s) ** 2)
        assert obj_pen <= obj_pgd + 1e-3


class TestScipyFallback:
    def test_runtime_error_falls_back_to_fista(self, monkeypatch):
        """scipy >= 1.12 raises RuntimeError at its iteration cap on
        ill-conditioned systems; the penalty path must fall back to the
        exact projected-gradient solve instead of crashing mid-training."""
        import scipy.optimize

        def exploding_nnls(*args, **kwargs):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(scipy.optimize, "nnls", exploding_nnls)
        gen = np.random.default_rng(0)
        a = gen.random((30, 10))
        s = np.clip(a @ gen.dirichlet(np.ones(10)), 0, 1)
        w = fit_simplex_weights(a, s, method="penalty")
        assert np.all(w >= -1e-12)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-8)
        assert np.mean((a @ w - s) ** 2) < 1e-3
