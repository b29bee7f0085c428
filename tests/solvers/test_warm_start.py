"""Warm-started solver entry points (the incremental-retrain support)."""

import numpy as np
import pytest

from repro.robustness.errors import DataValidationError
from repro.solvers.linf import fit_simplex_weights_linf
from repro.solvers.simplex_ls import (
    SOLVERS,
    fit_simplex_weights,
    fit_simplex_weights_robust,
)


def _problem(m=120, n=40, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, size=(m, n))
    w_true = rng.dirichlet(np.ones(n))
    s = np.clip(a @ w_true + rng.normal(0.0, 0.01, size=m), 0.0, 1.0)
    return a, s


def _residual(a, s, w):
    return float(np.linalg.norm(a @ w - s))


class TestSimplexWarmStart:
    @pytest.mark.parametrize("method", SOLVERS)
    def test_warm_result_is_feasible_and_competitive(self, method):
        a, s = _problem(seed=3)
        cold = fit_simplex_weights(a, s, method=method)
        warm = fit_simplex_weights(a, s, method=method, warm_start=cold)
        assert warm.min() >= -1e-12
        assert warm.sum() == pytest.approx(1.0, abs=1e-8)
        assert _residual(a, s, warm) <= _residual(a, s, cold) + 5e-3

    def test_warm_from_perturbed_previous_solution(self):
        a, s = _problem(seed=4)
        prev = fit_simplex_weights(a, s)
        rng = np.random.default_rng(5)
        jittered = prev + rng.normal(0.0, 1e-2, prev.shape)
        warm = fit_simplex_weights(a, s, warm_start=jittered)
        assert _residual(a, s, warm) <= _residual(a, s, prev) + 5e-3

    def test_strict_shape_mismatch_raises(self):
        a, s = _problem()
        with pytest.raises(DataValidationError):
            fit_simplex_weights(a, s, warm_start=np.ones(3))

    def test_robust_reports_warm_started(self):
        a, s = _problem(seed=6)
        cold, cold_report = fit_simplex_weights_robust(a, s)
        assert cold_report.warm_started is False
        warm, warm_report = fit_simplex_weights_robust(a, s, warm_start=cold)
        assert warm_report.warm_started is True
        assert warm_report.to_dict()["warm_started"] is True
        assert _residual(a, s, warm) <= _residual(a, s, cold) + 5e-3

    def test_robust_drops_invalid_warm_start(self):
        """The robust ladder is best-effort: a stale (wrong-length) warm
        start is dropped instead of failing the solve."""
        a, s = _problem(seed=7)
        w, report = fit_simplex_weights_robust(a, s, warm_start=np.ones(3))
        assert report.warm_started is False
        assert w.sum() == pytest.approx(1.0, abs=1e-8)


class TestLinfWarmStart:
    def test_solves_same_with_warm_start(self):
        a, s = _problem(seed=8)
        base = fit_simplex_weights_linf(a, s)
        warm = fit_simplex_weights_linf(a, s, warm_start=base)

        def worst(w):
            return float(np.abs(a @ w - s).max())

        assert worst(warm) <= worst(base) + 1e-8

    def test_warm_start_is_failure_fallback(self, monkeypatch):
        import repro.solvers.linf as linf_mod

        a, s = _problem(seed=9)
        prev = np.zeros(a.shape[1])
        prev[0] = 2.0  # unnormalised on purpose: the fallback renormalises

        class _Fail:
            status = 2
            x = None

        monkeypatch.setattr(linf_mod, "linprog", lambda *args, **kwargs: _Fail())
        w = linf_mod.fit_simplex_weights_linf(a, s, warm_start=prev)
        expected = np.zeros(a.shape[1])
        expected[0] = 1.0
        np.testing.assert_allclose(w, expected)

    def test_failure_without_warm_start_is_uniform(self, monkeypatch):
        import repro.solvers.linf as linf_mod

        a, s = _problem(seed=10)

        class _Fail:
            status = 2
            x = None

        monkeypatch.setattr(linf_mod, "linprog", lambda *args, **kwargs: _Fail())
        w = linf_mod.fit_simplex_weights_linf(a, s)
        np.testing.assert_allclose(w, np.full(a.shape[1], 1.0 / a.shape[1]))
