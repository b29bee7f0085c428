"""Incremental retrain across the estimator registry.

The contract under test: after K feedback batches, an incrementally
maintained model matches a full refit on the union workload — bitwise
(well, to 1e-9) for the order-invariant tree histograms with a cold
solve, and within a stated accuracy tolerance for the estimators whose
incremental path is *structurally* different from a refit (PtsHist
freezes its point support; STHoles merges at different moments) or when
the solve is warm-started.
"""

import numpy as np
import pytest

from repro.baselines.stholes import STHoles
from repro.core import KdHist, PtsHist, QuadHist
from repro.core.incremental import assemble_design, split_warm_start
from repro.solvers.simplex_ls import fit_simplex_weights

K_BATCHES = 3

#: Estimators whose partial_fit(warm_start=False) is numerically
#: equivalent to a refit on the union workload (order-invariant
#: partition + bitwise-identical design rows + the same cold solve).
EXACT = {
    "quadhist": lambda: QuadHist(tau=0.02),
    "kdhist": lambda: KdHist(tau=0.02),
}

#: Estimators where incremental ≠ refit by construction; these must stay
#: within an accuracy tolerance of the refit instead.
APPROXIMATE = {
    "ptshist": lambda: PtsHist(size=200, seed=3),
    "stholes": lambda: STHoles(max_buckets=200),
}

ALL = {**EXACT, **APPROXIMATE}


def _batches(queries, labels, k=K_BATCHES):
    size = (len(queries) + k - 1) // k
    for start in range(0, len(queries), size):
        yield queries[start : start + size], labels[start : start + size]


def _rms(est, queries, labels):
    return float(np.sqrt(np.mean((est.predict_many(queries) - labels) ** 2)))


class TestRegistryWideEquivalence:
    @pytest.mark.parametrize("name", sorted(EXACT))
    def test_cold_incremental_equals_refit(self, name, power2d_box_workload):
        train_q, train_s, test_q, _ = power2d_box_workload
        incremental = ALL[name]()
        for batch_q, batch_s in _batches(train_q, train_s):
            incremental.partial_fit(batch_q, batch_s, warm_start=False)
        refit = ALL[name]().fit(train_q, train_s)
        np.testing.assert_allclose(
            incremental.predict_many(test_q), refit.predict_many(test_q), atol=1e-9
        )
        assert incremental.model_size == refit.model_size

    @pytest.mark.parametrize("name", sorted(ALL))
    def test_incremental_accuracy_tracks_refit(self, name, power2d_box_workload):
        """Warm-started incremental after K batches stays within tolerance
        of the union refit on held-out queries — for every registry
        estimator with a partial_fit (QuadHist, KdHist, PtsHist, STHoles).
        """
        train_q, train_s, test_q, test_s = power2d_box_workload
        incremental = ALL[name]()
        for batch_q, batch_s in _batches(train_q, train_s):
            incremental.partial_fit(batch_q, batch_s, warm_start=True)
        refit = ALL[name]().fit(train_q, train_s)
        assert _rms(incremental, test_q, test_s) <= _rms(refit, test_q, test_s) + 0.03

    @pytest.mark.parametrize("name", sorted(ALL))
    def test_update_report_populated(self, name, power2d_box_workload):
        train_q, train_s, _, _ = power2d_box_workload
        est = ALL[name]()
        est.fit(train_q[:60], train_s[:60])
        assert est.update_report_ is None
        est.partial_fit(train_q[60:], train_s[60:], warm_start=True)
        report = est.update_report_
        assert report is not None
        assert report.rows_appended == len(train_q) - 60
        assert report.rows_total == len(train_q)
        assert report.warm_started is True
        assert report.seconds >= 0.0
        as_dict = report.to_dict()
        for key in ("rows_appended", "leaves_split", "columns_reused", "rung"):
            assert key in as_dict

    @pytest.mark.parametrize("name", sorted(ALL))
    def test_warm_solve_reported(self, name, power2d_box_workload):
        train_q, train_s, _, _ = power2d_box_workload
        est = ALL[name]()
        est.fit(train_q[:60], train_s[:60])
        est.partial_fit(train_q[60:], train_s[60:], warm_start=True)
        assert est.solve_report_ is not None
        assert est.solve_report_.warm_started is True

    @pytest.mark.parametrize("name", sorted(ALL))
    def test_restored_model_cannot_partial_fit(
        self, name, power2d_box_workload, tmp_path
    ):
        """Persisted artifacts drop the fit-time state (tree, history,
        design cache); partial_fit on a restored model must say so."""
        from repro.persistence import load_model, save_model

        train_q, train_s, _, _ = power2d_box_workload
        est = ALL[name]().fit(train_q[:60], train_s[:60])
        path = save_model(est, tmp_path / f"{name}.rma")
        restored = load_model(path)
        with pytest.raises(RuntimeError):
            restored.partial_fit(train_q[60:80], train_s[60:80])


@pytest.mark.xfail(
    strict=True,
    reason="the warm FISTA polish stops on an absolute stall test: with a "
    "training objective far below 1 it ends after two iterations and "
    "barely moves the remapped weights (docs/online_learning.md)",
)
def test_warm_update_reaches_the_cold_objective(power2d_box_workload):
    """A warm update's training objective is within 1% of the cold
    optimum on the same design matrix."""
    train_q, train_s, _, _ = power2d_box_workload
    est = QuadHist(tau=0.02).fit(train_q[:90], train_s[:90])
    est.partial_fit(train_q[90:], train_s[90:], warm_start=True)
    design = est._design_cache
    cold = fit_simplex_weights(design, train_s, method=est.solver)

    def objective(weights):
        return float(np.sum((design @ weights - train_s) ** 2))

    assert objective(est._weights) <= 1.01 * objective(cold)


class TestIncrementalHelpers:
    def test_assemble_design_reuses_and_appends(self):
        cached = np.arange(12, dtype=float).reshape(3, 4)
        # New column order: [old2, fresh, old0]; old1/old3 dropped.
        reused = np.array([True, False, True])
        origin = np.array([2, -1, 0])
        fresh_block = np.array([[10.0], [11.0], [12.0]])
        new_rows = np.array([[0.5, 0.6, 0.7]])
        out = assemble_design(cached, reused, origin, fresh_block, new_rows)
        expected = np.array(
            [
                [2.0, 10.0, 0.0],
                [6.0, 11.0, 4.0],
                [10.0, 12.0, 8.0],
                [0.5, 0.6, 0.7],
            ]
        )
        np.testing.assert_array_equal(out, expected)

    def test_split_warm_start_preserves_mass_by_volume(self):
        old = np.array([0.6, 0.4])
        # Old bucket 0 split into two equal halves; bucket 1 survives.
        reused = np.array([False, False, True])
        origin = np.array([0, 0, 1])
        new_volumes = np.array([0.5, 0.5, 1.0])
        old_volumes = np.array([1.0, 1.0])
        w0 = split_warm_start(old, reused, origin, new_volumes, old_volumes)
        assert w0.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(w0, [0.3, 0.3, 0.4])

    def test_split_warm_start_degenerate_falls_back_to_uniform(self):
        old = np.zeros(2)
        reused = np.array([True, True])
        origin = np.array([0, 1])
        volumes = np.ones(2)
        w0 = split_warm_start(old, reused, origin, volumes, volumes)
        np.testing.assert_allclose(w0, [0.5, 0.5])
