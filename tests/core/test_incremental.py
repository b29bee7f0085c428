"""Incremental retrain across the estimator registry.

The contract under test: after K feedback batches, an incrementally
maintained model matches a full refit on the union workload — bitwise
(well, to 1e-9) with a cold solve for the order-invariant tree
histograms and for STHoles, whose drilling and merging run one sample at
a time in both paths — and within a stated accuracy tolerance when the
incremental path is *structurally* different from a refit (PtsHist
freezes its point support) or when the solve is warm-started.
"""

import numpy as np
import pytest

from repro.baselines.stholes import STHoles
from repro.core import KdHist, PtsHist, QuadHist
from repro.core.incremental import assemble_design, split_warm_start
from repro.core.workload import TrainingSet
from repro.geometry.ranges import Ball, Box
from repro.solvers.simplex_ls import fit_simplex_weights

K_BATCHES = 3

#: Estimators whose partial_fit(warm_start=False) is numerically
#: equivalent to a refit on the union workload (the same partition +
#: bitwise-identical design rows + the same cold solve).
EXACT = {
    "quadhist": lambda: QuadHist(tau=0.02),
    "kdhist": lambda: KdHist(tau=0.02),
    "stholes": lambda: STHoles(max_buckets=200),
}

#: Estimators where incremental ≠ refit by construction; these must stay
#: within an accuracy tolerance of the refit instead.
APPROXIMATE = {
    "ptshist": lambda: PtsHist(size=200, seed=3),
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


def _weights(est) -> np.ndarray:
    return est.distribution.weights if isinstance(est, PtsHist) else est._weights


def _state(est, queries) -> tuple:
    """What a refused update must leave as it was."""
    return (
        len(est._history),
        _weights(est).tobytes(),
        est.model_size,
        est.predict_many(queries).tobytes(),
    )


class TestPartialFitContract:
    """The one update path's contract, for every learner with a
    ``partial_fit``."""

    @pytest.mark.parametrize("name", sorted(ALL))
    def test_batch_of_another_dimension_changes_nothing(self, name, power2d_box_workload):
        train_q, train_s, test_q, _ = power2d_box_workload
        est = ALL[name]().fit(train_q[:60], train_s[:60])
        before = _state(est, test_q)
        with pytest.raises(ValueError):
            est.partial_fit([Box([0.1], [0.5])], [0.2])
        assert _state(est, test_q) == before

    def test_non_box_batch_to_stholes_changes_nothing(self, power2d_box_workload):
        train_q, train_s, test_q, _ = power2d_box_workload
        est = ALL["stholes"]().fit(train_q[:60], train_s[:60])
        before = _state(est, test_q)
        with pytest.raises(TypeError):
            est.partial_fit([train_q[60], Ball([0.5, 0.5], 0.2)], [train_s[60], 0.2])
        assert _state(est, test_q) == before

    @pytest.mark.parametrize("rows", [1, 40])
    @pytest.mark.parametrize("name", sorted(ALL))
    def test_update_report_counts(self, name, rows, power2d_box_workload):
        train_q, train_s, _, _ = power2d_box_workload
        est = ALL[name]().fit(train_q[:60], train_s[:60])
        size_before = est.model_size
        est.partial_fit(train_q[60 : 60 + rows], train_s[60 : 60 + rows])
        report = est.update_report_
        assert report.buckets_before == size_before
        assert report.buckets_after == est.model_size
        assert report.rows_appended == rows
        assert report.rows_total == len(est._history) == est._design_cache.shape[0] == 60 + rows
        assert report.full_rebuild is False

    @pytest.mark.parametrize("name", sorted(ALL))
    def test_history_replaced_out_of_band_rebuilds_the_cache(self, name, power2d_box_workload):
        """A cache that no longer matches the history is rebuilt in full
        over the union, not appended to."""
        train_q, train_s, _, _ = power2d_box_workload
        est = ALL[name]().fit(train_q[:60], train_s[:60])
        est._history = TrainingSet(train_q[:30], train_s[:30])
        est.partial_fit(train_q[60:70], train_s[60:70])
        assert est.update_report_.full_rebuild is True
        assert est._design_cache.shape[0] == len(est._history) == 40
        assert est.update_report_.rows_total == 40


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
