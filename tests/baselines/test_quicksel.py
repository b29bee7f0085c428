"""QuickSel — mixture-of-uniforms QP."""

import numpy as np
import pytest

from repro.baselines import QuickSel, UniformEstimator
from repro.core.quadhist import BucketHistogram, WeightedBoxes
from repro.geometry import Ball, Box, unit_box


@pytest.fixture
def box_workload(rng):
    queries = [
        Box.from_center(rng.random(2), rng.random(2) * 0.7, clip_to=unit_box(2))
        for _ in range(20)
    ]
    queries = [q for q in queries if q.volume() > 0]
    labels = np.clip([q.volume() * 0.6 for q in queries], 0, 1)
    return queries, np.asarray(labels)


class TestTraining:
    def test_constraints_satisfied_on_training_queries(self, box_workload):
        queries, labels = box_workload
        est = QuickSel().fit(queries, labels)
        raw = np.array([est.raw_predict(q) for q in queries])
        assert np.max(np.abs(raw - labels)) < 0.02

    def test_total_mass_is_one(self, box_workload):
        queries, labels = box_workload
        est = QuickSel().fit(queries, labels)
        assert est.raw_predict(unit_box(2)) == pytest.approx(1.0, abs=1e-6)

    def test_weights_may_be_negative(self, rng):
        """QuickSel's defining quirk: an over-constrained workload forces
        negative kernel weights (the source of its bad tail Q-errors)."""
        # Nested boxes with contradictory-looking densities.
        outer = Box([0.0, 0.0], [0.8, 0.8])
        inner = Box([0.2, 0.2], [0.6, 0.6])
        est = QuickSel().fit([outer, inner], [0.3, 0.29])
        assert np.any(est._weights < -1e-6)

    def test_model_size_is_kernels(self, box_workload):
        queries, labels = box_workload
        est = QuickSel().fit(queries, labels)
        assert est.model_size == len(queries) + 1  # + the domain kernel

    def test_rejects_non_box_queries(self):
        with pytest.raises(TypeError):
            QuickSel().fit([Ball([0.5, 0.5], 0.2)], [0.2])

    def test_is_the_bucket_model_without_a_distribution(self):
        """QuickSel's kernels are the shared bucket model's boxes; its
        signed weights make it no distribution, so it has no view of one."""
        assert issubclass(QuickSel, WeightedBoxes)
        assert not issubclass(QuickSel, BucketHistogram)
        assert not hasattr(QuickSel, "distribution")
        shared = {"_set_buckets", "_design", "_predict_batch", "model_size",
                  "_state_dict", "_load_state_dict"}
        assert not shared & set(vars(QuickSel))

    def test_public_predictions_clipped(self, box_workload, rng):
        queries, labels = box_workload
        est = QuickSel().fit(queries, labels)
        for _ in range(20):
            q = Box.from_center(rng.random(2), rng.random(2) * 0.2, clip_to=unit_box(2))
            assert 0.0 <= est.predict(q) <= 1.0


class TestAccuracy:
    def test_beats_uniform_on_skewed_data(self, power2d_box_workload):
        train_q, train_s, test_q, test_s = power2d_box_workload
        qs = QuickSel().fit(train_q, train_s)
        uniform = UniformEstimator().fit(train_q, train_s)
        rms_qs = np.sqrt(np.mean((qs.predict_many(test_q) - test_s) ** 2))
        rms_uniform = np.sqrt(np.mean((uniform.predict_many(test_q) - test_s) ** 2))
        assert rms_qs < rms_uniform / 3

    def test_more_training_reduces_error(self, power2d_box_workload):
        train_q, train_s, test_q, test_s = power2d_box_workload
        small = QuickSel().fit(train_q[:20], train_s[:20])
        large = QuickSel().fit(train_q, train_s)
        rms_small = np.sqrt(np.mean((small.predict_many(test_q) - test_s) ** 2))
        rms_large = np.sqrt(np.mean((large.predict_many(test_q) - test_s) ** 2))
        assert rms_large <= rms_small * 1.2  # allow noise, expect improvement


class TestValidation:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            QuickSel(constraint_weight=0)
        with pytest.raises(ValueError):
            QuickSel(ridge=-1)
