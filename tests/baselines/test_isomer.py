"""ISOMER — STHoles drilling invariants and max-ent consistency."""

import numpy as np
import pytest

from repro.baselines import Isomer, UniformEstimator
from repro.geometry import Ball, Box, unit_box


@pytest.fixture
def box_workload(rng):
    queries = [
        Box.from_center(rng.random(2), rng.random(2) * 0.7, clip_to=unit_box(2))
        for _ in range(15)
    ]
    queries = [q for q in queries if q.volume() > 0]
    labels = np.clip([q.volume() * 0.7 for q in queries], 0, 1)
    return queries, np.asarray(labels)


class TestDrilling:
    def test_buckets_partition_domain(self, box_workload):
        queries, labels = box_workload
        est = Isomer().fit(queries, labels)
        total = float(np.sum(est.distribution._volumes))
        assert total == pytest.approx(1.0)

    def test_buckets_are_disjoint(self, box_workload):
        queries, labels = box_workload
        est = Isomer().fit(queries, labels)
        est.distribution.validate()

    def test_buckets_aligned_with_queries(self, box_workload, rng):
        """After drilling, every bucket is fully inside or outside every
        training query (the invariant that makes feedback constraints 0/1)."""
        queries, labels = box_workload
        est = Isomer().fit(queries, labels)
        for bucket in est.distribution.buckets:
            if bucket.volume() <= 0:
                continue
            probe = bucket.lows + rng.random((15, 2)) * bucket.widths
            for q in queries:
                inside = np.asarray(q.contains(probe))
                assert inside.all() or not inside.any()

    def test_bucket_count_grows_superlinearly(self, rng):
        """The paper observes ISOMER using 48-160x buckets per query."""
        queries = [
            Box.from_center(rng.random(2), rng.random(2) * 0.7, clip_to=unit_box(2))
            for _ in range(30)
        ]
        queries = [q for q in queries if q.volume() > 0]
        labels = np.clip([q.volume() * 0.7 for q in queries], 0, 1)
        est = Isomer().fit(queries, labels)
        assert est.model_size > 3 * len(queries)

    def test_max_buckets_is_a_hard_cap(self, box_workload):
        queries, labels = box_workload
        est = Isomer(max_buckets=50).fit(queries, labels)
        assert est.model_size <= 50

    def test_rejects_non_box_queries(self):
        with pytest.raises(TypeError):
            Isomer().fit([Ball([0.5, 0.5], 0.2)], [0.2])


class TestAccuracy:
    def test_consistent_with_training_feedback(self, box_workload):
        queries, labels = box_workload
        est = Isomer(slack=1e-4).fit(queries, labels)
        preds = est.predict_many(queries)
        assert np.max(np.abs(preds - labels)) < 0.05

    def test_beats_uniform_on_skewed_data(self, power2d_box_workload):
        train_q, train_s, test_q, test_s = power2d_box_workload
        isomer = Isomer(max_buckets=4000).fit(train_q[:50], train_s[:50])
        uniform = UniformEstimator().fit(train_q[:50], train_s[:50])
        rms_isomer = np.sqrt(np.mean((isomer.predict_many(test_q) - test_s) ** 2))
        rms_uniform = np.sqrt(np.mean((uniform.predict_many(test_q) - test_s) ** 2))
        assert rms_isomer < rms_uniform / 3

    def test_weights_are_distribution(self, box_workload):
        queries, labels = box_workload
        est = Isomer().fit(queries, labels)
        assert np.sum(est.distribution.weights) == pytest.approx(1.0)
        assert np.all(est.distribution.weights >= 0)


class TestValidation:
    def test_invalid_max_buckets(self):
        with pytest.raises(ValueError):
            Isomer(max_buckets=0)
