"""STHoles — tree invariants, budget, merging, accuracy."""

import numpy as np
import pytest

from repro.baselines import STHoles, UniformEstimator
from repro.geometry import Ball, Box, unit_box

from tests.core.predict_oracle import child_loop_fractions


@pytest.fixture
def small_workload(rng):
    queries = [
        Box.from_center(rng.random(2), rng.random(2) * 0.6, clip_to=unit_box(2))
        for _ in range(25)
    ]
    queries = [q for q in queries if q.volume() > 0]
    labels = np.clip([q.volume() * 0.7 for q in queries], 0, 1)
    return queries, np.asarray(labels)


def _check_tree(est: STHoles):
    """Every child box nested in its parent; siblings disjoint."""
    for bucket in est._root.walk():
        for child in bucket.children:
            assert bucket.box.contains_box(child.box)
        for i, a in enumerate(bucket.children):
            for b in bucket.children[i + 1 :]:
                inter = a.box.intersect(b.box)
                assert inter is None or inter.volume() < 1e-9


class TestStructure:
    def test_tree_invariants(self, small_workload):
        queries, labels = small_workload
        est = STHoles(max_buckets=100).fit(queries, labels)
        _check_tree(est)

    def test_bucket_budget_respected(self, small_workload):
        queries, labels = small_workload
        est = STHoles(max_buckets=30).fit(queries, labels)
        assert est.model_size <= 30

    def test_drilling_creates_buckets(self, small_workload):
        queries, labels = small_workload
        est = STHoles(max_buckets=200).fit(queries, labels)
        assert est.model_size > 1

    def test_merging_preserves_invariants(self, small_workload):
        queries, labels = small_workload
        est = STHoles(max_buckets=10).fit(queries, labels)
        _check_tree(est)
        assert est.model_size <= 10

    def test_regions_partition_domain(self, small_workload):
        queries, labels = small_workload
        est = STHoles(max_buckets=100).fit(queries, labels)
        total = sum(b.region_volume() for b in est._root.walk())
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_rejects_non_box_queries(self):
        with pytest.raises(TypeError):
            STHoles().fit([Ball([0.5, 0.5], 0.2)], [0.2])

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            STHoles(max_buckets=0)


class TestDeterminism:
    def test_two_fits_are_bitwise_equal(self, power2d_box_workload):
        """Equal merge penalties merge in pre-order, not by memory address,
        so two fits of the same feedback build the same tree and weights."""
        train_q, train_s, _, _ = power2d_box_workload
        first = STHoles(max_buckets=50).fit(train_q, train_s)._state_dict()
        second = STHoles(max_buckets=50).fit(train_q, train_s)._state_dict()
        assert first.keys() == second.keys()
        for key, value in first.items():
            assert value.tobytes() == second[key].tobytes(), key

    def test_ordered_subtraction_matches_child_loop(self, power2d_box_workload):
        """The region subtraction over the pre-order parent rows is the
        per-child column loop, bit for bit."""
        train_q, train_s, test_q, _ = power2d_box_workload
        est = STHoles(max_buckets=200).fit(train_q, train_s)
        assert max(len(b.children) for b in est._root.walk()) > 1
        assert est._parents.max() > 0  # holes inside holes
        overlaps = est._columns(list(train_q) + list(test_q))
        expected = child_loop_fractions(est, overlaps)
        assert est._fractions_from_overlaps(overlaps).tobytes() == expected.tobytes()


class TestAccuracy:
    def test_weights_on_simplex(self, small_workload):
        queries, labels = small_workload
        est = STHoles(max_buckets=100).fit(queries, labels)
        assert np.all(est._weights >= -1e-12)
        assert np.sum(est._weights) == pytest.approx(1.0, abs=1e-8)

    def test_fits_training_feedback(self, small_workload):
        queries, labels = small_workload
        est = STHoles(max_buckets=150).fit(queries, labels)
        preds = est.predict_many(queries)
        assert np.sqrt(np.mean((preds - labels) ** 2)) < 0.05

    def test_beats_uniform_on_skewed_data(self, power2d_box_workload):
        train_q, train_s, test_q, test_s = power2d_box_workload
        st = STHoles(max_buckets=300).fit(train_q[:60], train_s[:60])
        uniform = UniformEstimator().fit(train_q[:60], train_s[:60])
        rms_st = np.sqrt(np.mean((st.predict_many(test_q) - test_s) ** 2))
        rms_uniform = np.sqrt(np.mean((uniform.predict_many(test_q) - test_s) ** 2))
        assert rms_st < rms_uniform / 3

    def test_tight_budget_degrades_gracefully(self, power2d_box_workload):
        """A heavily merged model stays a valid (coarse) estimator."""
        train_q, train_s, test_q, test_s = power2d_box_workload
        est = STHoles(max_buckets=8).fit(train_q[:40], train_s[:40])
        preds = est.predict_many(test_q)
        assert np.all(preds >= 0.0) and np.all(preds <= 1.0)
        rms = np.sqrt(np.mean((preds - test_s) ** 2))
        assert rms < 0.35  # coarse but not useless
