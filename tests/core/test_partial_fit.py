"""QuadHist.partial_fit — incremental feedback absorption."""

import numpy as np
import pytest

from repro.core import QuadHist


class TestPartialFit:
    def test_unfitted_partial_fit_equals_fit(self, power2d_box_workload):
        train_q, train_s, test_q, _ = power2d_box_workload
        a = QuadHist(tau=0.02)
        a.partial_fit(train_q, train_s)
        b = QuadHist(tau=0.02).fit(train_q, train_s)
        np.testing.assert_array_equal(a.predict_many(test_q), b.predict_many(test_q))

    def test_incremental_equals_batch(self, power2d_box_workload):
        """Lemma A.4 in action: feeding feedback in two batches yields the
        same model as one batch (no leaf cap)."""
        train_q, train_s, test_q, _ = power2d_box_workload
        half = len(train_q) // 2
        incremental = QuadHist(tau=0.02).fit(train_q[:half], train_s[:half])
        incremental.partial_fit(train_q[half:], train_s[half:])
        batch = QuadHist(tau=0.02).fit(train_q, train_s)
        np.testing.assert_allclose(
            incremental.predict_many(test_q), batch.predict_many(test_q), atol=1e-9
        )
        assert incremental.model_size == batch.model_size

    def test_capped_incremental_equals_batch(self, power2d_box_workload):
        """Under a binding ``max_leaves`` cap too: a batch's splits rank
        after every earlier query's in the cap's order, so the update keeps
        the splits a fit on the union keeps."""
        train_q, train_s, test_q, _ = power2d_box_workload
        half = len(train_q) // 2
        incremental = QuadHist(tau=0.01, max_leaves=850).fit(train_q[:half], train_s[:half])
        assert incremental.model_size < 850  # the first half leaves room
        incremental.partial_fit(train_q[half:], train_s[half:])
        batch = QuadHist(tau=0.01, max_leaves=850).fit(train_q, train_s)
        assert QuadHist(tau=0.01).fit(train_q, train_s).model_size > 850  # binding
        np.testing.assert_array_equal(incremental._leaf_lows, batch._leaf_lows)
        np.testing.assert_array_equal(incremental._leaf_highs, batch._leaf_highs)
        np.testing.assert_allclose(
            incremental.predict_many(test_q), batch.predict_many(test_q), atol=1e-9
        )

    def test_returns_self(self, power2d_box_workload):
        train_q, train_s, _, _ = power2d_box_workload
        est = QuadHist(tau=0.05)
        assert est.partial_fit(train_q[:10], train_s[:10]) is est

    def test_error_improves_with_more_feedback(self, power2d_box_workload):
        train_q, train_s, test_q, test_s = power2d_box_workload
        est = QuadHist(tau=0.005)
        est.partial_fit(train_q[:20], train_s[:20])
        early = np.sqrt(np.mean((est.predict_many(test_q) - test_s) ** 2))
        est.partial_fit(train_q[20:], train_s[20:])
        late = np.sqrt(np.mean((est.predict_many(test_q) - test_s) ** 2))
        assert late <= early

    def test_dimension_mismatch_rejected(self, power2d_box_workload):
        from repro.geometry import Box

        train_q, train_s, _, _ = power2d_box_workload
        est = QuadHist(tau=0.05).fit(train_q, train_s)
        with pytest.raises(ValueError):
            est.partial_fit([Box([0.0], [0.5])], [0.2])

    def test_many_small_batches(self, power2d_box_workload):
        train_q, train_s, test_q, _ = power2d_box_workload
        est = QuadHist(tau=0.02)
        for i in range(0, len(train_q), 10):
            est.partial_fit(train_q[i : i + 10], train_s[i : i + 10])
        batch = QuadHist(tau=0.02).fit(train_q, train_s)
        np.testing.assert_allclose(
            est.predict_many(test_q), batch.predict_many(test_q), atol=1e-9
        )
