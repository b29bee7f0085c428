"""Hypothesis property tests on estimator invariants.

These go beyond example-based tests: for *arbitrary* small workloads the
learners must produce valid distributions (weights on the simplex, buckets
partitioning the domain) and predictions consistent with distribution
semantics (monotone in query growth, bounded by 0/1).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PtsHist, QuadHist
from repro.core.registry import estimator_factories, make_estimator
from repro.geometry import Ball, Box, Halfspace, unit_box


@st.composite
def box_workloads(draw):
    """A small arbitrary 2-D box workload with labels in [0, 1]."""
    n = draw(st.integers(3, 10))
    queries = []
    labels = []
    for _ in range(n):
        cx = draw(st.floats(0.05, 0.95, allow_nan=False))
        cy = draw(st.floats(0.05, 0.95, allow_nan=False))
        wx = draw(st.floats(0.05, 0.9, allow_nan=False))
        wy = draw(st.floats(0.05, 0.9, allow_nan=False))
        queries.append(Box.from_center([cx, cy], [wx, wy], clip_to=unit_box(2)))
        labels.append(draw(st.floats(0.0, 1.0, allow_nan=False)))
    return queries, labels


class TestQuadHistProperties:
    @settings(max_examples=25, deadline=None)
    @given(box_workloads())
    def test_leaves_always_partition_domain(self, workload):
        queries, labels = workload
        est = QuadHist(tau=0.05).fit(queries, labels)
        assert sum(b.volume() for b in est.leaf_boxes()) == pytest.approx(1.0)

    @settings(max_examples=25, deadline=None)
    @given(box_workloads())
    def test_weights_always_on_simplex(self, workload):
        queries, labels = workload
        est = QuadHist(tau=0.05).fit(queries, labels)
        weights = est.distribution.weights
        assert np.all(weights >= -1e-12)
        assert np.sum(weights) == pytest.approx(1.0, abs=1e-8)

    @settings(max_examples=15, deadline=None)
    @given(box_workloads())
    def test_monotone_under_query_growth(self, workload):
        queries, labels = workload
        est = QuadHist(tau=0.05).fit(queries, labels)
        inner = Box([0.3, 0.3], [0.6, 0.6])
        outer = Box([0.2, 0.2], [0.8, 0.8])
        assert est.predict(inner) <= est.predict(outer) + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(box_workloads())
    def test_domain_query_predicts_one(self, workload):
        queries, labels = workload
        est = QuadHist(tau=0.05).fit(queries, labels)
        assert est.predict(unit_box(2)) == pytest.approx(1.0, abs=1e-6)


class TestPtsHistProperties:
    @settings(max_examples=25, deadline=None)
    @given(box_workloads(), st.integers(10, 80))
    def test_support_size_and_simplex(self, workload, size):
        queries, labels = workload
        est = PtsHist(size=size, seed=0).fit(queries, labels)
        assert est.model_size == size
        weights = est.distribution.weights
        assert np.all(weights >= -1e-12)
        assert np.sum(weights) == pytest.approx(1.0, abs=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(box_workloads())
    def test_support_inside_domain(self, workload):
        queries, labels = workload
        est = PtsHist(size=60, seed=0).fit(queries, labels)
        assert np.all(unit_box(2).contains(est.distribution.points))

    @settings(max_examples=15, deadline=None)
    @given(box_workloads())
    def test_monotone_under_query_growth(self, workload):
        queries, labels = workload
        est = PtsHist(size=60, seed=0).fit(queries, labels)
        inner = Box([0.25, 0.25], [0.55, 0.55])
        outer = Box([0.1, 0.1], [0.9, 0.9])
        assert est.predict(inner) <= est.predict(outer) + 1e-9


class TestHistogramDistributionView:
    """A histogram learner's ``distribution`` views the bucket arrays and
    weights it predicts with, so it answers the same selectivities.  The
    two paths sum in a different order (dense matrix product versus the
    sparse kernel), hence a tolerance rather than bitwise equality."""

    @pytest.mark.parametrize(
        "name, overrides",
        [
            ("quadhist", {}),
            ("kdhist", {}),
            ("isomer", {}),
            ("arrangement", {"mode": "histogram"}),
        ],
        ids=["quadhist", "kdhist", "isomer", "arrangement-histogram"],
    )
    @settings(max_examples=10, deadline=None)
    @given(box_workloads())
    def test_distribution_matches_predictions(self, name, overrides, workload):
        queries, labels = workload
        est = make_estimator(name, train_size=len(queries), **overrides)
        est.fit(queries, labels)
        probes = [
            Box([0.3, 0.3], [0.6, 0.6]),
            Box([0.01, 0.2], [0.99, 0.7]),
            unit_box(2),
            Ball([0.4, 0.5], 0.25),
            Halfspace([1.0, -0.5], 0.3),
            *queries,
        ]
        np.testing.assert_allclose(
            est.distribution.selectivity_many(probes),
            est.predict_many(probes),
            rtol=0.0,
            atol=1e-12,
        )


class TestRegistryWidePredictionBounds:
    """Every registered estimator returns a selectivity in [0, 1] for any
    workload — the base-class clamp makes this an unconditional invariant,
    and registration alone is enough to be covered here."""

    @pytest.mark.parametrize("name", sorted(estimator_factories()))
    @settings(max_examples=5, deadline=None)
    @given(box_workloads())
    def test_predictions_always_in_unit_interval(self, name, workload):
        queries, labels = workload
        est = estimator_factories()[name](len(queries))
        est.fit(queries, labels)
        probes = [
            Box([0.3, 0.3], [0.6, 0.6]),
            Box([0.01, 0.01], [0.99, 0.99]),
            Box([0.5, 0.5], [0.500001, 0.500001]),
            unit_box(2),
            *queries[:3],
        ]
        for probe in probes:
            prediction = est.predict(probe)
            assert np.isfinite(prediction)
            assert 0.0 <= prediction <= 1.0
