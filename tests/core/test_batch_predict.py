"""``predict_many`` is the scalar ``predict`` loop, only faster.

The batch prediction path (``_predict_batch`` + the base-class
``predict_many`` wrapper) must be observationally equivalent to calling
``predict`` once per query — for every registered estimator, every query
class, and the base class's NaN/clamp semantics.

The histogram and kernel learners (QuadHist, KdHist, ISOMER, QuickSel,
STHoles and the arrangement ERM's histogram mode) have one prediction
path: ``predict`` is a one-query batch.  Their ``predict`` and
``predict_many`` are checked against the single-pair oracle of
``tests/core/predict_oracle.py`` instead of against each other.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings

from repro.baselines.stholes import STHoles
from repro.core.arrangement_erm import ArrangementERM
from repro.core.estimator import SelectivityEstimator
from repro.core import quadhist
from repro.core.quadhist import QuadHist
from repro.core.registry import estimator_factories, make_estimator
from repro.geometry import Ball, Box, Halfspace

from tests.core.predict_oracle import raw_predictions
from tests.core.test_estimator_properties import box_workloads

ATOL = 1e-12

#: Learners whose ``predict`` runs ``_predict_batch``; the rest keep a
#: scalar hook and are checked against their ``predict`` loop.
ONE_PATH = {"arrangement-histogram", "isomer", "kdhist", "quadhist", "quicksel", "stholes"}

_TRAIN_RNG = np.random.default_rng(2022)
TRAIN_QUERIES = [
    Box(lo, lo + w)
    for lo, w in zip(
        _TRAIN_RNG.random((24, 2)) * 0.6, 0.05 + _TRAIN_RNG.random((24, 2)) * 0.35
    )
]
TRAIN_LABELS = [q.volume() for q in TRAIN_QUERIES]  # uniform-consistent

BOX_PROBES = [
    Box([0.2, 0.3], [0.6, 0.8]),
    Box([0.0, 0.0], [1.0, 1.0]),  # full domain
    Box([0.45, 0.1], [0.45, 0.9]),  # zero-width
    Box([0.8, 0.8], [0.99, 0.99]),
    Box([0.0, 0.4], [0.3, 0.5]),
]
HALFSPACE_PROBES = [
    Halfspace([1.0, 0.0], 0.5),
    Halfspace([-0.3, 1.0], 0.4),
    Halfspace([1.0, 1.0], 1.6),
]
BALL_PROBES = [
    Ball([0.5, 0.5], 0.3),
    Ball([0.1, 0.9], 0.15),
]
MIXED_PROBES = BOX_PROBES + HALFSPACE_PROBES + BALL_PROBES


def _extra_estimators():
    return {
        "stholes": lambda: STHoles(max_buckets=200),
        "arrangement-histogram": lambda: ArrangementERM(mode="histogram"),
        "arrangement-discrete": lambda: ArrangementERM(
            mode="discrete", samples=512, seed=3
        ),
    }


@pytest.fixture(scope="module")
def fitted():
    """Every registered estimator plus the non-registry ones, fitted once."""
    estimators = {}
    for name in sorted(estimator_factories()):
        estimators[name] = make_estimator(name, train_size=len(TRAIN_QUERIES))
    for name, factory in _extra_estimators().items():
        estimators[name] = factory()
    for est in estimators.values():
        est.fit(TRAIN_QUERIES, TRAIN_LABELS)
    return estimators


ALL_NAMES = sorted(estimator_factories()) + sorted(_extra_estimators())


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize(
        "probes",
        [BOX_PROBES, HALFSPACE_PROBES, BALL_PROBES, MIXED_PROBES],
        ids=["boxes", "halfspaces", "balls", "mixed"],
    )
    def test_predict_many_matches_scalar_loop(self, fitted, name, probes):
        est = fitted[name]
        scalar = np.array([est.predict(q) for q in probes])
        got = est.predict_many(probes)
        assert got.shape == (len(probes),)
        if name in ONE_PATH:
            expected = np.clip(raw_predictions(est, probes), 0.0, 1.0)
            np.testing.assert_allclose(scalar, expected, atol=ATOL, rtol=0)
        else:
            expected = scalar
        np.testing.assert_allclose(got, expected, atol=ATOL, rtol=0)
        assert np.all((got >= 0.0) & (got <= 1.0))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_empty_workload(self, fitted, name):
        result = fitted[name].predict_many([])
        assert result.shape == (0,)

    @settings(max_examples=25, deadline=None)
    @given(workload=box_workloads())
    def test_quadhist_property(self, workload):
        queries, labels = workload
        est = QuadHist(tau=0.05).fit(queries, labels)
        expected = np.clip(raw_predictions(est, queries), 0.0, 1.0)
        scalar = np.array([est.predict(q) for q in queries])
        np.testing.assert_allclose(scalar, expected, atol=ATOL, rtol=0)
        np.testing.assert_allclose(
            est.predict_many(queries), expected, atol=ATOL, rtol=0
        )


@pytest.mark.parametrize(
    "name", ["arrangement-histogram", "isomer", "kdhist", "quadhist", "quicksel"]
)
def test_bucket_histograms_resolve_kernels_in_quadhist(fitted, name, monkeypatch):
    """The bucket-model learners look both coverage kernels up in
    ``repro.core.quadhist`` at call time, for ``predict`` as for
    ``predict_many``: the end-to-end tracer times them there."""
    calls = []
    for kernel in ("sparse_coverage_dot", "coverage_dot"):
        original = getattr(quadhist, kernel)
        monkeypatch.setattr(
            quadhist, kernel, lambda *a, _k=kernel, _f=original: calls.append(_k) or _f(*a)
        )
    est = fitted[name]
    est.predict(BOX_PROBES[0])
    est.predict_many(BOX_PROBES)
    dense = copy.copy(est)
    dense._index = None  # stripped: the dense kernel
    dense.predict(BOX_PROBES[0])
    assert calls == ["sparse_coverage_dot", "sparse_coverage_dot", "coverage_dot"]


class _ScriptedEstimator(SelectivityEstimator):
    """Replays a fixed raw-output script through both prediction paths."""

    def __init__(self, raw, batch_shape=None):
        super().__init__()
        self._raw = [float(v) for v in raw]
        self._batch_shape = batch_shape
        self._cursor = 0

    def _fit(self, training):
        pass

    def _predict_one(self, query):
        value = self._raw[self._cursor % len(self._raw)]
        self._cursor += 1
        return value

    def _predict_batch(self, queries):
        if self._batch_shape is not None:
            return np.zeros(self._batch_shape)
        return np.array([self._raw[i % len(self._raw)] for i in range(len(queries))])

    @property
    def model_size(self):
        return 1


class TestBaseClassSemantics:
    RAW = [np.nan, np.inf, -np.inf, -0.25, 1.75, 0.3]
    EXPECTED = [0.5, 0.5, 0.5, 0.0, 1.0, 0.3]

    def _fitted(self, **kwargs):
        est = _ScriptedEstimator(self.RAW, **kwargs)
        return est.fit([Box([0.0, 0.0], [1.0, 1.0])], [0.5])

    def test_non_finite_maps_to_half_and_finite_clamps(self):
        est = self._fitted()
        got = est.predict_many(BOX_PROBES + [BOX_PROBES[0]])  # 6 probes
        np.testing.assert_array_equal(got, self.EXPECTED)

    def test_scalar_loop_applies_identical_semantics(self):
        est = self._fitted()
        scalar = [est.predict(BOX_PROBES[0]) for _ in self.RAW]
        assert scalar == self.EXPECTED

    def test_wrong_batch_shape_raises(self):
        est = self._fitted(batch_shape=(2,))
        with pytest.raises(ValueError, match="shape"):
            est.predict_many(BOX_PROBES)
