"""Registry-wide property: sparse and dense predict paths agree.

Every estimator that threads the spatial bucket index through
``predict_many`` must produce the same predictions (to ``<= 1e-12``) with
the index attached and with it stripped (pure dense kernels).  The test
runs registry-wide so a newly added estimator is covered automatically;
estimators without an index compare dense-to-dense and pass trivially.

PtsHist and the discrete arrangement ERM exercise the zero-volume-bucket
edge case for free: their support is a point set, i.e. every "bucket" has
zero extent.  Queries placed outside the data region exercise the
empty-candidate-set path.  Fits build their design matrices dense, so
they route no row through the index.
"""

import numpy as np
import pytest

from repro.core.registry import estimator_factories
from repro.geometry import sparse as sparse_mod
from repro.geometry.ranges import Ball, Box, Halfspace
from repro.observability import default_registry

TOL = 1e-12
N_TRAIN = 60


@pytest.fixture(autouse=True)
def force_sparse(monkeypatch):
    """Small test models would run dense under the cost rule without this."""
    monkeypatch.setattr(
        sparse_mod, "_sparse_rows", lambda n, dense_ns, sparse_ns: np.ones(n, dtype=bool)
    )


def _box_training(rng, n=N_TRAIN, d=2):
    queries, labels = [], []
    for _ in range(n):
        lo = rng.uniform(0, 0.7, size=d)
        hi = lo + rng.uniform(0.05, 0.3, size=d)
        queries.append(Box(lo, np.minimum(hi, 1.0)))
        labels.append(float(np.prod(np.minimum(hi, 1.0) - lo)))
    return queries, labels


def _mixed_predict_queries(rng, d=2):
    queries = [
        Box([0.92, 0.92], [0.99, 0.99]),  # empty-candidate-set corner
        Ball([0.95, 0.95], 0.03),
    ]
    for i in range(18):
        kind = i % 3
        if kind == 0:
            lo = rng.uniform(0, 0.7, size=d)
            queries.append(Box(lo, np.minimum(lo + rng.uniform(0.05, 0.4, size=d), 1.0)))
        elif kind == 1:
            queries.append(Halfspace(rng.normal(size=d), float(rng.uniform(-0.2, 0.8))))
        else:
            queries.append(Ball(rng.uniform(0.2, 0.8, size=d), float(rng.uniform(0.05, 0.3))))
    return queries


def _strip_indexes(est) -> bool:
    """Null out every attached bucket index; return True if any was found."""
    stripped = False
    for obj in (est, getattr(est, "_distribution", None), getattr(est, "_discrete", None)):
        if obj is not None and getattr(obj, "_index", None) is not None:
            obj._index = None
            stripped = True
    return stripped


@pytest.mark.parametrize("name", sorted(estimator_factories()))
def test_sparse_and_dense_predictions_agree(name):
    factory = estimator_factories()[name]
    rng = np.random.default_rng(42)
    queries, labels = _box_training(rng)
    est = factory(N_TRAIN)
    est.fit(queries, labels)
    predict_queries = _mixed_predict_queries(rng)
    with_index = np.asarray(est.predict_many(predict_queries), dtype=float)
    _strip_indexes(est)
    dense = np.asarray(est.predict_many(predict_queries), dtype=float)
    diff = np.max(np.abs(with_index - dense))
    assert diff <= TOL, f"{name}: sparse/dense predictions differ by {diff:.3e}"


@pytest.mark.parametrize("name", ["quadhist", "kdhist", "ptshist", "isomer", "quicksel"])
def test_indexed_estimators_actually_carry_an_index(name):
    # Guards against the equivalence test passing vacuously because a fit
    # path silently stopped building its index.
    factory = estimator_factories()[name]
    rng = np.random.default_rng(7)
    queries, labels = _box_training(rng)
    est = factory(N_TRAIN)
    est.fit(queries, labels)
    assert _strip_indexes(est), f"{name} no longer builds a bucket index at fit time"


@pytest.mark.parametrize("name", sorted(estimator_factories()))
def test_fits_route_no_row_through_the_index(name):
    """Design matrices are built by the dense kernels: a fit or an update
    leaves ``repro_sparse_calls_total`` where it was, even with every
    routed row forced sparse, so the counter reads prediction rows only."""
    rng = np.random.default_rng(11)
    queries, labels = _box_training(rng)
    more, more_labels = _box_training(rng, n=20)
    est = estimator_factories()[name](N_TRAIN)
    calls = default_registry().get("repro_sparse_calls_total")
    before = calls.series()
    est.fit(queries, labels)
    if hasattr(est, "partial_fit"):
        est.partial_fit(more, more_labels)
    assert calls.series() == before
