"""Sparse prediction kernels agree with the dense oracle (repro.geometry.sparse).

The dense path of :mod:`repro.geometry.batch` is the correctness oracle.
Sparse and dense run the same kernel per pair, so the pair values the
sparse path evaluates (laid out by ``tests/geometry/sparse_oracle.py``)
must be bitwise the dense matrix entries, pruned pairs exact zeros, on
mixed box/halfspace/ball workloads, and fused dots equal to ``<= 1e-12``
(summation order).  Halfspace rows always run dense.  The edge cases the
index can manufacture are covered: zero-volume buckets, queries with
empty candidate sets, and both index implementations.  The cost rule is
patched so every routed row takes the sparse path even at test-sized
bucket counts.
"""

import numpy as np
import pytest

from repro.geometry import sparse as sparse_mod
from repro.geometry.batch import (
    containment_matrix,
    coverage_dot,
    coverage_matrix,
    fractions,
    intersection_volume_matrix,
)
from repro.geometry.index import PackedRTreeIndex, UniformGridIndex
from repro.geometry.ranges import Ball, Box, Halfspace
from repro.geometry.sparse import sparse_containment_dot, sparse_coverage_dot
from tests.geometry.sparse_oracle import sparse_pairs

TOL = 1e-12


@pytest.fixture(autouse=True)
def force_sparse(monkeypatch):
    """Send every routed row to the sparse path regardless of its cost."""
    monkeypatch.setattr(
        sparse_mod, "_sparse_rows", lambda n, dense_ns, sparse_ns: np.ones(n, dtype=bool)
    )


def _buckets(rng, m=120, d=2):
    lows = rng.uniform(0, 0.9, size=(m, d))
    widths = rng.uniform(0.02, 0.12, size=(m, d))
    highs = np.minimum(lows + widths, 1.0)
    return lows, highs


def _routed(queries):
    """Workload positions of the rows the router can send sparse."""
    return [i for i, q in enumerate(queries) if not isinstance(q, Halfspace)]


def _mixed_queries(rng, n=40, d=2):
    queries = []
    for i in range(n):
        kind = i % 3
        if kind == 0:
            lo = rng.uniform(0, 0.7, size=d)
            queries.append(Box(lo, lo + rng.uniform(0.05, 0.3, size=d)))
        elif kind == 1:
            queries.append(
                Halfspace(rng.normal(size=d), float(rng.uniform(-0.2, 0.8)))
            )
        else:
            queries.append(
                Ball(rng.uniform(0.2, 0.8, size=d), float(rng.uniform(0.05, 0.3)))
            )
    return queries


@pytest.mark.parametrize("cls", [UniformGridIndex, PackedRTreeIndex])
def test_intersection_volumes_match_dense(cls):
    rng = np.random.default_rng(0)
    b_lows, b_highs = _buckets(rng)
    queries = _mixed_queries(rng)
    index = cls(b_lows, b_highs)
    dense = intersection_volume_matrix(queries, b_lows, b_highs)
    rows, got = sparse_pairs(queries, index)
    assert np.array_equal(rows, _routed(queries))
    assert np.array_equal(got, dense[rows])


@pytest.mark.parametrize("cls", [UniformGridIndex, PackedRTreeIndex])
@pytest.mark.parametrize("d", [1, 3])
def test_intersection_volumes_bitwise_in_other_dims(cls, d):
    rng = np.random.default_rng(10 + d)
    b_lows, b_highs = _buckets(rng, d=d)
    queries = _mixed_queries(rng, d=d)
    index = cls(b_lows, b_highs)
    dense = intersection_volume_matrix(queries, b_lows, b_highs)
    rows, got = sparse_pairs(queries, index)
    assert np.array_equal(rows, _routed(queries))
    assert np.array_equal(got, dense[rows])


@pytest.mark.parametrize("cls", [UniformGridIndex, PackedRTreeIndex])
def test_coverage_matrix_matches_dense(cls):
    rng = np.random.default_rng(1)
    b_lows, b_highs = _buckets(rng)
    b_volumes = np.prod(b_highs - b_lows, axis=1)
    queries = _mixed_queries(rng)
    index = cls(b_lows, b_highs)
    dense = coverage_matrix(queries, b_lows, b_highs, b_volumes)
    rows, got = sparse_pairs(queries, index, b_volumes)
    assert np.array_equal(fractions(got, b_volumes), dense[rows])


@pytest.mark.parametrize("cls", [UniformGridIndex, PackedRTreeIndex])
def test_coverage_dot_matches_dense(cls):
    rng = np.random.default_rng(2)
    b_lows, b_highs = _buckets(rng)
    b_volumes = np.prod(b_highs - b_lows, axis=1)
    weights = rng.dirichlet(np.ones(b_lows.shape[0]))
    queries = _mixed_queries(rng)
    index = cls(b_lows, b_highs)
    dense = coverage_dot(queries, b_lows, b_highs, b_volumes, weights)
    got = sparse_coverage_dot(queries, index, b_volumes, weights)
    assert np.max(np.abs(got - dense)) <= TOL


def test_zero_volume_buckets_contribute_zero():
    # Degenerate (point) buckets have Vol(B) = 0: coverage is defined as 0
    # in both paths, never NaN/inf.
    rng = np.random.default_rng(4)
    b_lows, b_highs = _buckets(rng, m=60)
    b_lows[:10] = b_highs[:10]  # ten zero-volume buckets
    b_volumes = np.prod(b_highs - b_lows, axis=1)
    weights = rng.dirichlet(np.ones(60))
    queries = _mixed_queries(rng, n=24)
    index = UniformGridIndex(b_lows, b_highs)
    dense = coverage_matrix(queries, b_lows, b_highs, b_volumes)
    rows, overlaps = sparse_pairs(queries, index, b_volumes)
    got = fractions(overlaps, b_volumes)
    assert np.isfinite(got).all()
    assert np.array_equal(got, dense[rows])
    assert np.all(got[:, :10] == 0.0)
    dot = sparse_coverage_dot(queries, index, b_volumes, weights)
    assert np.max(np.abs(dot - dense @ weights)) <= TOL


def test_empty_candidate_sets_give_zero_rows():
    # Queries disjoint from every bucket must produce exactly-zero rows.
    rng = np.random.default_rng(5)
    b_lows, b_highs = _buckets(rng, m=80)
    b_lows *= 0.45
    b_highs = b_lows + 0.02  # confined to the lower-left corner
    index = UniformGridIndex(b_lows, b_highs)
    queries = [Box([0.9, 0.9], [0.99, 0.99]), Ball([0.95, 0.95], 0.02)]
    rows, got = sparse_pairs(queries, index)
    assert np.array_equal(rows, [0, 1])
    assert np.all(got == 0.0)
    dot = sparse_coverage_dot(queries, index, None, np.ones(80) / 80)
    assert np.all(dot == 0.0)


@pytest.mark.parametrize("cls", [UniformGridIndex, PackedRTreeIndex])
def test_containment_matches_dense(cls):
    rng = np.random.default_rng(6)
    points = rng.uniform(0, 1, size=(200, 2))
    weights = rng.dirichlet(np.ones(200))
    queries = _mixed_queries(rng, n=30)
    index = cls(points, points)
    dense = containment_matrix(queries, points)
    rows, got = sparse_pairs(queries, index, contains=True)
    assert np.array_equal(rows, _routed(queries))
    assert np.array_equal(got, dense[rows])
    dot = sparse_containment_dot(queries, index, weights)
    assert np.max(np.abs(dot - dense @ weights)) <= TOL


_WRONG_DIMENSION = {
    "box-1d": Box([0.1], [0.5]),
    "box-3d": Box([0.1] * 3, [0.5] * 3),
    "halfspace-3d": Halfspace([1.0, 0.0, 0.0], 0.5),
    "ball-3d": Ball([0.5] * 3, 0.2),
}


@pytest.mark.parametrize("query", _WRONG_DIMENSION.values(), ids=_WRONG_DIMENSION.keys())
def test_dimension_mismatch_raises_on_every_path(query):
    """A query of another dimension than the buckets is a ValueError on the
    dense and the sparse path, never a broadcast answer or an IndexError."""
    rng = np.random.default_rng(7)
    lows, highs = _buckets(rng, m=40)
    index = UniformGridIndex(lows, highs)
    weights = np.ones(40) / 40
    calls = [
        lambda: intersection_volume_matrix([query], lows, highs),
        lambda: coverage_dot([query], lows, highs, None, weights),
        lambda: containment_matrix([query], lows),
        lambda: sparse_coverage_dot([query], index, None, weights),
        lambda: sparse_containment_dot([query], index, weights),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="dimension"):
            call()


@pytest.mark.parametrize(
    "queries",
    [
        [Box([0.1], [0.5]), Box([0.1] * 3, [0.5] * 3)],
        [Ball([0.5], 0.1), Ball([0.5] * 3, 0.1)],
    ],
    ids=["boxes", "balls"],
)
def test_one_family_of_mixed_dimensions_raises(queries):
    """A 1-D and a 3-D row concatenate to two 2-D rows; they must not be
    read as such."""
    rng = np.random.default_rng(8)
    lows, highs = _buckets(rng, m=40)
    with pytest.raises(ValueError, match="differ in dimension"):
        coverage_dot(queries, lows, highs, None, np.ones(40) / 40)
