"""Spatial bucket-index invariants (repro.geometry.index).

The index is a *pruning* structure: its only correctness obligation is that
``candidates_for_boxes`` returns a **superset** of the truly intersecting
buckets (false positives are fine — the exact kernels zero them out; false
negatives would silently drop probability mass).  Both implementations
(uniform grid, packed R-tree) must satisfy the same contract, including on
degenerate inputs: point buckets and empty candidate sets.
"""

import numpy as np
import pytest

from repro.geometry.index import (
    PackedRTreeIndex,
    UniformGridIndex,
    build_bucket_index,
)


def _random_buckets(rng, m, d):
    lows = rng.uniform(0, 0.9, size=(m, d))
    widths = rng.uniform(0.01, 0.1, size=(m, d))
    return lows, np.minimum(lows + widths, 1.0)


def _random_queries(rng, n, d, extent=0.2):
    lows = rng.uniform(0, 1 - extent, size=(n, d))
    widths = rng.uniform(0.01, extent, size=(n, d))
    return lows, np.minimum(lows + widths, 1.0)


def _true_pairs(q_lows, q_highs, b_lows, b_highs):
    """Boolean (n, m) closed-box intersection oracle."""
    return np.all(
        (q_lows[:, None, :] <= b_highs[None, :, :])
        & (q_highs[:, None, :] >= b_lows[None, :, :]),
        axis=2,
    )


INDEX_CLASSES = [UniformGridIndex, PackedRTreeIndex]


@pytest.mark.parametrize("cls", INDEX_CLASSES)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_candidates_are_a_superset(cls, d):
    rng = np.random.default_rng(7 * d)
    b_lows, b_highs = _random_buckets(rng, 200, d)
    q_lows, q_highs = _random_queries(rng, 50, d)
    index = cls(b_lows, b_highs)
    indptr, ids = index.candidates_for_boxes(q_lows, q_highs)
    truth = _true_pairs(q_lows, q_highs, b_lows, b_highs)
    for i in range(q_lows.shape[0]):
        got = set(ids[indptr[i] : indptr[i + 1]].tolist())
        need = set(np.nonzero(truth[i])[0].tolist())
        assert need <= got, f"query {i} lost buckets {need - got}"


@pytest.mark.parametrize("cls", INDEX_CLASSES)
def test_candidate_ids_sorted_and_unique(cls):
    rng = np.random.default_rng(3)
    b_lows, b_highs = _random_buckets(rng, 150, 2)
    q_lows, q_highs = _random_queries(rng, 30, 2)
    index = cls(b_lows, b_highs)
    indptr, ids = index.candidates_for_boxes(q_lows, q_highs)
    for i in range(q_lows.shape[0]):
        chunk = ids[indptr[i] : indptr[i + 1]]
        assert np.all(np.diff(chunk) > 0), "ids must be strictly ascending"


@pytest.mark.parametrize("cls", INDEX_CLASSES)
def test_point_buckets_supported(cls):
    # Point-support models (PtsHist, discrete ERM) index zero-extent boxes.
    rng = np.random.default_rng(11)
    points = rng.uniform(0, 1, size=(300, 2))
    index = cls(points, points)
    q_lows = np.array([[0.2, 0.2]])
    q_highs = np.array([[0.6, 0.6]])
    indptr, ids = index.candidates_for_boxes(q_lows, q_highs)
    inside = np.all((points >= q_lows[0]) & (points <= q_highs[0]), axis=1)
    assert set(np.nonzero(inside)[0].tolist()) <= set(ids.tolist())


@pytest.mark.parametrize("cls", INDEX_CLASSES)
def test_extreme_point_bucket_is_never_lost(cls):
    # Regression: a zero-extent bucket at the grid's max corner floors
    # past the last cell (f0 == res) and was dropped as "outside".
    points = np.array([[0.1, 0.2], [0.5, 0.5], [0.97, 0.67], [0.3, 0.97]])
    index = cls(points, points)
    indptr, ids = index.candidates_for_boxes(
        np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]])
    )
    assert set(ids.tolist()) == {0, 1, 2, 3}


@pytest.mark.parametrize("cls", INDEX_CLASSES)
def test_disjoint_query_yields_empty_candidates(cls):
    rng = np.random.default_rng(5)
    b_lows, b_highs = _random_buckets(rng, 100, 2)
    b_lows = b_lows * 0.4  # buckets confined to [0, 0.5)^2
    b_highs = b_highs * 0.4 + 0.05
    index = cls(b_lows, b_highs)
    indptr, ids = index.candidates_for_boxes(
        np.array([[0.8, 0.8]]), np.array([[0.95, 0.95]])
    )
    assert indptr[-1] == 0 and ids.size == 0


@pytest.mark.parametrize("cls", INDEX_CLASSES)
def test_lookup_estimate_scales_with_query_extent(cls):
    # The sparse/dense rule reads this estimate before any lookup: a
    # whole-domain box must estimate at least every bucket, a disjoint or
    # tiny box far fewer.
    rng = np.random.default_rng(9)
    b_lows, b_highs = _random_buckets(rng, 400, 2)
    index = cls(b_lows, b_highs)
    q_lows = np.array([[0.0, 0.0], [0.5, 0.5], [3.0, 3.0]])
    q_highs = np.array([[1.0, 1.0], [0.51, 0.51], [4.0, 4.0]])
    visits, entries = index.lookup_estimate(q_lows, q_highs)
    assert entries[0] >= index.m
    assert entries[1] < entries[0] / 4 and visits[1] < visits[0]
    assert visits[2] == 0 and entries[2] == 0


def test_build_selects_grid_for_uniform_buckets():
    rng = np.random.default_rng(1)
    b_lows, b_highs = _random_buckets(rng, 256, 2)
    index = build_bucket_index(b_lows, b_highs)
    assert isinstance(index, UniformGridIndex)
    assert index.kind == "grid"


def test_build_falls_back_to_rtree_on_skew():
    # A few domain-spanning buckets explode grid occupancy (each incident
    # to every cell), which must trip the packed R-tree fallback.
    rng = np.random.default_rng(2)
    b_lows, b_highs = _random_buckets(rng, 256, 2)
    b_lows[:16] = 0.0
    b_highs[:16] = 1.0
    index = build_bucket_index(b_lows, b_highs)
    assert isinstance(index, PackedRTreeIndex)
    assert index.kind == "rtree"


def test_halfspace_candidates_superset():
    rng = np.random.default_rng(13)
    b_lows, b_highs = _random_buckets(rng, 150, 2)
    index = build_bucket_index(b_lows, b_highs)
    normals = rng.normal(size=(20, 2))
    offsets = rng.uniform(-0.5, 1.2, size=20)
    keep = index.halfspace_candidates(normals, offsets)
    # Oracle: a bucket meets {a.x >= b} iff its best corner does.
    centers = 0.5 * (b_lows + b_highs)
    half = 0.5 * (b_highs - b_lows)
    support = normals @ centers.T + np.abs(normals) @ half.T
    truly = support >= offsets[:, None]
    assert np.all(keep[truly]), "halfspace prune dropped an intersecting bucket"


def test_index_rejects_bad_shapes():
    with pytest.raises(ValueError):
        build_bucket_index(np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(ValueError):
        build_bucket_index(np.zeros((3, 2)), np.zeros((3, 3)))
