"""Batch volume-matrix kernels agree with the single-pair oracle.

Every matrix entry must reproduce the single-pair functions of
:mod:`repro.geometry.volume` (an implementation independent of the
kernels) to floating-point noise, for every query class, under any
chunking configuration.
"""

import numpy as np
import pytest

import repro.geometry.batch as batch
from repro.geometry import Ball, Box, Halfspace, unit_box
from repro.geometry.batch import (
    boxes_to_arrays,
    containment_matrix,
    coverage_dot,
    coverage_matrix,
    fractions,
    intersection_volume_matrix,
)
from repro.geometry.index import UniformGridIndex
from repro.geometry.volume import (
    box_halfspace_intersection_volume,
    intersection_volume,
)
from tests.geometry.sparse_oracle import sparse_pairs


def _random_buckets(rng, m, d):
    lows = rng.random((m, d)) * 0.85
    highs = lows + rng.random((m, d)) * 0.15 + 1e-3
    return lows, highs


def _assert_rows_match(queries, b_lows, b_highs, matrix, atol=1e-12):
    for i, query in enumerate(queries):
        expected = [intersection_volume(Box(lo, hi), query) for lo, hi in zip(b_lows, b_highs)]
        np.testing.assert_allclose(matrix[i], expected, atol=atol, rtol=0)


class TestBoxKernel:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_scalar_rows(self, rng, d):
        b_lows, b_highs = _random_buckets(rng, 40, d)
        queries = [
            Box(lo, lo + w)
            for lo, w in zip(rng.random((25, d)) * 0.7, rng.random((25, d)) * 0.3)
        ]
        matrix = intersection_volume_matrix(queries, b_lows, b_highs)
        _assert_rows_match(queries, b_lows, b_highs, matrix, atol=0)

    def test_disjoint_pairs_are_zero(self):
        b_lows, b_highs = boxes_to_arrays([Box([0.0, 0.0], [0.2, 0.2])])
        matrix = intersection_volume_matrix([Box([0.5, 0.5], [0.9, 0.9])], b_lows, b_highs)
        assert matrix[0, 0] == 0.0


class TestHalfspaceKernel:
    def test_matches_scalar_rows(self, rng):
        b_lows, b_highs = _random_buckets(rng, 30, 2)
        queries = [
            Halfspace(normal, float(rng.normal()))
            for normal in rng.normal(size=(20, 2))
        ]
        matrix = intersection_volume_matrix(queries, b_lows, b_highs)
        _assert_rows_match(queries, b_lows, b_highs, matrix)

    def test_axis_aligned_zero_components(self, rng):
        """Mixed active patterns: the per-pattern grouping must stitch the
        rows back into workload order."""
        b_lows, b_highs = _random_buckets(rng, 25, 3)
        queries = [
            Halfspace([1.0, 0.0, 0.0], 0.5),
            Halfspace([0.0, -1.0, 0.0], -0.4),
            Halfspace([1.0, 1.0, 1.0], 1.2),
            Halfspace([1.0, 0.0, 0.0], 5.0),  # all-space: every box fully in
            Halfspace([0.5, 0.0, -0.5], 0.1),
        ]
        matrix = intersection_volume_matrix(queries, b_lows, b_highs)
        _assert_rows_match(queries, b_lows, b_highs, matrix)

    def test_tiny_normal_component_is_well_conditioned(self):
        """A near-zero (but non-zero) component must not blow up the 2-D
        closed form: the halfspace and its complement partition the box."""
        dom = unit_box(2)
        half = Halfspace([5.3e-11, -1.0], 0.0)
        flipped = Halfspace([-5.3e-11, 1.0], 0.0)
        pos = box_halfspace_intersection_volume(dom, half)
        neg = box_halfspace_intersection_volume(dom, flipped)
        assert pos + neg == pytest.approx(1.0, abs=1e-12)
        # Batch kernels agree with the scalar kernel bitwise.
        b_lows, b_highs = boxes_to_arrays([dom])
        for query in (half, flipped):
            scalar = box_halfspace_intersection_volume(dom, query)
            row = intersection_volume_matrix([query], b_lows, b_highs)
            assert row[0, 0] == scalar

    @pytest.mark.parametrize("active", [1, 2, 3])
    def test_empty_and_contained_pairs_take_scalar_branches(self, rng, active):
        """A bucket wholly inside the halfspace reads its own volume and one
        wholly outside reads 0, bitwise and as the scalar oracle does, with
        1, 2 and 3 of the 3 normal components non-zero."""
        b_lows = rng.random((300, 3)) * 0.9
        b_highs = b_lows + 10.0 ** rng.uniform(-4.0, -1.0, size=(300, 3))
        volumes = np.prod(b_highs - b_lows, axis=1)
        normals = rng.normal(size=(30, 3))
        normals[:, active:] = 0.0
        # Boundaries through random points of the domain.
        offsets = (normals * rng.random((30, 3))).sum(axis=1)
        queries = [Halfspace(n, float(t)) for n, t in zip(normals, offsets)]
        matrix = intersection_volume_matrix(queries, b_lows, b_highs, volumes)

        counts = np.zeros(3, dtype=int)
        for i, query in enumerate(queries):
            a, t = query.normal, query.offset
            # The extremes of a·x over each bucket, with a margin for rounding.
            low = b_lows @ a + np.minimum(a * (b_highs - b_lows), 0.0).sum(axis=1)
            high = b_lows @ a + np.maximum(a * (b_highs - b_lows), 0.0).sum(axis=1)
            contained = low > t + 1e-9
            empty = high < t - 1e-9
            np.testing.assert_array_equal(matrix[i, contained], volumes[contained])
            np.testing.assert_array_equal(matrix[i, empty], 0.0)
            for j in np.flatnonzero(contained | empty):
                assert matrix[i, j] == intersection_volume(Box(b_lows[j], b_highs[j]), query)
            counts += contained.sum(), empty.sum(), (~contained & ~empty).sum()
        assert counts.min() > 50  # contained, empty and boundary pairs all occur


class TestBallKernel:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_scalar_rows(self, rng, d):
        """Exact in d <= 2; in d = 3 the QMC path must reuse the scalar
        kernel's fixed Sobol point set, so rows still agree exactly."""
        b_lows, b_highs = _random_buckets(rng, 15, d)
        queries = [
            Ball(center, float(radius))
            for center, radius in zip(
                rng.random((10, d)), 0.05 + rng.random(10) * 0.4
            )
        ]
        matrix = intersection_volume_matrix(queries, b_lows, b_highs)
        _assert_rows_match(queries, b_lows, b_highs, matrix)

    @pytest.mark.parametrize("path", ["dense", "sparse"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_empty_and_contained_pairs_take_scalar_branches(self, rng, d, path):
        """A bucket off the ball's bounding box reads 0 and a bucket inside
        the ball its own volume, bitwise, in the dense matrix and in the
        sparse path's pair values: the circular-segment formula cancels on
        a contained bucket (a 1e-4 bucket inside a radius-0.9 disc read
        0.99999999392 of its volume)."""
        b_lows = rng.random((200, d)) * 0.9
        b_highs = b_lows + 10.0 ** rng.uniform(-5.0, -1.0, size=(200, d))
        b_lows = np.vstack([b_lows, np.full(d, 0.5)])
        b_highs = np.vstack([b_highs, np.full(d, 0.5001)])
        volumes = np.prod(b_highs - b_lows, axis=1)
        balls = [
            Ball(center, float(radius))
            for center, radius in zip(rng.random((40, d)), rng.uniform(0.05, 0.8, 40))
        ]
        balls.append(Ball(np.full(d, 0.5), 0.9))
        matrix = intersection_volume_matrix(balls, b_lows, b_highs, volumes)
        if path == "sparse":
            rows, pairs = sparse_pairs(balls, UniformGridIndex(b_lows, b_highs), volumes)
            assert rows.size == len(balls)
            np.testing.assert_array_equal(pairs, matrix)
            matrix = pairs

        checked = 0
        for i, ball in enumerate(balls):
            c, r = ball.ball_center, ball.radius
            empty = np.any(np.maximum(b_lows, c - r) > np.minimum(b_highs, c + r), axis=1)
            reach = np.maximum(np.abs(b_lows - c), np.abs(b_highs - c))
            contained = ~empty & (np.sum(reach**2, axis=1) <= r**2 + 1e-15)
            np.testing.assert_array_equal(matrix[i, empty], 0.0)
            np.testing.assert_array_equal(matrix[i, contained], volumes[contained])
            for j in np.flatnonzero(empty | contained):
                assert matrix[i, j] == intersection_volume(Box(b_lows[j], b_highs[j]), ball)
            checked += int(contained.sum())
        assert checked > 100
        assert fractions(matrix, volumes)[-1, -1] == 1.0


class TestDispatcherAndChunking:
    def _mixed_workload(self, rng):
        return [
            Box([0.1, 0.1], [0.6, 0.5]),
            Halfspace([1.0, -0.5], 0.2),
            Ball([0.4, 0.6], 0.3),
            Box([0.0, 0.0], [1.0, 1.0]),
            Halfspace([0.0, 1.0], 0.7),
            Ball([0.9, 0.1], 0.05),
        ]

    def test_mixed_workload_rows_in_order(self, rng):
        b_lows, b_highs = _random_buckets(rng, 35, 2)
        queries = self._mixed_workload(rng)
        matrix = intersection_volume_matrix(queries, b_lows, b_highs)
        _assert_rows_match(queries, b_lows, b_highs, matrix)

    def test_results_invariant_to_chunk_size(self, rng, monkeypatch):
        """Tiny memory budgets only change the blocking, never the values."""
        b_lows, b_highs = _random_buckets(rng, 30, 2)
        queries = self._mixed_workload(rng) * 5
        weights = rng.normal(size=30)
        volumes = np.prod(b_highs - b_lows, axis=1)
        baseline_matrix = intersection_volume_matrix(queries, b_lows, b_highs)
        baseline_dot = coverage_dot(queries, b_lows, b_highs, volumes, weights)
        monkeypatch.setattr(batch, "CHUNK_ELEMENTS", 64)
        monkeypatch.setattr(batch, "CACHE_ELEMENTS", 16)
        np.testing.assert_array_equal(
            intersection_volume_matrix(queries, b_lows, b_highs), baseline_matrix
        )
        np.testing.assert_allclose(
            coverage_dot(queries, b_lows, b_highs, volumes, weights),
            baseline_dot,
            atol=1e-12,
            rtol=0,
        )


def _grid(per_dim: int, d: int):
    """``per_dim**d`` equal cells tiling the unit cube."""
    edges = np.linspace(0.0, 1.0, per_dim + 1)[:-1]
    lows = np.stack(np.meshgrid(*[edges] * d, indexing="ij"), axis=-1).reshape(-1, d)
    return lows, lows + 1.0 / per_dim


def _staged_queries(kind: str, d: int, rng, n: int) -> list:
    """``n`` rows of one kernel group whose boundary crosses some buckets."""
    if kind == "ball":
        return [Ball(c, float(r)) for c, r in zip(rng.random((n, d)), rng.uniform(0.05, 0.4, n))]
    # Every component non-zero, so all rows share one active pattern.
    normals = rng.normal(size=(n, d)) + 0.5
    return [Halfspace(a, float(a @ p)) for a, p in zip(normals, rng.random((n, d)))]


def _no_boundary(kind: str, d: int, n: int) -> list:
    """``n`` rows of the same group without a single boundary pair."""
    if kind == "ball":
        return [Ball(np.full(d, 3.0), 0.5)] * n  # off every bucket
    return [Halfspace(np.full(d, 1.0), -1.0)] * n  # contains every bucket


def _per_block_dot(queries, b_lows, b_highs, volumes, weights):
    """``fractions(intersection_volume_matrix(block)) @ weights`` per
    ``CACHE_ELEMENTS`` block of the fused dot: the per-block kernels."""
    (group,), _ = batch.kernel_groups(queries)
    step = max(1, batch.CACHE_ELEMENTS // (len(volumes) * group.width))
    out = np.empty(len(queries))
    for start in range(0, len(queries), step):
        block = queries[start : start + step]
        values = intersection_volume_matrix(block, b_lows, b_highs, volumes)
        out[start : start + step] = fractions(values, volumes) @ weights
    return out, step, group.width


class _Spy:
    """Count the calls (and gathered pairs) of a module function."""

    def __init__(self, monkeypatch, name: str):
        self.pairs = []
        inner = getattr(batch, name)

        def spy(*args):
            self.pairs.append(args[0].size)
            return inner(*args)

        monkeypatch.setattr(batch, name, spy)


_BOUNDARY = {"ball": "_disc_rect_area", "halfspace": "_unit_square_halfspace_fraction"}


class TestOneBoundaryCall:
    """A ball or halfspace group of the fused dot evaluates the boundary
    pairs of many blocks in one call, and every value stays bitwise that
    of the per-block kernels."""

    @pytest.mark.parametrize("kind", ["ball", "halfspace"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_rows_equal_per_block_products(self, rng, kind, d):
        b_lows, b_highs = _grid(12 if d == 2 else 6, d)
        b_lows[5] = b_highs[5]  # a zero-volume bucket
        volumes = np.prod(b_highs - b_lows, axis=1)
        weights = rng.normal(size=len(volumes))
        (group,), _ = batch.kernel_groups(_staged_queries(kind, d, rng, 1))
        step = max(1, batch.CACHE_ELEMENTS // (len(volumes) * group.width))
        # One whole block, and a row inside another, without boundary pairs.
        queries = _no_boundary(kind, d, step) + _staged_queries(kind, d, rng, 3 * step)
        queries[2 * step] = _no_boundary(kind, d, 1)[0]
        expected, _, _ = _per_block_dot(queries, b_lows, b_highs, volumes, weights)
        got = coverage_dot(queries, b_lows, b_highs, volumes, weights)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("kind", ["ball", "halfspace"])
    def test_one_call_per_chunk_of_held_values(self, rng, monkeypatch, kind):
        """Budgets patched small: the values held for one boundary call,
        times the kernel's temporaries per pair, stay within
        ``CHUNK_ELEMENTS``, and each such chunk makes one call."""
        b_lows, b_highs = _grid(10, 2)
        volumes = np.prod(b_highs - b_lows, axis=1)
        weights = rng.normal(size=len(volumes))
        queries = _staged_queries(kind, 2, rng, 40)
        monkeypatch.setattr(batch, "CACHE_ELEMENTS", 3000)
        expected, step, width = _per_block_dot(queries, b_lows, b_highs, volumes, weights)
        monkeypatch.setattr(batch, "CHUNK_ELEMENTS", 25 * width * len(volumes))
        spy = _Spy(monkeypatch, _BOUNDARY[kind])
        got = coverage_dot(queries, b_lows, b_highs, volumes, weights)
        np.testing.assert_array_equal(got, expected)
        assert step == 2  # blocks of two rows
        # 12 blocks of 2 rows fit the 25-row budget, so 40 rows take 2 calls.
        assert len(spy.pairs) == 2
        assert max(spy.pairs) <= batch.CHUNK_ELEMENTS // width

    @pytest.mark.parametrize("kind", ["ball", "halfspace"])
    def test_bulk_sized_group_makes_one_call(self, rng, monkeypatch, kind):
        """13 rows against 3,600 buckets run in blocks of two or three rows,
        and with the default budgets their boundary pairs take one call."""
        b_lows, b_highs = _grid(60, 2)
        volumes = np.prod(b_highs - b_lows, axis=1)
        weights = rng.random(len(volumes))
        queries = _staged_queries(kind, 2, rng, 13)
        expected, step, _ = _per_block_dot(queries, b_lows, b_highs, volumes, weights)
        spy = _Spy(monkeypatch, _BOUNDARY[kind])
        got = coverage_dot(queries, b_lows, b_highs, volumes, weights)
        np.testing.assert_array_equal(got, expected)
        assert step < 4
        assert len(spy.pairs) == 1


class TestCoverage:
    def test_zero_volume_bucket_contributes_zero(self):
        buckets = [Box([0.0, 0.0], [0.5, 1.0]), Box([0.5, 0.2], [0.5, 0.8])]
        b_lows, b_highs = boxes_to_arrays(buckets)
        fractions = coverage_matrix([unit_box(2)], b_lows, b_highs)
        np.testing.assert_allclose(fractions, [[1.0, 0.0]])

    def test_coverage_dot_matches_matrix_product(self, rng):
        """The fused path (folded weights, no materialised matrix) equals
        coverage_matrix @ weights — including negative weights and a
        degenerate bucket."""
        b_lows, b_highs = _random_buckets(rng, 40, 2)
        b_lows[7] = b_highs[7]  # degenerate bucket
        volumes = np.prod(b_highs - b_lows, axis=1)
        weights = rng.normal(size=40)
        for queries in (
            [Box(lo, lo + w) for lo, w in zip(rng.random((30, 2)) * 0.6, rng.random((30, 2)) * 0.4)],
            [Halfspace([1.0, 0.3], 0.4), Ball([0.5, 0.5], 0.3), Box([0.1, 0.1], [0.9, 0.9])],
        ):
            expected = coverage_matrix(queries, b_lows, b_highs, volumes) @ weights
            got = coverage_dot(queries, b_lows, b_highs, volumes, weights)
            np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("d", [1, 3])
    def test_coverage_dot_box_path_other_dims(self, rng, d):
        b_lows, b_highs = _random_buckets(rng, 20, d)
        volumes = np.prod(b_highs - b_lows, axis=1)
        weights = rng.random(20)
        queries = [
            Box(lo, lo + w)
            for lo, w in zip(rng.random((15, d)) * 0.6, rng.random((15, d)) * 0.4)
        ]
        expected = coverage_matrix(queries, b_lows, b_highs, volumes) @ weights
        got = coverage_dot(queries, b_lows, b_highs, volumes, weights)
        np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0)


class TestContainmentMatrix:
    def test_matches_per_query_contains(self, rng):
        pts = rng.random((200, 2))
        queries = [
            Box([0.2, 0.1], [0.7, 0.8]),
            Halfspace([1.0, -1.0], 0.0),
            Ball([0.5, 0.5], 0.35),
            Box([0.4, 0.4], [0.4, 0.9]),  # zero-width box
        ]
        matrix = containment_matrix(queries, pts)
        assert matrix.shape == (len(queries), 200)
        for i, query in enumerate(queries):
            np.testing.assert_array_equal(
                matrix[i], np.asarray(query.contains(pts), dtype=float)
            )
