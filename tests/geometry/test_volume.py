"""Volume formulas: exact closed forms validated against quasi-MC and
brute-force counting, plus invariance/monotonicity property tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Ball, Box, Halfspace, unit_box
from repro.geometry.batch import batch_intersection_volumes
from repro.geometry.ranges import SemiAlgebraicRange
from repro.geometry.volume import (
    ball_volume,
    box_ball_intersection_volume,
    box_box_intersection_volume,
    box_halfspace_intersection_volume,
    intersection_volume,
    monte_carlo_intersection_volume,
    range_volume,
    unit_ball_volume,
)

MC_TOL = 0.02  # quasi-MC precision used as the reference tolerance


class TestUnitBallVolume:
    def test_known_values(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 / 3.0 * math.pi)

    def test_scaling(self):
        assert ball_volume(0.5, 2) == pytest.approx(math.pi * 0.25)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            ball_volume(-1.0, 2)


class TestBoxBox:
    def test_exact_overlap(self):
        a = Box([0.0, 0.0], [0.6, 0.6])
        b = Box([0.3, 0.3], [1.0, 1.0])
        assert box_box_intersection_volume(a, b) == pytest.approx(0.09)

    def test_disjoint(self):
        a = Box([0.0], [0.2])
        b = Box([0.5], [0.9])
        assert box_box_intersection_volume(a, b) == 0.0

    def test_nested(self):
        outer = Box([0.0, 0.0], [1.0, 1.0])
        inner = Box([0.2, 0.2], [0.4, 0.4])
        assert box_box_intersection_volume(outer, inner) == pytest.approx(inner.volume())


class TestBoxHalfspace:
    def test_axis_aligned_halfspace(self):
        dom = unit_box(2)
        half = Halfspace([1.0, 0.0], 0.3)  # x >= 0.3
        assert box_halfspace_intersection_volume(dom, half) == pytest.approx(0.7)

    def test_diagonal_halfspace_halves_square(self):
        dom = unit_box(2)
        half = Halfspace([1.0, 1.0], 1.0)  # x + y >= 1
        assert box_halfspace_intersection_volume(dom, half) == pytest.approx(0.5)

    def test_simplex_corner(self):
        dom = unit_box(3)
        half = Halfspace([-1.0, -1.0, -1.0], -0.5)  # x+y+z <= 0.5
        assert box_halfspace_intersection_volume(dom, half) == pytest.approx(
            0.5**3 / 6.0
        )

    def test_empty_and_full(self):
        dom = unit_box(2)
        assert box_halfspace_intersection_volume(dom, Halfspace([1.0, 0.0], 2.0)) == 0.0
        assert box_halfspace_intersection_volume(
            dom, Halfspace([1.0, 0.0], -1.0)
        ) == pytest.approx(1.0)

    def test_zero_coefficient_dimension(self):
        dom = unit_box(3)
        half = Halfspace([1.0, 0.0, 0.0], 0.25)
        assert box_halfspace_intersection_volume(dom, half) == pytest.approx(0.75)

    def test_matches_monte_carlo_random_cases(self, rng):
        dom = unit_box(4)
        for _ in range(10):
            half = Halfspace(rng.normal(size=4), rng.normal() * 0.5)
            exact = box_halfspace_intersection_volume(dom, half)
            approx = monte_carlo_intersection_volume(dom, half)
            assert exact == pytest.approx(approx, abs=MC_TOL)

    def test_shifted_box(self):
        box = Box([0.5, 0.5], [1.0, 1.0])
        half = Halfspace([1.0, 0.0], 0.75)
        assert box_halfspace_intersection_volume(box, half) == pytest.approx(0.125)

    def test_degenerate_box(self):
        box = Box([0.5, 0.0], [0.5, 1.0])
        assert box_halfspace_intersection_volume(box, Halfspace([1.0, 0.0], 0.2)) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-2, 2, allow_nan=False))
    def test_monotone_in_offset(self, offset):
        dom = unit_box(2)
        lower = box_halfspace_intersection_volume(dom, Halfspace([1.0, 1.0], offset))
        higher = box_halfspace_intersection_volume(
            dom, Halfspace([1.0, 1.0], offset + 0.1)
        )
        assert higher <= lower + 1e-12


class TestBoxBall:
    def test_ball_inside_box(self):
        dom = unit_box(2)
        ball = Ball([0.5, 0.5], 0.25)
        assert box_ball_intersection_volume(dom, ball) == pytest.approx(
            math.pi * 0.25**2
        )

    def test_box_inside_ball(self):
        box = Box([0.4, 0.4], [0.6, 0.6])
        ball = Ball([0.5, 0.5], 1.0)
        assert box_ball_intersection_volume(box, ball) == pytest.approx(box.volume())

    def test_disjoint(self):
        box = Box([0.0, 0.0], [0.1, 0.1])
        ball = Ball([0.9, 0.9], 0.2)
        assert box_ball_intersection_volume(box, ball) == 0.0

    def test_half_disc(self):
        ball = Ball([0.0, 0.5], 0.3)  # center on the left edge of the unit box
        exact = box_ball_intersection_volume(unit_box(2), ball)
        assert exact == pytest.approx(math.pi * 0.09 / 2.0, rel=1e-6)

    def test_quarter_disc(self):
        ball = Ball([0.0, 0.0], 0.4)
        exact = box_ball_intersection_volume(unit_box(2), ball)
        assert exact == pytest.approx(math.pi * 0.16 / 4.0, rel=1e-6)

    def test_1d_interval(self):
        box = Box([0.0], [1.0])
        ball = Ball([0.5], 0.2)
        assert box_ball_intersection_volume(box, ball) == pytest.approx(0.4)

    def test_matches_monte_carlo_random_2d(self, rng):
        dom = unit_box(2)
        for _ in range(15):
            ball = Ball(rng.uniform(-0.2, 1.2, 2), rng.random())
            exact = box_ball_intersection_volume(dom, ball)
            approx = monte_carlo_intersection_volume(dom, ball)
            assert exact == pytest.approx(approx, abs=MC_TOL)

    def test_3d_uses_quasi_mc(self):
        dom = unit_box(3)
        ball = Ball([0.5, 0.5, 0.5], 0.3)
        value = box_ball_intersection_volume(dom, ball)
        assert value == pytest.approx(ball_volume(0.3, 3), rel=0.05)

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(0.05, 1.0, allow_nan=False),
        st.floats(-0.3, 1.3, allow_nan=False),
        st.floats(-0.3, 1.3, allow_nan=False),
    )
    def test_monotone_in_radius(self, radius, cx, cy):
        dom = unit_box(2)
        smaller = box_ball_intersection_volume(dom, Ball([cx, cy], radius))
        larger = box_ball_intersection_volume(dom, Ball([cx, cy], radius + 0.05))
        assert larger >= smaller - 1e-9


class TestDispatchAndRangeVolume:
    def test_dispatch_box(self):
        assert intersection_volume(unit_box(2), Box([0.0, 0.0], [0.5, 0.5])) == 0.25

    def test_dispatch_semialgebraic_uses_mc(self):
        annulus = SemiAlgebraicRange(
            dim=2,
            predicates=[
                lambda p: (p[:, 0] - 0.5) ** 2 + (p[:, 1] - 0.5) ** 2 - 0.16,
                lambda p: 0.04 - ((p[:, 0] - 0.5) ** 2 + (p[:, 1] - 0.5) ** 2),
            ],
            bounding_box=Box([0.1, 0.1], [0.9, 0.9]),
        )
        expected = math.pi * (0.16 - 0.04)
        assert intersection_volume(unit_box(2), annulus) == pytest.approx(
            expected, abs=MC_TOL
        )

    def test_range_volume_is_domain_clipped(self):
        half = Halfspace([1.0, 0.0], 0.5)
        assert range_volume(half, unit_box(2)) == pytest.approx(0.5)

    def test_mc_determinism(self):
        ball = Ball([0.4, 0.6, 0.5], 0.3)
        dom = unit_box(3)
        a = monte_carlo_intersection_volume(dom, ball)
        b = monte_carlo_intersection_volume(dom, ball)
        assert a == b


class TestBatchVolumes:
    @pytest.fixture
    def random_boxes(self, rng):
        lows = rng.random((60, 2)) * 0.8
        highs = lows + rng.random((60, 2)) * 0.2
        return lows, highs

    def test_batch_box_matches_scalar(self, random_boxes, rng):
        lows, highs = random_boxes
        query = Box.from_center(rng.random(2), rng.random(2), clip_to=unit_box(2))
        batch = batch_intersection_volumes(lows, highs, query)
        scalar = [
            box_box_intersection_volume(Box(lo, hi), query)
            for lo, hi in zip(lows, highs)
        ]
        np.testing.assert_allclose(batch, scalar, atol=1e-12)

    def test_batch_halfspace_matches_scalar(self, random_boxes, rng):
        lows, highs = random_boxes
        half = Halfspace(rng.normal(size=2), 0.3)
        batch = batch_intersection_volumes(lows, highs, half)
        scalar = [
            box_halfspace_intersection_volume(Box(lo, hi), half)
            for lo, hi in zip(lows, highs)
        ]
        np.testing.assert_allclose(batch, scalar, atol=1e-10)

    def test_batch_halfspace_matches_scalar_5d(self, rng):
        lows = rng.random((30, 5)) * 0.7
        highs = lows + rng.random((30, 5)) * 0.3
        half = Halfspace(rng.normal(size=5), 0.2)
        batch = batch_intersection_volumes(lows, highs, half)
        scalar = [
            box_halfspace_intersection_volume(Box(lo, hi), half)
            for lo, hi in zip(lows, highs)
        ]
        np.testing.assert_allclose(batch, scalar, atol=1e-10)

    def test_batch_ball_matches_scalar(self, random_boxes, rng):
        lows, highs = random_boxes
        ball = Ball(rng.random(2), 0.4)
        batch = batch_intersection_volumes(lows, highs, ball)
        scalar = [
            box_ball_intersection_volume(Box(lo, hi), ball)
            for lo, hi in zip(lows, highs)
        ]
        np.testing.assert_allclose(batch, scalar, atol=1e-10)

    def test_batch_ball_1d(self, rng):
        lows = rng.random((20, 1)) * 0.8
        highs = lows + 0.1
        ball = Ball([0.5], 0.2)
        batch = batch_intersection_volumes(lows, highs, ball)
        scalar = [
            box_ball_intersection_volume(Box(lo, hi), ball)
            for lo, hi in zip(lows, highs)
        ]
        np.testing.assert_allclose(batch, scalar, atol=1e-12)

    def test_batch_dispatch(self, random_boxes):
        # A range family without a batch kernel takes the single-pair path.
        lows, highs = random_boxes
        query = SemiAlgebraicRange(2, [lambda p: p[:, 0] + p[:, 1] - 1.0])
        np.testing.assert_array_equal(
            batch_intersection_volumes(lows, highs, query),
            [intersection_volume(Box(lo, hi), query) for lo, hi in zip(lows, highs)],
        )

    def test_batch_nonnegative_and_bounded(self, random_boxes, rng):
        lows, highs = random_boxes
        box_volumes = np.prod(highs - lows, axis=1)
        for query in [
            Halfspace(rng.normal(size=2), 0.1),
            Ball(rng.random(2), 0.5),
            Box([0.2, 0.2], [0.9, 0.9]),
        ]:
            vols = batch_intersection_volumes(lows, highs, query)
            assert np.all(vols >= 0.0)
            assert np.all(vols <= box_volumes + 1e-9)
