"""Unit tests for the range classes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    Ball,
    Box,
    DiscIntersectionRange,
    Halfspace,
    SemiAlgebraicRange,
    unit_box,
)


def boxes_2d(draw):
    lows = draw(
        st.tuples(
            st.floats(0, 0.9, allow_nan=False), st.floats(0, 0.9, allow_nan=False)
        )
    )
    widths = draw(
        st.tuples(
            st.floats(0.01, 0.5, allow_nan=False), st.floats(0.01, 0.5, allow_nan=False)
        )
    )
    lo = np.array(lows)
    return Box(lo, lo + np.array(widths))


box_strategy = st.composite(boxes_2d)()


class TestBox:
    def test_construction_and_volume(self):
        box = Box([0.0, 0.2], [0.5, 0.6])
        assert box.dim == 2
        assert box.volume() == pytest.approx(0.5 * 0.4)

    def test_degenerate_box_has_zero_volume(self):
        box = Box([0.3, 0.3], [0.3, 0.9])
        assert box.volume() == 0.0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            Box([0.5], [0.2])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Box([0.0, 0.0], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Box([0.0, np.nan], [1.0, 1.0])

    def test_contains_vectorised(self):
        box = Box([0.0, 0.0], [0.5, 0.5])
        pts = np.array([[0.25, 0.25], [0.75, 0.25], [0.5, 0.5]])
        np.testing.assert_array_equal(box.contains(pts), [True, False, True])

    def test_contains_single_point_returns_bool(self):
        box = Box([0.0], [1.0])
        assert box.contains(np.array([0.5])) is True
        assert [0.5] in box

    def test_contains_closed_boundary(self):
        box = Box([0.0, 0.0], [1.0, 1.0])
        assert [0.0, 1.0] in box

    def test_intersect(self):
        a = Box([0.0, 0.0], [0.6, 0.6])
        b = Box([0.4, 0.4], [1.0, 1.0])
        inter = a.intersect(b)
        assert inter == Box([0.4, 0.4], [0.6, 0.6])

    def test_intersect_disjoint_returns_none(self):
        a = Box([0.0, 0.0], [0.3, 0.3])
        b = Box([0.5, 0.5], [1.0, 1.0])
        assert a.intersect(b) is None
        assert not a.intersects(b)

    def test_contains_box(self):
        outer = Box([0.0, 0.0], [1.0, 1.0])
        inner = Box([0.2, 0.2], [0.8, 0.8])
        assert outer.contains_box(inner)
        assert not inner.contains_box(outer)

    def test_split_partitions_volume(self):
        box = Box([0.0, 0.0, 0.0], [1.0, 2.0, 0.5])
        children = box.split()
        assert len(children) == 8
        assert sum(c.volume() for c in children) == pytest.approx(box.volume())

    def test_split_children_cover_parent_points(self, rng):
        box = Box([0.2, 0.1], [0.9, 0.8])
        children = box.split()
        pts = box.lows + rng.random((200, 2)) * box.widths
        counts = sum(np.asarray(c.contains(pts)).astype(int) for c in children)
        assert np.all(counts >= 1)  # boundary points may be in 2 children

    def test_from_center_clips_to_domain(self):
        box = Box.from_center([0.95, 0.5], [0.4, 0.2], clip_to=unit_box(2))
        assert box.highs[0] == pytest.approx(1.0)
        assert box.lows[0] == pytest.approx(0.75)

    def test_from_center_outside_domain_degenerates(self):
        box = Box.from_center([2.0, 2.0], [0.1, 0.1], clip_to=unit_box(2))
        assert box.volume() == 0.0

    def test_center(self):
        assert np.allclose(Box([0.0, 0.2], [1.0, 0.4]).center(), [0.5, 0.3])

    def test_equality_and_hash(self):
        a = Box([0.1, 0.2], [0.5, 0.6])
        b = Box([0.1, 0.2], [0.5, 0.6])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Box([0.1, 0.2], [0.5, 0.7])

    @settings(max_examples=40, deadline=None)
    @given(box_strategy, box_strategy)
    def test_subtract_is_disjoint_partition(self, box, hole):
        pieces = box.subtract(hole)
        overlap = box.intersect(hole)
        hole_volume = overlap.volume() if overlap is not None else 0.0
        total = sum(p.volume() for p in pieces)
        assert total == pytest.approx(box.volume() - hole_volume, abs=1e-9)
        for i, a in enumerate(pieces):
            for b in pieces[i + 1 :]:
                inter = a.intersect(b)
                assert inter is None or inter.volume() < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(box_strategy, box_strategy)
    def test_subtract_pieces_avoid_hole(self, box, hole):
        for piece in box.subtract(hole):
            inter = piece.intersect(hole)
            assert inter is None or inter.volume() < 1e-12

    def test_subtract_no_overlap_returns_self(self):
        box = Box([0.0, 0.0], [0.4, 0.4])
        hole = Box([0.6, 0.6], [0.9, 0.9])
        assert box.subtract(hole) == [box]

    def test_subtract_full_cover_returns_empty(self):
        box = Box([0.2, 0.2], [0.4, 0.4])
        hole = Box([0.0, 0.0], [1.0, 1.0])
        assert box.subtract(hole) == []


class TestUnitBox:
    def test_unit_box(self):
        dom = unit_box(3)
        assert dom.volume() == 1.0
        assert dom.dim == 3

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            unit_box(0)


class TestHalfspace:
    def test_contains(self):
        half = Halfspace([1.0, 0.0], 0.5)  # x >= 0.5
        pts = np.array([[0.6, 0.0], [0.4, 1.0], [0.5, 0.5]])
        np.testing.assert_array_equal(half.contains(pts), [True, False, True])

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            Halfspace([0.0, 0.0], 0.1)

    @pytest.mark.parametrize("offset", [np.nan, np.inf, -np.inf])
    def test_non_finite_offset_rejected(self, offset):
        with pytest.raises(ValueError, match="offset must be finite"):
            Halfspace([1.0, 0.0], offset)

    def test_through_point(self):
        half = Halfspace.through_point([0.5, 0.5], [1.0, 1.0])
        assert [0.5, 0.5] in half
        assert [0.6, 0.6] in half
        assert [0.3, 0.3] not in half

    def test_bounding_box_clipped_to_domain(self):
        half = Halfspace([1.0, 0.0], 0.25)
        bbox = half.bounding_box()
        assert bbox.lows[0] == pytest.approx(0.25)
        assert bbox.highs[0] == pytest.approx(1.0)
        assert bbox.lows[1] == pytest.approx(0.0)
        assert bbox.highs[1] == pytest.approx(1.0)


class TestBall:
    def test_contains(self):
        ball = Ball([0.5, 0.5], 0.25)
        pts = np.array([[0.5, 0.5], [0.75, 0.5], [0.8, 0.5]])
        np.testing.assert_array_equal(ball.contains(pts), [True, True, False])

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            Ball([0.5], -0.1)

    @pytest.mark.parametrize("radius", [np.nan, np.inf])
    def test_non_finite_radius_rejected(self, radius):
        # NaN passes the ``radius < 0`` test, so it needs its own check.
        with pytest.raises(ValueError, match="radius must be finite"):
            Ball([0.5, 0.5], radius)

    def test_bounding_box(self):
        ball = Ball([0.5, 0.5], 0.2)
        bbox = ball.bounding_box()
        assert np.allclose(bbox.lows, [0.3, 0.3])
        assert np.allclose(bbox.highs, [0.7, 0.7])

    def test_bounding_box_clipped(self):
        ball = Ball([0.1, 0.1], 0.5)
        bbox = ball.bounding_box()
        assert np.allclose(bbox.lows, [0.0, 0.0])

    def test_zero_radius_is_a_point(self):
        ball = Ball([0.3, 0.3], 0.0)
        assert [0.3, 0.3] in ball
        assert [0.3001, 0.3] not in ball


class TestSemiAlgebraicRange:
    def test_paper_example_annulus_with_parabola(self):
        """The annulus ∩ parabola region of Figure 3 (left)."""
        rng = SemiAlgebraicRange(
            dim=2,
            predicates=[
                lambda p: p[:, 0] ** 2 + p[:, 1] ** 2 - 4.0,  # x^2+y^2 <= 4
                lambda p: 1.0 - (p[:, 0] ** 2 + p[:, 1] ** 2),  # x^2+y^2 >= 1
                lambda p: p[:, 1] - 2.0 * p[:, 0] ** 2,  # y - 2x^2 <= 0
            ],
        )
        pts = np.array(
            [
                [1.5, 0.0],  # inside annulus, below parabola -> in
                [0.0, 0.0],  # inside inner circle -> out
                [3.0, 0.0],  # outside outer circle -> out
                [0.5, 1.5],  # above parabola -> out
            ]
        )
        np.testing.assert_array_equal(rng.contains(pts), [True, False, False, False])

    def test_custom_combiner_disjunction(self):
        rng = SemiAlgebraicRange(
            dim=1,
            predicates=[
                lambda p: p[:, 0] - 0.2,  # x <= 0.2
                lambda p: 0.8 - p[:, 0],  # x >= 0.8
            ],
            combine=lambda truth: np.any(truth, axis=0),
        )
        pts = np.array([[0.1], [0.5], [0.9]])
        np.testing.assert_array_equal(rng.contains(pts), [True, False, True])

    def test_requires_predicates(self):
        with pytest.raises(ValueError):
            SemiAlgebraicRange(dim=2, predicates=[])


class TestDiscIntersectionRange:
    def test_lifting_semantics(self):
        """A data disc intersects the query disc iff center distance <= r+z."""
        query = DiscIntersectionRange(center=[0.5, 0.5], radius=0.2)
        # disc at (0.9, 0.5) with radius 0.25: distance 0.4 <= 0.2+0.25 -> in
        assert [0.9, 0.5, 0.25] in query
        # same center, radius 0.1: distance 0.4 > 0.3 -> out
        assert [0.9, 0.5, 0.1] not in query

    def test_negative_data_radius_excluded(self):
        query = DiscIntersectionRange(center=[0.5, 0.5], radius=0.5)
        assert [0.5, 0.5, -0.1] not in query

    def test_dim_is_three(self):
        assert DiscIntersectionRange([0.5, 0.5], 0.1).dim == 3

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"radius": np.nan}, "radius must be finite, got nan"),
            ({"radius": np.inf}, "radius must be finite, got inf"),
            ({"radius": -0.1}, "radius must be non-negative, got -0.1"),
            (
                {"radius": 0.1, "max_data_radius": np.nan},
                "max_data_radius must be finite, got nan",
            ),
            (
                {"radius": 0.1, "max_data_radius": -np.inf},
                "max_data_radius must be finite, got -inf",
            ),
            (
                {"radius": 0.1, "max_data_radius": -0.5},
                "max_data_radius must be non-negative, got -0.5",
            ),
        ],
        ids=[
            "nan-radius",
            "inf-radius",
            "negative-radius",
            "nan-data-radius",
            "inf-data-radius",
            "negative-data-radius",
        ],
    )
    def test_invalid_scalars_rejected(self, kwargs, message):
        # A NaN radius used to fail only at predict time, in bounding_box.
        with pytest.raises(ValueError) as excinfo:
            DiscIntersectionRange([0.5, 0.5], **kwargs)
        assert str(excinfo.value) == message


_NAN, _INF = float("nan"), float("inf")
_EDGE = 0.5 + 1e-12  # the largest low a [.., 0.5] interval accepts


# Every constructor rejection, with its exception type and exact message.
_REJECTIONS = [
    pytest.param(
        lambda: Box([_NAN, 0.5], [1.0, 1.0]),
        ValueError,
        "lows must be finite, got [nan 0.5]",
        id="box-nan-low",
    ),
    pytest.param(
        lambda: Box([0.0, 0.0], [1.0, _INF]),
        ValueError,
        "highs must be finite, got [ 1. inf]",
        id="box-inf-high",
    ),
    pytest.param(
        lambda: Box([-_INF, 0.0], [1.0, 1.0]),
        ValueError,
        "lows must be finite, got [-inf   0.]",
        id="box-neg-inf-low",
    ),
    pytest.param(
        lambda: Box([[0.0, 0.0]], [[1.0, 1.0]]),
        ValueError,
        "lows must be one-dimensional, got shape (1, 2)",
        id="box-2d-input",
    ),
    pytest.param(
        lambda: Box(0.5, 0.6),
        ValueError,
        "lows must be one-dimensional, got shape ()",
        id="box-scalar-input",
    ),
    pytest.param(
        lambda: Box([0.0, 0.0], [1.0, 1.0, 1.0]),
        ValueError,
        "lows and highs must have the same length",
        id="box-mismatched",
    ),
    pytest.param(
        lambda: Box([0.5, 0.6], [0.5, 0.5]),
        ValueError,
        "lows must be <= highs, got [0.5 0.6] > [0.5 0.5]",
        id="box-lows-above-highs",
    ),
    pytest.param(
        lambda: Box([np.nextafter(_EDGE, 1.0)], [0.5]),
        ValueError,
        "lows must be <= highs, got [0.5] > [0.5]",
        id="box-one-ulp-past-tolerance",
    ),
    pytest.param(
        lambda: Box(["a"], [1.0]),
        ValueError,
        "could not convert string to float: 'a'",
        id="box-string",
    ),
    pytest.param(
        lambda: Box.from_center([_NAN, 0.5], [0.1, 0.1]),
        ValueError,
        "center must be finite, got [nan 0.5]",
        id="box-from-center-nan",
    ),
    pytest.param(
        lambda: Halfspace([_NAN, 1.0], 0.0),
        ValueError,
        "normal must be finite, got [nan  1.]",
        id="halfspace-nan-normal",
    ),
    pytest.param(
        lambda: Halfspace([1.0, -_INF], 0.0),
        ValueError,
        "normal must be finite, got [  1. -inf]",
        id="halfspace-inf-normal",
    ),
    pytest.param(
        lambda: Halfspace([[1.0, 0.0]], 0.0),
        ValueError,
        "normal must be one-dimensional, got shape (1, 2)",
        id="halfspace-2d-normal",
    ),
    pytest.param(
        lambda: Halfspace([0.0, 0.0], 0.5),
        ValueError,
        "halfspace normal must be non-zero",
        id="halfspace-zero-normal",
    ),
    pytest.param(
        lambda: Halfspace([1e-8, -1e-8], 0.5),
        ValueError,
        "halfspace normal must be non-zero",
        id="halfspace-normal-within-atol",
    ),
    pytest.param(
        lambda: Halfspace([], 0.5),
        ValueError,
        "halfspace normal must be non-zero",
        id="halfspace-empty-normal",
    ),
    pytest.param(
        lambda: Halfspace([1.0, 0.0], _NAN),
        ValueError,
        "offset must be finite, got nan",
        id="halfspace-nan-offset",
    ),
    pytest.param(
        lambda: Halfspace([1.0, 0.0], -_INF),
        ValueError,
        "offset must be finite, got -inf",
        id="halfspace-inf-offset",
    ),
    pytest.param(
        lambda: Ball([_NAN, 0.5], 0.1),
        ValueError,
        "center must be finite, got [nan 0.5]",
        id="ball-nan-center",
    ),
    pytest.param(
        lambda: Ball([0.5, _INF], 0.1),
        ValueError,
        "center must be finite, got [0.5 inf]",
        id="ball-inf-center",
    ),
    pytest.param(
        lambda: Ball([[0.5, 0.5]], 0.1),
        ValueError,
        "center must be one-dimensional, got shape (1, 2)",
        id="ball-2d-center",
    ),
    pytest.param(
        lambda: Ball([0.5, 0.5], -0.1),
        ValueError,
        "radius must be non-negative, got -0.1",
        id="ball-negative-radius",
    ),
    pytest.param(
        lambda: Ball([0.5, 0.5], _NAN),
        ValueError,
        "radius must be finite, got nan",
        id="ball-nan-radius",
    ),
    pytest.param(
        lambda: Ball([0.5, 0.5], _INF),
        ValueError,
        "radius must be finite, got inf",
        id="ball-inf-radius",
    ),
    pytest.param(
        lambda: Ball([0.5, 0.5], "x"),
        ValueError,
        "could not convert string to float: 'x'",
        id="ball-string-radius",
    ),
    pytest.param(
        lambda: Ball([0.5, 0.5], None),
        TypeError,
        "float() argument must be a string or a real number, not 'NoneType'",
        id="ball-none-radius",
    ),
]


@pytest.mark.parametrize("make, error, message", _REJECTIONS)
def test_rejection_type_and_message(make, error, message):
    with pytest.raises(Exception) as excinfo:
        make()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


def test_tolerance_edges_are_accepted():
    box = Box([_EDGE], [0.5])
    assert box.highs[0] == box.lows[0] == _EDGE  # highs raised to lows
    half = Halfspace([np.nextafter(1e-8, 1.0), 0.0], 0.5)
    assert half.normal[0] > 1e-8
    assert Ball([0.5, 0.5], -0.0).radius == 0.0
