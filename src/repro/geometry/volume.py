"""Exact and quasi-Monte-Carlo intersection volumes.

Equation (6) of the paper evaluates a histogram model as

.. math:: s_D(R) = \\sum_i \\frac{Vol(B_i \\cap R)}{Vol(B_i)} w_i

so both training (building the design matrix) and prediction hinge on
``Vol(box ∩ range)``.  We provide exact closed forms wherever possible:

* box ∩ box — exact in any dimension (interval overlap product),
* box ∩ halfspace — exact in any dimension via the classical
  inclusion–exclusion formula for the volume of a simplex-truncated cube
  (the sum over cube vertices of signed ``max(0, t - c.v)^d`` terms),
* box ∩ ball — exact in 1-D and 2-D (circular-segment integration),
  deterministic quasi-Monte-Carlo in higher dimension.

The quasi-MC path uses a *fixed* low-discrepancy point set scaled into the
box, so volumes — and therefore every estimator built on them — remain fully
deterministic, preserving QuadHist's stability property (Lemma A.4).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.geometry.ranges import Ball, Box, Halfspace, Range

__all__ = [
    "unit_ball_volume",
    "ball_volume",
    "box_box_intersection_volume",
    "box_halfspace_intersection_volume",
    "box_ball_intersection_volume",
    "intersection_volume",
    "range_volume",
    "monte_carlo_intersection_volume",
]

#: Number of quasi-Monte-Carlo points used for volumes with no closed form.
#: 4096 scrambled-Sobol points give ~1e-3 relative error on smooth bodies,
#: far below the selectivity-estimation noise floor in the experiments.
QMC_POINTS = 4096


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit Euclidean ball in ``dim`` dimensions."""
    if dim < 0:
        raise ValueError(f"dim must be >= 0, got {dim}")
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def ball_volume(radius: float, dim: int) -> float:
    """Volume of a ``dim``-dimensional ball of the given ``radius``."""
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    return unit_ball_volume(dim) * radius**dim


def box_box_intersection_volume(box: Box, other: Box) -> float:
    """Exact ``Vol(box ∩ other)`` in any dimension."""
    lows = np.maximum(box.lows, other.lows)
    highs = np.minimum(box.highs, other.highs)
    widths = highs - lows
    if np.any(widths < 0):
        return 0.0
    return float(np.prod(widths))


def _unit_square_halfspace_fraction(c1, c2, t):
    """Fraction of the unit square with ``c1*y1 + c2*y2 <= t``, elementwise.

    Closed-form trapezoid geometry instead of inclusion–exclusion: the 2-D
    I–E identity divides a catastrophically cancelled sum by ``c1*c2`` and
    loses ``~eps * max(c)/min(c)`` of accuracy when the coefficients are
    orders of magnitude apart; every branch here is cancellation-free.
    Assumes ``c1, c2 >= 0``; accepts scalars or broadcastable arrays.
    The batch halfspace kernel (:mod:`repro.geometry.batch`) shares it.
    """
    lo = np.minimum(c1, c2)
    hi = np.maximum(c1, c2)
    total = lo + hi
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = 2.0 * lo * hi
        tri_lo = np.where(denom > 0, t * t / denom, 0.0)
        rem = total - t
        tri_hi = 1.0 - np.where(denom > 0, rem * rem / denom, 0.0)
        mid = np.where(hi > 0, (t - 0.5 * lo) / hi, 0.0)
    frac = np.where(t <= lo, tri_lo, np.where(t <= hi, mid, tri_hi))
    frac = np.where(t <= 0.0, 0.0, np.where(t >= total, 1.0, frac))
    return np.clip(frac, 0.0, 1.0)


def _unit_cube_halfspace_fraction(coeffs: np.ndarray, threshold: float) -> float:
    """Fraction of the unit cube with ``coeffs . y <= threshold``.

    Assumes ``coeffs > 0`` elementwise.  Uses the inclusion–exclusion
    identity

    .. math::
       Vol = \\frac{1}{d!\\,\\prod c_i}
             \\sum_{v \\in \\{0,1\\}^d} (-1)^{|v|} \\max(0, t - c\\cdot v)^d

    which is exact for every ``t``.  Cost is ``O(2^d)``; for the paper's
    dimensionalities (``d <= 10``) that is at most 1024 terms.
    """
    d = coeffs.shape[0]
    total = float(np.sum(coeffs))
    if threshold <= 0.0:
        return 0.0
    if threshold >= total:
        return 1.0
    if d == 2:
        # The 2-D case has a cancellation-free closed form; use it so tiny
        # coefficient ratios stay exact (the I–E identity below does not).
        return float(
            _unit_square_halfspace_fraction(
                float(coeffs[0]), float(coeffs[1]), threshold
            )
        )
    # Enumerate cube vertices via bit masks; vectorised over all 2^d masks.
    masks = np.arange(1 << d, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(d)) & 1  # (2^d, d)
    dots = bits @ coeffs
    signs = np.where((np.sum(bits, axis=1) % 2) == 0, 1.0, -1.0)
    terms = np.maximum(0.0, threshold - dots) ** d
    raw = float(np.sum(signs * terms))
    volume = raw / (math.factorial(d) * float(np.prod(coeffs)))
    return min(1.0, max(0.0, volume))


def box_halfspace_intersection_volume(box: Box, halfspace: Halfspace) -> float:
    """Exact ``Vol(box ∩ {a.x >= b})`` in any dimension.

    The box is affinely mapped onto the unit cube; degenerate (zero-width)
    dimensions are eliminated by substituting their single coordinate value
    into the constraint.
    """
    if box.dim != halfspace.dim:
        raise ValueError("dimension mismatch between box and halfspace")
    widths = box.widths
    box_volume = float(np.prod(widths))
    if box_volume <= 0.0:
        return 0.0
    # Map x = lows + widths * y with y in [0,1]^d:
    #   a.x >= b  <=>  (a*widths).y >= b - a.lows
    coeffs = halfspace.normal * widths
    threshold = halfspace.offset - float(halfspace.normal @ box.lows)
    # Flip negative coefficients via y -> 1 - y so all coefficients are >= 0.
    negative = coeffs < 0
    threshold -= float(np.sum(coeffs[negative]))
    coeffs = np.abs(coeffs)
    # Drop (near-)zero coefficients: those dimensions are unconstrained.
    active = coeffs > 1e-15 * max(1.0, float(np.max(coeffs, initial=0.0)))
    coeffs = coeffs[active]
    if coeffs.size == 0:
        return box_volume if threshold <= 0.0 else 0.0
    # We need Vol{c.y >= t} = 1 - Vol{c.y <= t} on the unit cube.
    fraction_below = _unit_cube_halfspace_fraction(coeffs, threshold)
    return box_volume * (1.0 - fraction_below)


def _disc_quadrant_area(x: float, y: float, radius: float) -> float:
    """Area of ``{(X, Y): X^2+Y^2 <= r^2, X <= x, Y <= y}`` (disc at origin)."""
    r = radius
    if r <= 0.0 or x <= -r or y <= -r:
        return 0.0
    x = min(x, r)

    def antiderivative(t: float) -> float:
        t = min(max(t, -r), r)
        return 0.5 * (t * math.sqrt(max(r * r - t * t, 0.0)) + r * r * math.asin(t / r))

    def integral_g(a: float, b: float) -> float:
        """Integral of sqrt(r^2 - X^2) over [a, b] (0 when b <= a)."""
        if b <= a:
            return 0.0
        return antiderivative(b) - antiderivative(a)

    if y >= r:
        # Full vertical extent of the disc for every X <= x.
        return 2.0 * integral_g(-r, x)

    x_star = math.sqrt(max(r * r - y * y, 0.0))
    a, b = -r, x
    # Clamp the "g > y" interval (-x*, x*) into [a, b].
    lo = min(max(a, -x_star), b)
    hi = max(min(b, x_star), a)
    if y >= 0.0:
        # Integrand is min(y, g) + g: equals 2g where g <= y (|X| >= x*),
        # and y + g where g > y (|X| < x*).
        area = integral_g(a, b)  # the "+ g" part everywhere
        if hi > lo:
            area += y * (hi - lo)  # min(y, g) = y on (lo, hi)
            area += integral_g(a, lo) + integral_g(hi, b)  # min(y, g) = g outside
        else:
            area += integral_g(a, b)  # g <= y throughout [a, b]
        return area
    # y < 0: only X with g(X) >= -y contribute, integrand is y + g there.
    if hi <= lo:
        return 0.0
    return y * (hi - lo) + integral_g(lo, hi)


def _rect_disc_area_2d(box: Box, ball: Ball) -> float:
    """Exact area of a 2-D rectangle ∩ disc via quadrant inclusion-exclusion."""
    cx, cy = ball.ball_center
    r = ball.radius
    x0, y0 = box.lows[0] - cx, box.lows[1] - cy
    x1, y1 = box.highs[0] - cx, box.highs[1] - cy
    area = (
        _disc_quadrant_area(x1, y1, r)
        - _disc_quadrant_area(x0, y1, r)
        - _disc_quadrant_area(x1, y0, r)
        + _disc_quadrant_area(x0, y0, r)
    )
    return max(0.0, area)


@lru_cache(maxsize=8)
def _qmc_unit_points(dim: int, count: int = QMC_POINTS) -> np.ndarray:
    """Fixed low-discrepancy point set in ``[0,1]^dim`` (deterministic)."""
    from scipy.stats import qmc

    sampler = qmc.Sobol(d=dim, scramble=True, seed=20220612)
    return sampler.random(count)


def monte_carlo_intersection_volume(box: Box, range_: Range, points: int = QMC_POINTS) -> float:
    """Deterministic quasi-MC estimate of ``Vol(box ∩ range)``.

    Uses a fixed scrambled-Sobol point set scaled into the box, so repeated
    calls with identical arguments return identical values.
    """
    box_volume = box.volume()
    if box_volume <= 0.0:
        return 0.0
    unit = _qmc_unit_points(box.dim, points)
    scaled = box.lows + unit * box.widths
    inside = range_.contains(scaled)
    return box_volume * float(np.mean(inside))


def box_ball_intersection_volume(box: Box, ball: Ball) -> float:
    """``Vol(box ∩ ball)``: exact for dim <= 2, quasi-MC above."""
    if box.dim != ball.dim:
        raise ValueError("dimension mismatch between box and ball")
    # Quick rejections keep the common cases cheap and exact.
    bbox_lows = ball.ball_center - ball.radius
    bbox_highs = ball.ball_center + ball.radius
    clip_lows = np.maximum(box.lows, bbox_lows)
    clip_highs = np.minimum(box.highs, bbox_highs)
    if np.any(clip_lows > clip_highs):
        return 0.0
    corners_lo = np.maximum(np.abs(box.lows - ball.ball_center), np.abs(box.highs - ball.ball_center))
    if float(np.sum(corners_lo**2)) <= ball.radius**2 + 1e-15:
        return box.volume()  # box entirely inside the ball
    if box.dim == 1:
        return max(0.0, float(clip_highs[0] - clip_lows[0]))
    if box.dim == 2:
        return _rect_disc_area_2d(box, ball)
    clipped = Box(clip_lows, clip_highs)
    return monte_carlo_intersection_volume(clipped, ball)


def intersection_volume(box: Box, range_: Range) -> float:
    """``Vol(box ∩ range)`` with the best available method per range type."""
    if isinstance(range_, Box):
        return box_box_intersection_volume(box, range_)
    if isinstance(range_, Halfspace):
        return box_halfspace_intersection_volume(box, range_)
    if isinstance(range_, Ball):
        return box_ball_intersection_volume(box, range_)
    clipped = box.intersect(range_.bounding_box())
    if clipped is None:
        return 0.0
    return monte_carlo_intersection_volume(clipped, range_)


def range_volume(range_: Range, domain: Box) -> float:
    """``Vol(range ∩ domain)`` — the query's measure inside the data domain.

    QuadHist's splitting rule (Algorithm 2) normalises by this quantity.
    """
    return intersection_volume(domain, range_)
