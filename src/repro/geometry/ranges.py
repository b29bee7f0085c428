"""Query-range geometry.

A *range* is a subset of :math:`\\mathbb{R}^d` used as a selection-query
predicate.  The paper's three headline query classes are:

* orthogonal range queries  -> :class:`Box`
* linear inequality queries -> :class:`Halfspace`
* distance-based queries    -> :class:`Ball`

plus the more general :class:`SemiAlgebraicRange` (Boolean combinations of
polynomial inequalities, Section 2.2) and :class:`DiscIntersectionRange`
(ranges over a universe of discs, handled via the lifting of Section 2.2).

All coordinates live in the normalised data domain ``[0, 1]^d`` (the paper
normalises every attribute into ``[0, 1]``), although nothing below enforces
that: ranges are honest subsets of :math:`\\mathbb{R}^d` and may extend
beyond the domain (e.g. halfspaces are unbounded).
"""

from __future__ import annotations

import abc
import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Range",
    "Box",
    "Halfspace",
    "Ball",
    "SemiAlgebraicRange",
    "DiscIntersectionRange",
    "UnionRange",
    "unit_box",
]

_EPS = 1e-12


# The constructors check their few coordinates as Python floats: a NumPy
# reduction costs microseconds on a two-element array, and the server
# builds one range per decoded query.


def _as_finite_float(value, name: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {number}")
    return number


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not all(map(math.isfinite, arr.tolist())):
        raise ValueError(f"{name} must be finite, got {arr}")
    return arr


def _as_non_negative(value, name: str) -> float:
    number = _as_finite_float(value, name)
    if number < 0:
        raise ValueError(f"{name} must be non-negative, got {number}")
    return number


class Range(abc.ABC):
    """Abstract query range in :math:`\\mathbb{R}^d`.

    Concrete ranges implement vectorised membership plus a bounding box;
    everything else (sampling, intersection volume) is built on top of those
    two primitives in :mod:`repro.geometry.sampling` and
    :mod:`repro.geometry.volume`.
    """

    __slots__ = ()

    @property
    @abc.abstractmethod
    def dim(self) -> int:
        """Ambient dimension of the range."""

    @abc.abstractmethod
    def contains(self, points: np.ndarray) -> np.ndarray:
        """Vectorised membership test.

        Parameters
        ----------
        points:
            Array of shape ``(n, dim)`` (or ``(dim,)`` for a single point).

        Returns
        -------
        Boolean array of shape ``(n,)`` (or a scalar bool for a single point).
        """

    @abc.abstractmethod
    def bounding_box(self) -> "Box":
        """Smallest axis-aligned box containing ``self`` clipped to [0,1]^d.

        Unbounded ranges (halfspaces) are clipped to the unit data domain
        first, as in Appendix A.2 of the paper.
        """

    def __contains__(self, point) -> bool:
        return bool(self.contains(np.asarray(point, dtype=float)))

    def _prepare_points(self, points: np.ndarray) -> tuple[np.ndarray, bool]:
        """Normalise ``points`` to 2-D and report whether input was a single point."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(
                f"points must have shape (n, {self.dim}) or ({self.dim},), got {points if np.ndim(points)==0 else np.shape(points)}"
            )
        return pts, single


class Box(Range):
    """Axis-aligned hyper-rectangle ``x_i in [lo_i, hi_i]`` (closed).

    This is both the orthogonal-range *query* class and the *bucket* shape
    used by the histogram models, so it carries a little extra machinery
    (volume, intersection, subtraction) beyond the base interface.
    """

    __slots__ = ("lows", "highs")

    def __init__(self, lows: Sequence[float], highs: Sequence[float]):
        lows_arr = _as_float_array(lows, "lows")
        highs_arr = _as_float_array(highs, "highs")
        if lows_arr.shape != highs_arr.shape:
            raise ValueError("lows and highs must have the same length")
        for lo, hi in zip(lows_arr.tolist(), highs_arr.tolist()):
            if lo > hi + _EPS:
                raise ValueError(f"lows must be <= highs, got {lows_arr} > {highs_arr}")
        self.lows = lows_arr
        self.highs = np.maximum(highs_arr, lows_arr)

    @property
    def dim(self) -> int:
        return self.lows.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.highs - self.lows

    def volume(self) -> float:
        """Lebesgue measure of the box (0 for degenerate boxes)."""
        return float(np.prod(self.widths))

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts, single = self._prepare_points(points)
        inside = np.all((pts >= self.lows - _EPS) & (pts <= self.highs + _EPS), axis=1)
        return bool(inside[0]) if single else inside

    def bounding_box(self) -> "Box":
        return self

    def intersect(self, other: "Box") -> "Box | None":
        """Intersection with another box, or ``None`` when empty."""
        lows = np.maximum(self.lows, other.lows)
        highs = np.minimum(self.highs, other.highs)
        if np.any(lows > highs):
            return None
        return Box(lows, highs)

    def intersects(self, other: "Box") -> bool:
        return bool(np.all(np.maximum(self.lows, other.lows) <= np.minimum(self.highs, other.highs)))

    def contains_box(self, other: "Box") -> bool:
        return bool(np.all(self.lows <= other.lows + _EPS) and np.all(other.highs <= self.highs + _EPS))

    def subtract(self, hole: "Box") -> list["Box"]:
        """Decompose ``self \\ hole`` into at most ``2*dim`` disjoint boxes.

        This is the classic axis-sweep box subtraction used by STHoles-style
        histograms (our ISOMER baseline) when a query "drills a hole" into an
        existing bucket.  Boxes with zero volume are dropped.
        """
        clipped = self.intersect(hole)
        if clipped is None:
            return [self]
        pieces: list[Box] = []
        lows = self.lows.copy()
        highs = self.highs.copy()
        for axis in range(self.dim):
            if clipped.lows[axis] > lows[axis] + _EPS:
                piece_highs = highs.copy()
                piece_highs[axis] = clipped.lows[axis]
                piece = Box(lows.copy(), piece_highs)
                if piece.volume() > 0.0:
                    pieces.append(piece)
                lows = lows.copy()
                lows[axis] = clipped.lows[axis]
            if clipped.highs[axis] < highs[axis] - _EPS:
                piece_lows = lows.copy()
                piece_lows[axis] = clipped.highs[axis]
                piece = Box(piece_lows, highs.copy())
                if piece.volume() > 0.0:
                    pieces.append(piece)
                highs = highs.copy()
                highs[axis] = clipped.highs[axis]
        return pieces

    def center(self) -> np.ndarray:
        return 0.5 * (self.lows + self.highs)

    def split(self) -> list["Box"]:
        """Split into the ``2^dim`` equal children (quadtree/octree split)."""
        mid = self.center()
        children: list[Box] = []
        for mask in range(1 << self.dim):
            lows = self.lows.copy()
            highs = self.highs.copy()
            for axis in range(self.dim):
                if (mask >> axis) & 1:
                    lows[axis] = mid[axis]
                else:
                    highs[axis] = mid[axis]
            children.append(Box(lows, highs))
        return children

    @staticmethod
    def from_center(center: Sequence[float], widths: Sequence[float], clip_to: "Box | None" = None) -> "Box":
        """Box with the given ``center`` and per-dimension ``widths``.

        When ``clip_to`` is given the result is intersected with it (the
        paper clips every generated query to the unit data domain).
        """
        c = _as_float_array(center, "center")
        w = _as_float_array(widths, "widths")
        if np.any(w < 0):
            raise ValueError("widths must be non-negative")
        box = Box(c - w / 2.0, c + w / 2.0)
        if clip_to is not None:
            clipped = box.intersect(clip_to)
            if clipped is None:
                # A fully out-of-domain query degenerates to a zero-volume
                # sliver on the domain boundary.
                point = np.clip(c, clip_to.lows, clip_to.highs)
                return Box(point, point)
            return clipped
        return box

    def __repr__(self) -> str:
        intervals = ", ".join(f"[{lo:.4g}, {hi:.4g}]" for lo, hi in zip(self.lows, self.highs))
        return f"Box({intervals})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return bool(np.allclose(self.lows, other.lows) and np.allclose(self.highs, other.highs))

    def __hash__(self) -> int:
        return hash((tuple(np.round(self.lows, 12)), tuple(np.round(self.highs, 12))))


def unit_box(dim: int) -> Box:
    """The normalised data domain ``[0, 1]^dim``."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return Box(np.zeros(dim), np.ones(dim))


class Halfspace(Range):
    """Linear inequality query ``a . x >= b``.

    ``SELECT * FROM T WHERE theta_0 + theta_1*A_1 + ... + theta_d*A_d >= 0``
    corresponds to ``a = (theta_1..theta_d)``, ``b = -theta_0``.
    """

    __slots__ = ("normal", "offset")

    def __init__(self, normal: Sequence[float], offset: float):
        normal_arr = _as_float_array(normal, "normal")
        # Zero to np.allclose's default tolerance in every component.
        if all(abs(component) <= 1e-8 for component in normal_arr.tolist()):
            raise ValueError("halfspace normal must be non-zero")
        self.normal = normal_arr
        self.offset = _as_finite_float(offset, "offset")

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts, single = self._prepare_points(points)
        inside = pts @ self.normal >= self.offset - _EPS
        return bool(inside[0]) if single else inside

    def bounding_box(self) -> Box:
        # Deferred import: sampling builds on ranges.
        from repro.geometry.sampling import halfspace_bounding_box

        return halfspace_bounding_box(self, unit_box(self.dim))

    @staticmethod
    def through_point(point: Sequence[float], normal: Sequence[float]) -> "Halfspace":
        """Halfspace whose boundary hyperplane passes through ``point``.

        This is how Section 4 generates halfspace workloads: pick a center
        point on the boundary plane, then a random unit normal.
        """
        p = _as_float_array(point, "point")
        n = _as_float_array(normal, "normal")
        return Halfspace(n, float(n @ p))

    def __repr__(self) -> str:
        return f"Halfspace(normal={np.round(self.normal, 4)}, offset={self.offset:.4g})"


class Ball(Range):
    """Distance-based query ``||x - center||_2 <= radius``."""

    __slots__ = ("ball_center", "radius")

    def __init__(self, center: Sequence[float], radius: float):
        self.ball_center = _as_float_array(center, "center")
        self.radius = _as_non_negative(radius, "radius")

    @property
    def dim(self) -> int:
        return self.ball_center.shape[0]

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts, single = self._prepare_points(points)
        sq_dist = np.sum((pts - self.ball_center) ** 2, axis=1)
        inside = sq_dist <= self.radius**2 + _EPS
        return bool(inside[0]) if single else inside

    def bounding_box(self) -> Box:
        domain = unit_box(self.dim)
        lows = np.maximum(self.ball_center - self.radius, domain.lows)
        highs = np.minimum(self.ball_center + self.radius, domain.highs)
        if np.any(lows > highs):
            point = np.clip(self.ball_center, domain.lows, domain.highs)
            return Box(point, point)
        return Box(lows, highs)

    def __repr__(self) -> str:
        return f"Ball(center={np.round(self.ball_center, 4)}, radius={self.radius:.4g})"


class SemiAlgebraicRange(Range):
    """Boolean combination of polynomial inequalities (Section 2.2).

    The range is given as a list of *predicates* ``p(x) <= 0`` (each a
    callable returning the polynomial value, vectorised over rows) combined
    with a Boolean ``combine`` function over the per-predicate truth values.
    The default combiner is conjunction, covering sets like the paper's
    example ``(x^2+y^2<=4) AND (x^2+y^2>=1) AND (y-2x^2<=0)``.

    ``bounding_box`` must be supplied by the caller (tight boxes for general
    semi-algebraic sets require cell decomposition, which the learning
    algorithms never need: they only sample and test membership).
    """

    __slots__ = ("_dim", "predicates", "combine", "_bbox")

    def __init__(
        self,
        dim: int,
        predicates: Sequence[Callable[[np.ndarray], np.ndarray]],
        bounding_box: Box | None = None,
        combine: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if not predicates:
            raise ValueError("at least one predicate is required")
        self._dim = int(dim)
        self.predicates = list(predicates)
        self.combine = combine if combine is not None else (lambda truth: np.all(truth, axis=0))
        self._bbox = bounding_box if bounding_box is not None else unit_box(dim)
        if self._bbox.dim != dim:
            raise ValueError("bounding_box dimension mismatch")

    @property
    def dim(self) -> int:
        return self._dim

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts, single = self._prepare_points(points)
        truth = np.stack([np.asarray(p(pts)) <= _EPS for p in self.predicates], axis=0)
        inside = np.asarray(self.combine(truth), dtype=bool)
        return bool(inside[0]) if single else inside

    def bounding_box(self) -> Box:
        return self._bbox


class DiscIntersectionRange(Range):
    """Disc-intersection query over a universe of discs (Section 2.2).

    Data objects are discs in the plane encoded as points ``(x, y, z)`` in
    :math:`\\mathbb{R}^3_{z \\ge 0}` (center, radius).  A query disc ``B``
    with center ``(cx, cy)`` and radius ``r`` selects every disc intersecting
    it, i.e. the semi-algebraic set

    .. math:: (x - cx)^2 + (y - cy)^2 \\le (r + z)^2,\\quad z \\ge 0.
    """

    __slots__ = ("query_center", "query_radius", "max_data_radius")

    def __init__(self, center: Sequence[float], radius: float, max_data_radius: float = 1.0):
        c = _as_float_array(center, "center")
        if c.shape[0] != 2:
            raise ValueError("disc-intersection queries live over planar discs (2-D centers)")
        self.query_center = c
        self.query_radius = _as_non_negative(radius, "radius")
        self.max_data_radius = _as_non_negative(max_data_radius, "max_data_radius")

    @property
    def dim(self) -> int:
        return 3  # (x, y, z=radius) lifting

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts, single = self._prepare_points(points)
        xy = pts[:, :2]
        z = pts[:, 2]
        sq_dist = np.sum((xy - self.query_center) ** 2, axis=1)
        inside = (z >= -_EPS) & (sq_dist <= (self.query_radius + z) ** 2 + _EPS)
        return bool(inside[0]) if single else inside

    def bounding_box(self) -> Box:
        reach = self.query_radius + self.max_data_radius
        lows = np.array(
            [self.query_center[0] - reach, self.query_center[1] - reach, 0.0]
        )
        highs = np.array(
            [self.query_center[0] + reach, self.query_center[1] + reach, self.max_data_radius]
        )
        domain = unit_box(3)
        clipped = Box(lows, highs).intersect(domain)
        return clipped if clipped is not None else Box(np.zeros(3), np.zeros(3))


class UnionRange(Range):
    """Finite union of ranges — IN-list and disjunctive predicates.

    ``SELECT * FROM T WHERE A1 IN (a, b, c)`` or any OR of the basic
    predicate shapes.  A union of ``k`` ranges from a family of VC
    dimension ``λ`` has VC dimension ``O(kλ log k)`` — still finite, so
    Theorem 2.1 applies and the selectivity of IN-list workloads is
    learnable with the same machinery.  PtsHist and the Monte-Carlo paths
    work out of the box (membership is the only primitive they need);
    exact box-intersection volumes fall back to quasi-MC.
    """

    __slots__ = ("members",)

    def __init__(self, members: Sequence[Range]):
        if not members:
            raise ValueError("a union needs at least one member range")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise ValueError(f"members must share one dimension, got {sorted(dims)}")
        self.members = list(members)

    @property
    def dim(self) -> int:
        return self.members[0].dim

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts, single = self._prepare_points(points)
        inside = np.zeros(pts.shape[0], dtype=bool)
        for member in self.members:
            inside |= np.asarray(member.contains(pts))
            if inside.all():
                break
        return bool(inside[0]) if single else inside

    def bounding_box(self) -> "Box":
        boxes = [m.bounding_box() for m in self.members]
        lows = np.min(np.stack([b.lows for b in boxes]), axis=0)
        highs = np.max(np.stack([b.highs for b in boxes]), axis=0)
        return Box(lows, highs)

    @staticmethod
    def in_list(
        attribute: int, values: Sequence[float], cardinality: int, dim: int
    ) -> "UnionRange":
        """``attribute IN (values)`` over a categorical attribute.

        Each value's category cell (width ``1/cardinality``) becomes a box
        spanning the full domain on every other attribute.
        """
        if len(values) == 0:
            raise ValueError("IN-list needs at least one value")
        if not 0 <= attribute < dim:
            raise ValueError(f"attribute {attribute} out of range for dim {dim}")
        if cardinality < 1:
            raise ValueError(f"cardinality must be >= 1, got {cardinality}")
        boxes = []
        for value in values:
            code = min(int(float(value) * cardinality), cardinality - 1)
            lows = np.zeros(dim)
            highs = np.ones(dim)
            lows[attribute] = code / cardinality
            highs[attribute] = (code + 1) / cardinality
            boxes.append(Box(lows, highs))
        return UnionRange(boxes)
