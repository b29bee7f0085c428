"""Intersection-volume and membership kernels: one per range family.

Every hot path in the reproduction — the Eq. (8) design matrix, histogram
prediction (Eq. 6) and ground-truth labeling (Eq. 7) — reduces to
``Vol(B_j ∩ R_i)`` or ``1(p_k ∈ R_i)`` over (query, bucket) pairs.  Each
range family's arithmetic is written **once** here, as a function over
broadcastable operands, and every path calls it:

* the dense path passes a ``(c, 1)`` query block against ``(m,)`` bucket
  rows (:func:`intersection_volume_matrix`, :func:`coverage_dot`,
  :func:`containment_matrix`);
* the sparse path (:mod:`repro.geometry.sparse`) passes gathered ``(P,)``
  candidate pairs;
* :func:`batch_intersection_volumes` passes a single query row.

Operands are dimension-major: ``lows[k]`` holds coordinate ``k`` of every
operand element.  The kernels use only elementwise operations in a fixed
order — no BLAS product or axis reduction whose summation order could
depend on the operand layout — so a pair gets bitwise the same value on
every path.  The single-pair functions of :mod:`repro.geometry.volume`
stay separate: tests use them as an independent oracle.

Families:

* **box** — exact interval-overlap products, any d;
* **halfspace** — the ``2^d`` inclusion–exclusion identity (closed
  trapezoid form in 2-D), with (near-)zero normal components projected
  out; queries are grouped by that active pattern;
* **ball** — the scalar path's decision tree (empty, contained,
  boundary); boundary pairs get exact circular-segment areas in 2-D and
  the fixed Sobol point set of the scalar path above.

Peak memory is bounded: the dense path processes queries in chunks whose
temporaries hold at most :data:`CHUNK_ELEMENTS` float64 elements.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.geometry.ranges import _EPS, Ball, Box, Halfspace, Range
from repro.geometry.volume import (
    QMC_POINTS,
    _qmc_unit_points,
    _unit_square_halfspace_fraction,
    intersection_volume,
)
from repro.observability.metrics import default_registry

__all__ = [
    "CHUNK_ELEMENTS",
    "boxes_to_arrays",
    "box_volume",
    "halfspace_volume",
    "ball_volume",
    "box_contains",
    "halfspace_contains",
    "ball_contains",
    "intersection_volume_matrix",
    "batch_intersection_volumes",
    "coverage_matrix",
    "coverage_dot",
    "containment_matrix",
]

#: Upper bound (in float64 elements) on the largest temporary a kernel may
#: materialise at once; bigger workloads are processed in query chunks.
#: 2^22 elements ≈ 32 MB per temporary.
CHUNK_ELEMENTS = 1 << 22

#: Chunk size (in float64 elements) for the fused prediction path: small
#: enough that a chunk's intermediates stay cache-resident, so the kernels
#: run at cache bandwidth instead of DRAM bandwidth.  2^17 elements ≈ 1 MB.
CACHE_ELEMENTS = 1 << 17

# Kernel-layer throughput counters: one inc per entry-point call (never
# per element), so the hot path pays two dictionary updates per workload.
_KERNEL_QUERIES = default_registry().counter(
    "repro_kernel_queries_total",
    "Queries processed by the batch geometry kernels",
    labels=("kernel",),
)
_KERNEL_CHUNKS = default_registry().counter(
    "repro_kernel_chunks_total",
    "Memory-bounded query chunks processed by the batch geometry kernels",
    labels=("kernel",),
)


def _query_chunks(
    n: int, per_query_elements: int, kernel: str, budget: int | None = None
) -> Iterator[tuple[int, int]]:
    """Yield ``(start, stop)`` ranges keeping temporaries under budget."""
    budget = CHUNK_ELEMENTS if budget is None else budget
    step = max(1, budget // max(1, int(per_query_elements)))
    if n > 0:
        _KERNEL_CHUNKS.inc(-(-n // step), kernel=kernel)
    for start in range(0, n, step):
        yield start, min(start + step, n)


def boxes_to_arrays(boxes: Sequence[Box]) -> tuple[np.ndarray, np.ndarray]:
    """Stack boxes into ``(n, d)`` low/high coordinate arrays."""
    if len(boxes) == 0:
        raise ValueError("at least one box is required")
    lows = np.stack([b.lows for b in boxes])
    highs = np.stack([b.highs for b in boxes])
    return lows, highs


# ---------------------------------------------------------------------------
# The kernels.  Query operands ``q`` and bucket operands ``b`` broadcast
# against each other; ``b`` is ``(lows, highs, volumes)`` for the volume
# kernels and ``(points,)`` for the membership tests.
# ---------------------------------------------------------------------------


class Staged(NamedTuple):
    """A kernel's values with its boundary pairs gathered, not yet evaluated.

    The ball and halfspace kernels decide most pairs with a few
    comparisons; the rest, the pairs the range's boundary crosses, need
    an exact area whose cost is mostly fixed per call.  A caller holding
    several blocks evaluates all their boundary pairs in one call.
    """

    out: np.ndarray  # decided values; boundary pairs read 0 until filled
    pending: np.ndarray  # flat positions of the boundary pairs in ``out``
    evaluate: Callable | None  # (*operands) -> the boundary pairs' values
    operands: tuple  # one flat array per operand, a pair per entry


_NO_PAIRS = np.empty(0, dtype=np.intp)


def _staged(out, pending, evaluate, *operands) -> Staged:
    """Gather each operand, broadcast against ``out``, at ``pending``.

    Each operand is indexed along its own axes only: a ``(c, 1)`` query
    operand by the pairs' rows, an ``(m,)`` bucket operand by their
    columns.  Raveling its broadcast view would copy all ``c × m``.
    """
    if not pending.size:
        return Staged(out, pending, None, ())
    at = np.unravel_index(pending, out.shape)
    flat = []
    for v in map(np.asarray, operands):
        lead = out.ndim - v.ndim
        picked = v[tuple(0 if n == 1 else at[lead + k] for k, n in enumerate(v.shape))]
        flat.append(picked if picked.shape == pending.shape else np.full(pending.shape, picked))
    return Staged(out, pending, evaluate, tuple(flat))


def _fill(staged: Staged) -> np.ndarray:
    """``staged.out`` with its boundary pairs evaluated."""
    if staged.pending.size:
        np.put(staged.out, staged.pending, staged.evaluate(*staged.operands))
    return staged.out


def box_volume(q, b) -> np.ndarray:
    """``Vol(B ∩ Q)`` for boxes ``q = (lows, highs)``.

    Widths are clamped at 0 and multiplied in dimension order, the same
    operations as :func:`repro.geometry.volume.box_box_intersection_volume`.
    """
    q_lows, q_highs = q
    b_lows, b_highs = b[0], b[1]
    acc = None
    for k in range(len(q_lows)):
        width = np.minimum(q_highs[k], b_highs[k])
        width -= np.maximum(q_lows[k], b_lows[k])
        np.maximum(width, 0.0, out=width)
        if acc is None:
            acc = width
        else:
            acc *= width
    return acc


def halfspace_volume(q, b, active: tuple[int, ...]) -> np.ndarray:
    """``Vol(B ∩ {a·x >= t})`` for halfspaces ``q = (normals, offsets)``.

    ``active`` lists the dimensions whose normal component is not
    (near-)zero, shared by every query of the call.  The others are
    unconstrained and projected out exactly: the inclusion–exclusion
    identity is ill-conditioned in a tiny coefficient.  The box is mapped
    onto the unit cube and negative coefficients are flipped, as in
    :func:`repro.geometry.volume.box_halfspace_intersection_volume`.

    Then the decision tree of the closed forms: a pair whose threshold is
    at most 0 is its bucket volume, one whose threshold reaches the
    coefficient total is 0, and only the remaining boundary pairs are
    gathered into the closed form, which returns exactly those values on
    the first two branches.
    """
    return _fill(_halfspace_staged(q, b, active))


def _halfspace_staged(q, b, active: tuple[int, ...]) -> Staged:
    """:func:`halfspace_volume` up to its boundary pairs' closed form."""
    normals, offsets = q
    b_lows, b_highs, b_volumes = b
    dot = normals[0] * b_lows[0]
    for k in range(1, len(normals)):
        dot = dot + normals[k] * b_lows[k]
    threshold = offsets - dot
    if not active:
        return Staged(np.where(threshold <= 0.0, b_volumes, 0.0), _NO_PAIRS, None, ())
    coeffs = [normals[k] * (b_highs[k] - b_lows[k]) for k in active]
    flipped = np.minimum(coeffs[0], 0.0)
    for c in coeffs[1:]:
        flipped = flipped + np.minimum(c, 0.0)
    threshold = threshold - flipped
    coeffs = [np.abs(c) for c in coeffs]
    if len(coeffs) != 2:
        # Inclusion–exclusion divides by the coefficients' product.
        # Residual zeros only come from zero-width boxes (volume factor 0).
        largest = coeffs[0]
        for c in coeffs[1:]:
            largest = np.maximum(largest, c)
        eps = 1e-12 * np.maximum(1.0, largest)
        coeffs = [np.maximum(c, eps) for c in coeffs]
    total = coeffs[0]
    for c in coeffs[1:]:
        total = total + c
    contained = threshold <= 0.0
    out = np.where(contained, b_volumes, 0.0)
    pending = np.flatnonzero(~contained & ~(threshold >= total))
    return _staged(out, pending, _halfspace_boundary, b_volumes, threshold, *coeffs)


def _halfspace_boundary(volumes, threshold, *coeffs) -> np.ndarray:
    """``Vol(B ∩ H)`` of gathered boundary pairs from their closed form."""
    if len(coeffs) == 2:
        # Cancellation-free closed form, shared with the scalar kernel.
        below = _unit_square_halfspace_fraction(coeffs[0], coeffs[1], threshold)
    else:
        below = _unit_cube_fraction(list(coeffs), threshold)
    return np.maximum(volumes * (1.0 - below), 0.0)


def _unit_cube_fraction(coeffs: list, threshold) -> np.ndarray:
    """Fraction of the unit cube with ``c·y <= t`` by inclusion–exclusion.

    ``sum_v (-1)^|v| max(0, t - c·v)^a / (a! prod c)`` over the cube's
    vertices ``v``; each vertex sum extends a smaller one by its highest
    coordinate, so it is a left-to-right sum of its coefficients.  The
    coefficients are positive, and no threshold at or below 0 or at or
    above their total reaches it (see :func:`halfspace_volume`).
    """
    a_dim = len(coeffs)
    sums = [0.0]
    raw = np.maximum(0.0, threshold) ** a_dim
    for vertex in range(1, 1 << a_dim):
        top = vertex.bit_length() - 1
        sums.append(sums[vertex ^ (1 << top)] + coeffs[top])
        term = np.maximum(0.0, threshold - sums[vertex]) ** a_dim
        raw = raw - term if bin(vertex).count("1") % 2 else raw + term
    product = coeffs[0]
    for c in coeffs[1:]:
        product = product * c
    denom = math.factorial(a_dim) * product
    with np.errstate(divide="ignore", invalid="ignore"):
        below = np.where(denom > 0, raw / denom, 0.0)
    return np.clip(below, 0.0, 1.0)


def ball_volume(q, b) -> np.ndarray:
    """``Vol(B ∩ ball)`` for balls ``q = (centers, radii)``.

    Exact interval overlap in 1-D.  Above, the decision tree of
    :func:`repro.geometry.volume.box_ball_intersection_volume`: a box off
    the ball's bounding box is 0, a box whose farthest corner is inside
    the ball is its volume, and only the remaining boundary pairs are
    gathered and evaluated — by the exact circular-segment area in 2-D
    (:func:`_disc_rect_area`), by the fixed Sobol point set scaled into
    the box clipped to the ball's bounding box above.
    """
    return _fill(_ball_staged(q, b))


def _ball_staged(q, b) -> Staged:
    """:func:`ball_volume` up to its boundary pairs' area."""
    centers, radii = q
    b_lows, b_highs, b_volumes = b
    d = len(centers)
    if d == 1:
        lo = np.maximum(b_lows[0], centers[0] - radii)
        hi = np.minimum(b_highs[0], centers[0] + radii)
        return Staged(np.maximum(hi - lo, 0.0), _NO_PAIRS, None, ())
    clip_lows = [np.maximum(b_lows[k], centers[k] - radii) for k in range(d)]
    clip_highs = [np.minimum(b_highs[k], centers[k] + radii) for k in range(d)]
    # Boxes off the ball's bounding box are exactly 0, as pruned pairs are.
    empty = clip_lows[0] > clip_highs[0]
    for k in range(1, d):
        empty = empty | (clip_lows[k] > clip_highs[k])
    corner = None
    for k in range(d):
        reach = np.maximum(np.abs(b_lows[k] - centers[k]), np.abs(b_highs[k] - centers[k]))
        corner = reach**2 if corner is None else corner + reach**2
    contained = corner <= radii**2 + 1e-15
    out = np.where(~empty & contained, b_volumes, 0.0)
    pending = np.flatnonzero(~empty & ~contained)
    if d == 2:
        corners = (b_lows[0], b_lows[1], b_highs[0], b_highs[1])
        return _staged(out, pending, _disc_rect_area, *corners, *centers, radii)
    return _staged(out, pending, _qmc_volumes, *clip_lows, *clip_highs, *centers, radii)


def _qmc_volumes(*operands) -> np.ndarray:
    """Quasi-MC ``Vol(box ∩ ball)`` for flat arrays of pending pairs: the
    ``d`` clipped lows, ``d`` clipped highs and ``d`` centre coordinates,
    then the radii."""
    d = len(operands) // 3
    lows, highs, centers, radii = (
        operands[:d], operands[d : 2 * d], operands[2 * d : 3 * d], operands[-1]
    )
    unit = _qmc_unit_points(d, QMC_POINTS)  # the scalar path's point set
    points = unit.shape[0]
    out = np.empty(radii.shape[0])
    step = max(1, CHUNK_ELEMENTS // (points * d))
    for start in range(0, out.shape[0], step):
        part = slice(start, start + step)
        volume = None
        sq_dist = None
        for k in range(d):
            width = highs[k][part] - lows[k][part]
            volume = width if volume is None else volume * width
            diff = (lows[k][part, None] + unit[:, k] * width[:, None]) - centers[k][part, None]
            sq_dist = diff**2 if sq_dist is None else sq_dist + diff**2
        inside = sq_dist <= radii[part, None] ** 2 + _EPS
        out[part] = volume * np.mean(inside, axis=1)
    return out


def _disc_rect_area(x0, y0, x1, y1, cx, cy, r) -> np.ndarray:
    """Area of ``[x0, x1] × [y0, y1]`` ∩ the disc of radius ``r`` at ``(cx, cy)``.

    The box is moved so that the disc sits at 0, then the quadrant
    inclusion–exclusion of :func:`repro.geometry.volume._rect_disc_area_2d`
    runs over flat arrays, in the scalar quadrant's operation order.  ``G``, the antiderivative of
    ``sqrt(r² - X²)``, is evaluated once per distinct point: at ``-r``, at
    each clipped x edge and at the two band ends of each corner.
    """
    x0, y0, x1, y1 = x0 - cx, y0 - cy, x1 - cx, y1 - cy
    r2 = r * r
    r_safe = np.where(r > 0.0, r, 1.0)

    def antiderivative(t):
        t = np.clip(t, -r, r)
        return 0.5 * (t * np.sqrt(np.maximum(r2 - t * t, 0.0)) + r2 * np.arcsin(t / r_safe))

    def integral(a, b, g_a, g_b):
        """Integral of sqrt(r² - X²) over [a, b] (0 when b <= a)."""
        return np.where(b > a, g_b - g_a, 0.0)

    a = -r
    g_a = antiderivative(a)

    def edge(x):
        """An x edge, the edge clipped at r, G there, and the integral of
        the disc's columns left of it."""
        b = np.minimum(x, r)
        g_b = antiderivative(b)
        return x, b, g_b, integral(a, b, g_a, g_b)

    def chord(y):
        """A y edge, the edge clipped into [-r, r], and the half-width of
        the disc's chord there."""
        y_clip = np.clip(y, -r, r)
        return y, y_clip, np.sqrt(np.maximum(r2 - y_clip * y_clip, 0.0))

    def quadrant(x_edge, y_chord):
        """Area of ``{X² + Y² <= r², X <= x, Y <= y}``."""
        x, b, g_b, whole = x_edge
        y, y_clip, x_star = y_chord
        # The columns reaching above y, (-x*, x*), clamped into [a, b].
        lo = np.minimum(np.maximum(a, -x_star), b)
        hi = np.maximum(np.minimum(b, x_star), a)
        g_lo = antiderivative(lo)
        g_hi = antiderivative(hi)
        has_band = hi > lo
        pos_area = whole + np.where(
            has_band,
            y_clip * (hi - lo) + integral(a, lo, g_a, g_lo) + integral(hi, b, g_hi, g_b),
            whole,
        )
        neg_area = np.where(has_band, y_clip * (hi - lo) + integral(lo, hi, g_lo, g_hi), 0.0)
        partial_area = np.where(y_clip >= 0.0, pos_area, neg_area)
        area = np.where(y >= r, 2.0 * whole, partial_area)
        dead = (x <= -r) | (y <= -r) | (r <= 0.0)
        return np.where(dead, 0.0, np.maximum(area, 0.0))

    left, right = edge(x0), edge(x1)
    bottom, top = chord(y0), chord(y1)
    area = (
        quadrant(right, top)
        - quadrant(left, top)
        - quadrant(right, bottom)
        + quadrant(left, bottom)
    )
    return np.maximum(area, 0.0)


def box_contains(q, b) -> np.ndarray:
    """``1(p ∈ Q)`` for boxes, with ``Box.contains``'s closure epsilon."""
    q_lows, q_highs = q
    points = b[0]
    inside = None
    for k in range(len(q_lows)):
        hit = (points[k] >= q_lows[k] - _EPS) & (points[k] <= q_highs[k] + _EPS)
        inside = hit if inside is None else inside & hit
    return inside


def halfspace_contains(q, b) -> np.ndarray:
    """``1(a·p >= t)`` for halfspaces, with ``Halfspace.contains``'s epsilon."""
    normals, offsets = q
    points = b[0]
    dot = normals[0] * points[0]
    for k in range(1, len(normals)):
        dot = dot + normals[k] * points[k]
    return dot >= offsets - _EPS


def ball_contains(q, b) -> np.ndarray:
    """``1(|p - c| <= r)`` for balls, with ``Ball.contains``'s epsilon."""
    centers, radii = q
    points = b[0]
    sq_dist = None
    for k in range(len(centers)):
        diff = points[k] - centers[k]
        sq_dist = diff**2 if sq_dist is None else sq_dist + diff**2
    return sq_dist <= radii**2 + _EPS


# ---------------------------------------------------------------------------
# Workload grouping: which kernel runs which query rows
# ---------------------------------------------------------------------------


class KernelGroup(NamedTuple):
    """Query rows of one workload that share a kernel."""

    kind: str  # range family: "box", "halfspace" or "ball"
    idx: np.ndarray  # positions of the rows in the workload
    ops: tuple  # dimension-major query operands
    volume: Callable  # (ops, bucket operands) -> Vol(B ∩ R)
    contains: Callable  # (ops, (points,)) -> 1(p ∈ R)
    width: int  # float64 temporaries per pair, for chunking
    staged: Callable | None = None  # (ops, bucket operands) -> Staged


class GroupedQueries(list):
    """A query list that carries its :func:`kernel_groups` split.

    The dense entry points accept it in place of a plain list, so a
    caller that has already grouped a workload does not group it twice.
    """

    def __init__(self, queries, groups: list[KernelGroup], other: list[int]):
        super().__init__(queries)
        self.groups = groups
        self.other = other


def _workload(queries) -> list:
    return queries if isinstance(queries, GroupedQueries) else list(queries)


def _dim_major(rows: list) -> np.ndarray:
    # One concatenate is ~3x cheaper than np.stack on many small rows, but
    # it would silently re-pair the coordinates of rows of unequal length.
    dims = set(map(len, rows))
    if len(dims) > 1:
        raise ValueError(f"queries of one range family differ in dimension: {sorted(dims)}")
    return np.ascontiguousarray(np.concatenate(rows).reshape(len(rows), -1).T)


def kernel_groups(queries: Sequence[Range]) -> tuple[list[KernelGroup], list[int]]:
    """Split a workload into kernel groups plus the rows without a kernel.

    Halfspaces are grouped by their active pattern (see
    :func:`halfspace_volume`); unions and semi-algebraic ranges have no
    batch kernel and are returned as plain positions.
    """
    if isinstance(queries, GroupedQueries):
        return queries.groups, queries.other
    boxes: list[int] = []
    halfspaces: list[int] = []
    balls: list[int] = []
    other: list[int] = []
    for i, query in enumerate(queries):
        if isinstance(query, Box):
            boxes.append(i)
        elif isinstance(query, Halfspace):
            halfspaces.append(i)
        elif isinstance(query, Ball):
            balls.append(i)
        else:
            other.append(i)
    groups = []
    if boxes:
        ops = (
            _dim_major([queries[i].lows for i in boxes]),
            _dim_major([queries[i].highs for i in boxes]),
        )
        width = 2 + ops[0].shape[0]
        groups.append(KernelGroup("box", np.asarray(boxes), ops, box_volume, box_contains, width))
    if halfspaces:
        normals = np.stack([queries[i].normal for i in halfspaces])
        offsets = np.array([queries[i].offset for i in halfspaces])
        scales = np.maximum(1.0, np.max(np.abs(normals), axis=1))
        active = np.abs(normals) > 1e-15 * scales[:, None]
        patterns, inverse = np.unique(active, axis=0, return_inverse=True)
        inverse = np.ravel(inverse)
        for p_idx, pattern in enumerate(patterns):
            sel = np.flatnonzero(inverse == p_idx)
            dims = tuple(int(k) for k in np.flatnonzero(pattern))
            groups.append(
                KernelGroup(
                    "halfspace",
                    np.asarray(halfspaces)[sel],
                    (np.ascontiguousarray(normals[sel].T), offsets[sel]),
                    partial(halfspace_volume, active=dims),
                    halfspace_contains,
                    (1 << len(dims)) + 2 * len(dims) + 4,
                    partial(_halfspace_staged, active=dims),
                )
            )
    if balls:
        ops = (
            _dim_major([queries[i].ball_center for i in balls]),
            np.array([queries[i].radius for i in balls]),
        )
        width = 8 + 3 * ops[0].shape[0]
        groups.append(
            KernelGroup(
                "ball", np.asarray(balls), ops, ball_volume, ball_contains, width, _ball_staged
            )
        )
    return groups, other


def check_dimension(groups: list[KernelGroup], d: int) -> None:
    """Raise ``ValueError`` unless every group's queries are ``d``-dimensional.

    Query operands meet the ``d``-dimensional bucket (or point) operands
    here; a mismatch would broadcast into a wrong answer or fail deep in
    a kernel.
    """
    for group in groups:
        if group.ops[0].shape[0] != d:
            raise ValueError(
                f"{group.kind} query of dimension {group.ops[0].shape[0]} "
                f"against {d}-dimensional data"
            )


def bucket_operands(b_lows, b_highs, b_volumes=None) -> tuple:
    """Dimension-major ``(lows, highs, volumes)`` for the volume kernels."""
    b_lows = np.asarray(b_lows, dtype=float)
    b_highs = np.asarray(b_highs, dtype=float)
    if b_volumes is None:
        b_volumes = np.prod(b_highs - b_lows, axis=1)
    return (
        np.ascontiguousarray(b_lows.T),
        np.ascontiguousarray(b_highs.T),
        np.asarray(b_volumes, dtype=float),
    )


def _dense_rows(fn, group: KernelGroup, b, m: int, kernel: str, budget=None):
    """Yield ``(start, stop, values)`` for query-row blocks of one group."""
    for start, stop in _query_chunks(group.idx.size, m * group.width, kernel, budget):
        block = tuple(a[..., start:stop, None] for a in group.ops)
        yield start, stop, fn(block, b)


def _gathered_rows(group: KernelGroup, b, m: int):
    """``_dense_rows`` of a kernel with a boundary stage, for the fused dot.

    Each ``CACHE_ELEMENTS`` block is decided as it comes and held; the
    boundary pairs of all held blocks are then evaluated in one call,
    whose cost is mostly fixed (a 2-D ball block against a few thousand
    buckets is two query rows).  The held values, times the kernel's
    temporaries per pair, stay within ``CHUNK_ELEMENTS``, so that call's
    temporaries stay within a dense block's budget.
    """
    held, size = [], 0
    limit = CHUNK_ELEMENTS // group.width
    for start, stop, staged in _dense_rows(
        group.staged, group, b, m, "coverage_dot", CACHE_ELEMENTS
    ):
        if held and size + staged.out.size > limit:
            yield from _evaluated(held)
            held, size = [], 0
        held.append((start, stop, staged))
        size += staged.out.size
    yield from _evaluated(held)


def _evaluated(held: list):
    """Evaluate held blocks' boundary pairs in one call; yield the blocks.

    The boundary stage is elementwise, so a pair's value does not depend
    on the pairs it is evaluated with.
    """
    waiting = [staged for _, _, staged in held if staged.pending.size]
    if waiting:
        operands = [np.concatenate(parts) for parts in zip(*(s.operands for s in waiting))]
        values = waiting[0].evaluate(*operands)
        ends = np.cumsum([s.pending.size for s in waiting])[:-1]
        for staged, part in zip(waiting, np.split(values, ends)):
            np.put(staged.out, staged.pending, part)
    for start, stop, staged in held:
        yield start, stop, staged.out


def _other_volumes(query: Range, b) -> np.ndarray:
    """Per-bucket volumes for a range family without a batch kernel."""
    return np.array(
        [intersection_volume(Box(lo, hi), query) for lo, hi in zip(b[0].T, b[1].T)]
    )


# ---------------------------------------------------------------------------
# Dense entry points
# ---------------------------------------------------------------------------


def intersection_volume_matrix(
    queries: Sequence[Range],
    b_lows: np.ndarray,
    b_highs: np.ndarray,
    b_volumes: np.ndarray | None = None,
) -> np.ndarray:
    """``Vol(B_j ∩ R_i)`` for a mixed workload against one bucket set.

    Rows come back in workload order.  Range types without a batch kernel
    (unions, semi-algebraic sets) fall back to the single-pair functions,
    so any workload is accepted.  ``b_volumes`` (cached box volumes) saves
    recomputing them per call.
    """
    queries = _workload(queries)
    b = bucket_operands(b_lows, b_highs, b_volumes)
    n, m = len(queries), b[2].shape[0]
    _KERNEL_QUERIES.inc(n, kernel="volume_matrix")
    out = np.empty((n, m))
    groups, other = kernel_groups(queries)
    check_dimension(groups, b[0].shape[0])
    for group in groups:
        for start, stop, values in _dense_rows(group.volume, group, b, m, "volume_matrix"):
            out[group.idx[start:stop]] = values
    for i in other:
        out[i] = _other_volumes(queries[i], b)
    return out


def batch_intersection_volumes(lows: np.ndarray, highs: np.ndarray, range_: Range) -> np.ndarray:
    """``Vol(B_j ∩ range)`` for many boxes: one query row of the dense path."""
    return intersection_volume_matrix([range_], lows, highs)[0]


def coverage_matrix(
    queries: Sequence[Range],
    b_lows: np.ndarray,
    b_highs: np.ndarray,
    b_volumes: np.ndarray | None = None,
) -> np.ndarray:
    """Design matrix ``Vol(B_j ∩ R_i)/Vol(B_j)`` clipped to [0, 1].

    This is Eq. (8)'s coefficient matrix for a whole workload in one call;
    zero-volume buckets contribute 0 (they can carry no density).
    """
    b_lows = np.asarray(b_lows, dtype=float)
    b_highs = np.asarray(b_highs, dtype=float)
    if b_volumes is None:
        b_volumes = np.prod(b_highs - b_lows, axis=1)
    else:
        b_volumes = np.asarray(b_volumes, dtype=float)
    overlaps = intersection_volume_matrix(queries, b_lows, b_highs, b_volumes)
    return fractions(overlaps, b_volumes)


def fractions(overlaps: np.ndarray, b_volumes: np.ndarray) -> np.ndarray:
    """``overlaps / Vol(B)`` clipped to [0, 1]; zero-volume buckets give 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(b_volumes > 0, overlaps / b_volumes, 0.0)
    return np.clip(out, 0.0, 1.0)


def coverage_dot(
    queries: Sequence[Range],
    b_lows: np.ndarray,
    b_highs: np.ndarray,
    b_volumes: np.ndarray | None,
    weights: np.ndarray,
) -> np.ndarray:
    """Fused prediction kernel: ``coverage_matrix(...) @ weights`` without
    materialising the full matrix.

    Histogram prediction reduces a coverage *row* to one number, so the
    ``(n, m)`` matrix is pure intermediate state.  Computing it in
    cache-sized query blocks (``CACHE_ELEMENTS``) keeps every temporary
    resident in cache — the dominant cost of the matrix path is DRAM
    traffic, not arithmetic.  Box rows fold the bucket normalisation into
    the weights once: a box overlap never exceeds the bucket volume, by
    monotonicity of floating-point min/sub/mul, so the divide + clip is a
    per-entry no-op for them.  Ball and halfspace rows evaluate the
    boundary pairs of many blocks in one call (:func:`_gathered_rows`)
    before each block's product, so values and products are those of the
    per-block kernels.
    """
    queries = _workload(queries)
    b = bucket_operands(b_lows, b_highs, b_volumes)
    volumes = b[2]
    weights = np.asarray(weights, dtype=float)
    n, m = len(queries), volumes.shape[0]
    _KERNEL_QUERIES.inc(n, kernel="coverage_dot")
    out = np.empty(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        folded = np.where(volumes > 0.0, weights / volumes, 0.0)
    groups, other = kernel_groups(queries)
    check_dimension(groups, b[0].shape[0])
    for group in groups:
        if group.staged is None:
            rows = _dense_rows(group.volume, group, b, m, "coverage_dot", CACHE_ELEMENTS)
        else:
            rows = _gathered_rows(group, b, m)
        for start, stop, values in rows:
            if group.kind == "box" and len(group.ops[0]) == 1:
                out[group.idx[start:stop]] = values @ folded
            elif group.kind == "box":
                # The ones operand keeps einsum's three-operand summation
                # order, which saved models' predictions are pinned to.
                ones = np.broadcast_to(1.0, values.shape)
                out[group.idx[start:stop]] = np.einsum("ij,ij,j->i", values, ones, folded)
            else:
                out[group.idx[start:stop]] = fractions(values, volumes) @ weights
    for i in other:
        out[i] = fractions(_other_volumes(queries[i], b), volumes) @ weights
    return out


def containment_matrix(queries: Sequence[Range], points: np.ndarray) -> np.ndarray:
    """Batch membership ``1(p_k ∈ R_i)`` as an ``(n, p)`` float matrix.

    Boxes, halfspaces and balls are evaluated with the same comparisons as
    their ``contains`` methods (including the ``±1e-12`` closure epsilon);
    other range types fall back to their own vectorised ``contains``.
    """
    queries = _workload(queries)
    pts = np.asarray(points, dtype=float)
    n, p = len(queries), pts.shape[0]
    _KERNEL_QUERIES.inc(n, kernel="containment")
    out = np.empty((n, p))
    b = (np.ascontiguousarray(pts.T),)
    groups, other = kernel_groups(queries)
    check_dimension(groups, b[0].shape[0])
    for group in groups:
        for start, stop, inside in _dense_rows(group.contains, group, b, p, "containment"):
            out[group.idx[start:stop]] = inside
    for i in other:
        out[i] = np.asarray(queries[i].contains(pts), dtype=float)
    return out
