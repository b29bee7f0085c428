"""Uniform sampling from range interiors (Appendix A.2 of the paper).

PtsHist seeds its buckets with points drawn uniformly from the interiors of
training-query ranges (:func:`sample_support`, which GaussianMixtureHist
shares for its component means).  For boxes this is a per-dimension
uniform draw; for halfspaces and balls (and any other range) the paper
uses *rejection sampling* from the smallest bounding box.  The halfspace
bounding box is tightened by the interval fixpoint iteration of Appendix
A.2, implemented in :func:`halfspace_bounding_box`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.ranges import Box, Halfspace, Range, unit_box

__all__ = [
    "sample_in_box",
    "smallest_bounding_box",
    "halfspace_bounding_box",
    "rejection_sample",
    "sample_support",
]

#: Rejection sampling gives up after this many candidate batches and falls
#: back to the nearest feasible points found so far (Appendix A.2 notes the
#: generic approach offers "adequate performance in practice"; the cap keeps
#: degenerate, near-measure-zero ranges from looping forever).
_MAX_BATCHES = 64


def sample_in_box(box: Box, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample of ``count`` points from an axis-aligned box."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    unit = rng.random((count, box.dim))
    return box.lows + unit * box.widths


def halfspace_bounding_box(halfspace: Halfspace, domain: Box) -> Box:
    """Smallest box containing ``halfspace ∩ domain`` (Appendix A.2 fixpoint).

    Starting from the domain box, each dimension's interval is tightened
    using the extremes the constraint permits given the other dimensions'
    current intervals, iterating until no interval changes.  For a single
    linear constraint one pass already reaches the fixpoint, but we iterate
    anyway to match the appendix's description (and to stay correct if the
    domain is not the unit cube).
    """
    if halfspace.dim != domain.dim:
        raise ValueError("dimension mismatch between halfspace and domain")
    lows = domain.lows.copy()
    highs = domain.highs.copy()
    normal = halfspace.normal
    offset = halfspace.offset
    for _ in range(halfspace.dim + 1):
        changed = False
        # Largest achievable contribution of each dimension to a.x.
        best = np.maximum(normal * lows, normal * highs)
        total_best = float(np.sum(best))
        for axis in range(halfspace.dim):
            coeff = normal[axis]
            if coeff == 0.0:
                continue
            others_best = total_best - best[axis]
            bound = (offset - others_best) / coeff
            if coeff > 0.0 and bound > lows[axis] + 1e-15:
                lows[axis] = min(bound, highs[axis])
                changed = True
            elif coeff < 0.0 and bound < highs[axis] - 1e-15:
                highs[axis] = max(bound, lows[axis])
                changed = True
            if changed:
                best[axis] = max(coeff * lows[axis], coeff * highs[axis])
                total_best = float(np.sum(best))
        if not changed:
            break
    if np.any(lows > highs):
        # Empty intersection: collapse to a boundary point of the domain.
        point = np.clip(lows, domain.lows, domain.highs)
        return Box(point, point)
    return Box(lows, highs)


def smallest_bounding_box(range_: Range, domain: Box | None = None) -> Box:
    """Smallest axis-aligned box containing ``range ∩ domain``."""
    if domain is None:
        domain = unit_box(range_.dim)
    if isinstance(range_, Halfspace):
        return halfspace_bounding_box(range_, domain)
    bbox = range_.bounding_box()
    clipped = bbox.intersect(domain)
    if clipped is None:
        point = np.clip(bbox.lows, domain.lows, domain.highs)
        return Box(point, point)
    return clipped


def rejection_sample(
    range_: Range,
    count: int,
    rng: np.random.Generator,
    domain: Box | None = None,
) -> np.ndarray:
    """Draw ``count`` (approximately) uniform points from ``range ∩ domain``.

    Implements Appendix A.2: sample uniformly from the smallest bounding box
    and keep points that fall inside the range.  If the acceptance rate is
    pathologically low the sampler stops after a bounded number of batches
    and pads the result with the accepted points recycled (or, if nothing
    was ever accepted, with bounding-box points) — PtsHist only needs the
    points as bucket *positions*, so graceful degradation is preferable to
    an unbounded loop.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if count == 0:
        return np.empty((0, range_.dim))
    if domain is None:
        domain = unit_box(range_.dim)
    bbox = smallest_bounding_box(range_, domain)
    if isinstance(range_, Box):
        inner = range_.intersect(domain)
        target = inner if inner is not None else bbox
        return sample_in_box(target, count, rng)
    if bbox.volume() <= 0.0:
        return np.tile(bbox.lows, (count, 1))

    accepted: list[np.ndarray] = []
    total = 0
    batch = max(count, 32)
    for _ in range(_MAX_BATCHES):
        candidates = sample_in_box(bbox, batch, rng)
        keep = candidates[np.asarray(range_.contains(candidates))]
        if keep.size:
            accepted.append(keep)
            total += keep.shape[0]
        if total >= count:
            break
    if not accepted:
        return np.tile(bbox.center(), (count, 1))
    points = np.concatenate(accepted, axis=0)
    if points.shape[0] >= count:
        return points[:count]
    # Recycle accepted points (with replacement) to reach the requested size.
    extra_idx = rng.integers(0, points.shape[0], size=count - points.shape[0])
    return np.concatenate([points, points[extra_idx]], axis=0)


def sample_support(
    ranges: Sequence[Range],
    selectivities: np.ndarray,
    size: int,
    interior_fraction: float,
    domain: Box,
    rng: np.random.Generator,
) -> np.ndarray:
    """``size`` support points by the two-step procedure of Section 3.3.

    ``interior_fraction * size`` points are drawn from the interiors of
    ``ranges``, each range's share proportional to its selectivity in
    ``[0, 1]`` (with largest-remainder rounding, so the shares sum to the
    interior count); the rest are uniform over ``domain``, so that density
    can reach regions no range covers.  With no positive selectivity
    every point is uniform.
    """
    n_interior = int(round(interior_fraction * size))
    n_uniform = size - n_interior
    total_sel = float(selectivities.sum())
    chunks: list[np.ndarray] = []
    if n_interior > 0 and total_sel > 0:
        raw = selectivities / total_sel * n_interior
        counts = np.floor(raw).astype(int)
        shortfall = n_interior - int(counts.sum())
        if shortfall > 0:
            order = np.argsort(-(raw - counts))
            counts[order[:shortfall]] += 1
        for range_, count in zip(ranges, counts):
            if count > 0:
                chunks.append(rejection_sample(range_, int(count), rng, domain))
    else:
        n_uniform = size
    if n_uniform > 0:
        chunks.append(sample_in_box(domain, n_uniform, rng))
    # Float error in the shares can add an interior point, never drop one.
    return np.concatenate(chunks, axis=0)[:size]
