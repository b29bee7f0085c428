"""Predictions one (bucket, query) pair at a time, kept as a test oracle.

QuadHist, KdHist, ISOMER and the arrangement ERM's histogram mode weight
disjoint box buckets, QuickSel weights overlapping box kernels, and
STHoles weights regions, each a box minus its children's boxes.  All of
them predict through the batch kernels of :mod:`repro.geometry.batch` and
:mod:`repro.geometry.sparse`, and their ``predict`` is a one-query
``predict_many``.  This module computes the same raw estimates from the
single-pair :func:`repro.geometry.volume.intersection_volume`, so it
shares no kernel code with the code under test:

* boxes and kernels: ``Σ_j w_j · clip(Vol(B_j ∩ R)/Vol(B_j), 0, 1)``;
* STHoles: the same over regions, ``Vol(region_j ∩ R)`` being
  ``Vol(box_j ∩ R)`` minus each child's ``Vol(box_c ∩ R)``, subtracted in
  child order.

It also keeps STHoles' per-child column loop, the reference for its
ordered region subtraction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.stholes import _MIN_VOLUME, STHoles
from repro.geometry.ranges import Box, Range
from repro.geometry.volume import intersection_volume


def _box_prediction(lows, highs, weights, query: Range) -> float:
    total = 0.0
    for lo, hi, weight in zip(lows, highs, weights):
        box = Box(lo, hi)
        volume = box.volume()
        if volume > 0.0:
            total += weight * min(max(intersection_volume(box, query) / volume, 0.0), 1.0)
    return total


def _region_prediction(est: STHoles, query: Range) -> float:
    total = 0.0
    for bucket, weight in zip(est._root.walk(), est._weights):
        overlap = intersection_volume(bucket.box, query)
        for child in bucket.children:
            overlap -= intersection_volume(child.box, query)
        volume = bucket.region_volume()
        if volume > _MIN_VOLUME:
            total += weight * min(max(overlap / volume, 0.0), 1.0)
    return total


def raw_predictions(est, queries: Sequence[Range]) -> np.ndarray:
    """``est``'s raw (unclamped) estimates, one pair at a time."""
    if isinstance(est, STHoles):
        return np.array([_region_prediction(est, q) for q in queries])
    return np.array([_box_prediction(est._lows, est._highs, est._weights, q) for q in queries])


def child_loop_fractions(est: STHoles, box_overlaps: np.ndarray) -> np.ndarray:
    """STHoles' region fractions from a ``(queries × boxes)`` overlap block,
    each child column subtracted from its parent's in a per-child loop."""
    buckets = list(est._root.walk())
    row = {id(b): i for i, b in enumerate(buckets)}
    regions = box_overlaps.copy()
    for i, bucket in enumerate(buckets):
        for child in bucket.children:
            regions[:, i] -= box_overlaps[:, row[id(child)]]
    volumes = est._region_volumes[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        fractions = np.where(
            volumes > _MIN_VOLUME, regions / np.maximum(volumes, _MIN_VOLUME), 0.0
        )
    return np.clip(fractions, 0.0, 1.0)
