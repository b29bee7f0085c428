"""Geometric substrate: query ranges, volumes, sampling, and arrangements.

Every query class studied in the paper (orthogonal ranges, halfspaces,
Euclidean balls, semi-algebraic sets, disc-intersection ranges) is modelled
here as a :class:`~repro.geometry.ranges.Range` with a uniform interface:
membership tests, bounding boxes, and (intersection) volumes against
axis-aligned boxes.  The learning algorithms in :mod:`repro.core` are written
against that interface only, which is what makes them generic across query
classes -- mirroring the genericity claim of Section 3 of the paper.
"""

from repro.geometry.ranges import (
    Ball,
    Box,
    DiscIntersectionRange,
    Halfspace,
    Range,
    SemiAlgebraicRange,
    UnionRange,
    unit_box,
)
from repro.geometry.volume import (
    ball_volume,
    box_ball_intersection_volume,
    box_box_intersection_volume,
    box_halfspace_intersection_volume,
    intersection_volume,
    unit_ball_volume,
)
from repro.geometry.sampling import (
    halfspace_bounding_box,
    rejection_sample,
    sample_in_box,
    smallest_bounding_box,
)
from repro.geometry.arrangement import (
    box_arrangement_cells,
    sign_vector_cells,
)
from repro.geometry.batch import (
    boxes_to_arrays,
    containment_matrix,
    coverage_matrix,
    intersection_volume_matrix,
)
from repro.geometry.index import (
    BucketIndex,
    PackedRTreeIndex,
    UniformGridIndex,
    build_bucket_index,
)
from repro.geometry.sparse import sparse_containment_dot, sparse_coverage_dot

__all__ = [
    "Ball",
    "Box",
    "DiscIntersectionRange",
    "Halfspace",
    "Range",
    "SemiAlgebraicRange",
    "UnionRange",
    "unit_box",
    "ball_volume",
    "box_ball_intersection_volume",
    "box_box_intersection_volume",
    "box_halfspace_intersection_volume",
    "intersection_volume",
    "unit_ball_volume",
    "halfspace_bounding_box",
    "rejection_sample",
    "sample_in_box",
    "smallest_bounding_box",
    "box_arrangement_cells",
    "sign_vector_cells",
    "boxes_to_arrays",
    "intersection_volume_matrix",
    "coverage_matrix",
    "containment_matrix",
    "BucketIndex",
    "UniformGridIndex",
    "PackedRTreeIndex",
    "build_bucket_index",
    "sparse_coverage_dot",
    "sparse_containment_dot",
]
