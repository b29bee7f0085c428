"""Sparse prediction kernels: evaluate Eqs. (6)–(7) only on candidate pairs.

The dense path of :mod:`repro.geometry.batch` computes every entry of the
``(n_queries × n_buckets)`` coverage matrix even though most entries of a
typical workload are exactly zero.  Prediction reduces each row to one
number, so given a :class:`~repro.geometry.index.BucketIndex` over the
bucket bounding boxes, this module runs the same per-family kernels
**only on the candidate (query, bucket) pairs** the index reports and
reduces them per query:

* :func:`sparse_coverage_dot` — the prediction hot path,
  ``coverage_matrix(...) @ weights`` without touching pruned pairs;
* :func:`sparse_containment_dot` — the Eq. (7) membership analogue for
  point-support models.

Design matrices are built by the dense entry points
(:func:`~repro.geometry.batch.coverage_matrix`,
:func:`~repro.geometry.batch.intersection_volume_matrix`,
:func:`~repro.geometry.batch.containment_matrix`): Eq. (8) needs every
entry, so the index could only skip kernel arithmetic, at the price of an
estimate, a zero fill and a scatter.

Numerical contract: a candidate pair goes through the dense path's own
kernel, and pruned pairs are pairs whose bounding boxes are disjoint,
which that kernel evaluates to exactly ``0.0``; the pair values are
bitwise the dense matrix entries, and a fused dot differs from the dense
one only in summation order.

Which rows run sparse is one cost comparison per query row, made before
any lookup.  Dense work is ``m`` kernel entries.  Sparse work is the
index's O(n·d) estimate of the cells it would visit and the bucket
entries it would gather (:meth:`~repro.geometry.index.BucketIndex
.lookup_estimate`), each gathered entry then evaluated as a pair.  A call
pays a fixed cost on top, so rows go sparse only when their summed saving
beats it.  Box and ball rows are routed; halfspaces (which have no finite
bounding box) and range families without a kernel (unions, semi-algebraic
sets) always run dense.  The per-unit costs are constants, measured as
described below; ``repro_sparse_calls_total{kernel,path}`` counts every
predicted row's outcome and ``repro_sparse_candidates`` /
``repro_sparse_pruned_frac`` the pairs the index emitted.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.batch import (
    CHUNK_ELEMENTS,
    GroupedQueries,
    KernelGroup,
    bucket_operands,
    check_dimension,
    containment_matrix,
    coverage_dot,
    fractions,
    kernel_groups,
)
from repro.geometry.index import BucketIndex
from repro.geometry.ranges import _EPS
from repro.observability.metrics import default_registry

__all__ = ["sparse_coverage_dot", "sparse_containment_dot"]

# Per-unit costs of the rule, in nanoseconds, measured by
# ``python benchmarks/bench_sparse.py`` on a 2-core host (Python 3.11,
# NumPy 2.4).  Its "calibration" section in
# benchmarks/results/BENCH_sparse.json records the values in use next to
# a fresh measurement.  Only their ratios matter: a re-measured constant
# is the median over runs of its ratio to the dense box entry, times the
# 4.5 ns in use for that entry.

#: One (query, bucket) entry of a dense kernel, per family; "contains"
#: is a membership test of any family.  A dense ball group evaluates the
#: boundary pairs of all its blocks in one call, whose cost is mostly
#: fixed; a sparse call pays one more.
DENSE_NS = {"box": 4.5, "ball": 30.0, "contains": 1.8}
#: One estimated bucket entry through a pair kernel and the scatter.
PAIR_NS = {"box": 33.0, "ball": 100.0, "contains": 76.0}
#: One grid cell or tree node visited, or one bucket entry gathered and
#: sorted, by a box lookup.
VISIT_NS = 46.0
#: Fixed cost of one sparse call per family: lookup set-up and scatter.
CALL_NS = 290_000.0

_SPARSE_CANDIDATES = default_registry().counter(
    "repro_sparse_candidates",
    "Candidate (query, bucket) pairs emitted by the spatial index",
    labels=("kernel",),
)
_SPARSE_PRUNED_FRAC = default_registry().gauge(
    "repro_sparse_pruned_frac",
    "Fraction of (query, bucket) pairs pruned by the spatial index (last call)",
    labels=("kernel",),
)
_SPARSE_CALLS = default_registry().counter(
    "repro_sparse_calls_total",
    "Sparse/dense dispatch decisions, one per query row, by family and chosen path",
    labels=("kernel", "path"),
)

#: Bounding-box padding for candidate lookups feeding containment tests:
#: ``contains`` uses a ``±1e-12`` closure epsilon (and ``sqrt`` of it for
#: squared ball distances), so candidate boxes grow by sqrt(_EPS).
_CONTAIN_PAD = float(np.sqrt(_EPS))


def _sparse_rows(n: int, dense_ns: float, sparse_ns) -> np.ndarray:
    """The cost rule: which of ``n`` rows run sparse.

    ``dense_ns`` is one row's dense cost; ``sparse_ns()`` returns each
    row's estimated sparse cost and is not called when even a free
    sparse path could not save the fixed per-call cost.
    """
    if dense_ns * n <= CALL_NS:
        return np.zeros(n, dtype=bool)
    saving = np.maximum(dense_ns - sparse_ns(), 0.0)
    if saving.sum() <= CALL_NS:
        return np.zeros(n, dtype=bool)
    return saving > 0.0


def _route(group: KernelGroup, index: BucketIndex, contains: bool):
    """Sparse-row mask of one group, and its candidate lookup."""
    if group.kind == "halfspace":
        # No finite bounding box, and the corner test that could prune its
        # buckets costs more per bucket than a dense halfspace entry.
        return np.zeros(group.idx.size, dtype=bool), None
    cost = "contains" if contains else group.kind
    pad = _CONTAIN_PAD if contains else 0.0
    if group.kind == "box":
        lows, highs = group.ops[0].T - pad, group.ops[1].T + pad
    else:
        centers, radii = group.ops
        lows, highs = (centers - (radii + pad)).T, (centers + (radii + pad)).T

    def estimate():
        visits, entries = index.lookup_estimate(lows, highs)
        return VISIT_NS * (visits + entries) + PAIR_NS[cost] * entries

    def lookup(sel):
        indptr, cols = index.candidates_for_boxes(lows[sel], highs[sel])
        return np.repeat(np.arange(sel.size), np.diff(indptr)), cols

    return _sparse_rows(group.idx.size, DENSE_NS[cost] * index.m, estimate), lookup


def _split(queries: list, index: BucketIndex, b_volumes, contains: bool):
    """Route every row of a workload to the dense or the sparse path.

    Returns the workload positions of the dense rows, those rows as
    :class:`~repro.geometry.batch.GroupedQueries` for the dense entry
    points, and one ``(positions, rows, cols, values)`` entry per group
    with sparse rows: ``rows`` index ``positions``, ``cols`` the buckets,
    ``values`` the group's kernel on those pairs.
    """
    groups, other = kernel_groups(queries)
    check_dimension(groups, index.b_lows.shape[1])
    if other:
        _SPARSE_CALLS.inc(len(other), kernel="other", path="dense")
    dense_groups = []
    pairs = []
    b = None
    for group in groups:
        sparse, lookup = _route(group, index, contains)
        n_sparse = int(sparse.sum())
        n_dense = group.idx.size - n_sparse
        if n_dense:
            _SPARSE_CALLS.inc(n_dense, kernel=group.kind, path="dense")
            if n_sparse:
                keep = ~sparse
                group_ops = tuple(a[..., keep] for a in group.ops)
                dense_groups.append(group._replace(idx=group.idx[keep], ops=group_ops))
            else:
                dense_groups.append(group)
        if not n_sparse:
            continue
        _SPARSE_CALLS.inc(n_sparse, kernel=group.kind, path="sparse")
        sel = np.flatnonzero(sparse)
        rows, cols = lookup(sel)
        _SPARSE_CANDIDATES.inc(rows.size, kernel=group.kind)
        _SPARSE_PRUNED_FRAC.set(1.0 - rows.size / (n_sparse * index.m), kernel=group.kind)
        if b is None:
            b = (
                (np.ascontiguousarray(index.b_lows.T),)
                if contains
                else bucket_operands(index.b_lows, index.b_highs, b_volumes)
            )
        fn = group.contains if contains else group.volume
        values = _pair_values(fn, group, sel[rows], cols, b)
        pairs.append((group.idx[sel], rows, cols, values))
    positions = np.sort(
        np.concatenate([np.asarray(other, dtype=np.int64)] + [g.idx for g in dense_groups])
    )
    if positions.size == len(queries):
        dense = GroupedQueries(queries, dense_groups, other)
    else:
        dense = GroupedQueries(
            [queries[i] for i in positions],
            [g._replace(idx=np.searchsorted(positions, g.idx)) for g in dense_groups],
            np.searchsorted(positions, other).tolist(),
        )
    return positions, dense, pairs


def _pair_values(fn, group: KernelGroup, rows, cols, b) -> np.ndarray:
    """``fn`` on gathered (query row, bucket) pairs, in memory-bounded chunks."""
    out = np.empty(rows.size)
    step = max(1, CHUNK_ELEMENTS // group.width)
    for start in range(0, rows.size, step):
        r = rows[start : start + step]
        c = cols[start : start + step]
        out[start : start + step] = fn(
            tuple(a[..., r] for a in group.ops), tuple(a[..., c] for a in b)
        )
    return out


# ---------------------------------------------------------------------------
# Public entry points — Eq. (6) coverage and Eq. (7) membership dots
# ---------------------------------------------------------------------------


def sparse_coverage_dot(
    queries: Sequence,
    index: BucketIndex,
    b_volumes: np.ndarray | None,
    weights: np.ndarray,
) -> np.ndarray:
    """Fused sparse prediction kernel: ``coverage_matrix(...) @ weights``.

    Dense rows run the chunked dense dot; candidate pair volumes are
    normalised, clipped, weighted and reduced per query with one
    ``bincount`` — pruned pairs contribute exactly 0.
    """
    queries = list(queries)
    weights = np.asarray(weights, dtype=float)
    positions, dense, pairs = _split(queries, index, b_volumes, contains=False)
    out = np.zeros(len(queries))
    if positions.size:
        out[positions] = coverage_dot(dense, index.b_lows, index.b_highs, b_volumes, weights)
    if pairs and b_volumes is None:
        b_volumes = np.prod(index.b_highs - index.b_lows, axis=1)
    for idx, rows, cols, vals in pairs:
        frac = fractions(vals, b_volumes[cols])
        out[idx] = np.bincount(rows, weights=frac * weights[cols], minlength=idx.size)
    return out


def sparse_containment_dot(
    queries: Sequence, index: BucketIndex, weights: np.ndarray
) -> np.ndarray:
    """Fused sparse membership prediction: ``containment_matrix @ weights``."""
    queries = list(queries)
    weights = np.asarray(weights, dtype=float)
    positions, dense, pairs = _split(queries, index, None, contains=True)
    out = np.zeros(len(queries))
    if positions.size:
        out[positions] = containment_matrix(dense, index.b_lows) @ weights
    for idx, rows, cols, vals in pairs:
        out[idx] = np.bincount(rows, weights=vals * weights[cols], minlength=idx.size)
    return out
