"""Spatial index over bucket bounding boxes for sub-linear candidate pruning.

Every estimator's predict path reduces each row of the coverage matrix
``Vol(B_j ∩ R_i)/Vol(B_j)`` to one weighted sum (Eqs. 6–7), but a typical
range query intersects a small fraction of the buckets: the other entries
are exactly zero, and the dense kernels in :mod:`repro.geometry.batch`
spend almost all of their time computing them.  This module answers the
only question the sparse prediction dots (:mod:`repro.geometry.sparse`)
need: *which buckets can a query's bounding box possibly touch?*  Design
matrices need every entry, so they are built dense and never consult the
index.

Two interchangeable structures, selected automatically by
:func:`build_bucket_index`:

* :class:`UniformGridIndex` — a uniform grid over the buckets' joint
  bounding box with ~one cell per bucket.  Each cell stores the ids of the
  buckets whose bounding boxes overlap it (CSR layout).  This is the right
  structure for partition-shaped bucket sets (quadtree/kd-tree leaves,
  arrangement cells, PtsHist support points) where bucket extents are
  commensurate with cell size.
* :class:`PackedRTreeIndex` — an STR-style bulk-loaded (packed) R-tree.
  When bucket extents are heavily skewed (a few huge buckets covering most
  of the domain — ISOMER remainders, STHoles parents, QuickSel's domain
  kernel), the big buckets flood a uniform grid's cells and grid lookups
  degenerate toward a linear scan; the R-tree's hierarchical bounding
  boxes stay balanced regardless of extent skew.

Both expose the same query API:

* :meth:`~BucketIndex.candidates_for_boxes` — CSR ``(indptr, indices)``
  candidate sets for a batch of query boxes, fully vectorised (no Python
  loop over queries), ids strictly ascending within each row;
* :meth:`~BucketIndex.lookup_estimate` — the O(n·d) estimate of what
  that lookup would cost per query (cells or nodes visited, bucket
  entries gathered), which the sparse/dense rule reads before any lookup;
* :meth:`~BucketIndex.halfspace_candidates` — boolean keep-mask per
  (halfspace, bucket) from the corner-support test ``max_{x∈B} a·x ≥ b``
  (no spatial traversal needed, just cached centers/half-widths).  No
  kernel calls it: its test costs more per bucket than a dense halfspace
  entry, so halfspace rows always run dense.  It stays while
  ``benchmarks/e2e/tracer.py`` shims it.

Correctness contract: the candidate set is a **superset** of the buckets
whose boxes intersect the (finite) query box, so every pruned pair has
exactly zero intersection volume in the dense kernels — pruning never
changes a prediction, it only skips work.  Queries with non-finite bounds
get an empty candidate set.

The index is a fit-time structure: estimators build it once after bucket
design, for prediction only, and rebuild it (deterministically, from the persisted bucket
arrays) when a model is restored from an ``.rma`` artifact — it is never
serialised itself.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BucketIndex",
    "UniformGridIndex",
    "PackedRTreeIndex",
    "build_bucket_index",
    "GRID_OCCUPANCY_FACTOR",
]

#: A uniform grid is abandoned for the packed R-tree when the average
#: bucket overlaps more than this many grid cells — the signature of an
#: extent-skewed bucket set, where grid lookups degenerate.
GRID_OCCUPANCY_FACTOR = 4.0

_EMPTY_IDS = np.empty(0, dtype=np.int64)


def _ranks(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner index and local rank for a ragged expansion.

    Given per-owner item counts, returns ``(owners, ranks)`` of length
    ``counts.sum()`` where item ``t`` belongs to ``owners[t]`` and is that
    owner's ``ranks[t]``-th item.  This is the vectorised replacement for
    "for each owner, for each of its items" double loops.
    """
    counts = np.asarray(counts, dtype=np.int64)
    owners = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    offsets = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    ranks = np.arange(owners.size, dtype=np.int64) - offsets[owners]
    return owners, ranks


def _csr_from_pairs(
    qidx: np.ndarray, ids: np.ndarray, n: int, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sort (query, bucket) pairs row-major, dedupe, and emit CSR."""
    key = qidx * np.int64(m) + ids
    order = np.argsort(key, kind="stable")
    key = key[order]
    keep = np.ones(key.size, dtype=bool)
    keep[1:] = key[1:] != key[:-1]
    qidx = qidx[order][keep]
    ids = ids[order][keep]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(qidx, minlength=n), out=indptr[1:])
    return indptr, ids


class BucketIndex:
    """Shared query API over ``m`` bucket bounding boxes."""

    kind: str = "abstract"

    def __init__(self, b_lows: np.ndarray, b_highs: np.ndarray):
        b_lows = np.asarray(b_lows, dtype=float)
        b_highs = np.asarray(b_highs, dtype=float)
        if b_lows.ndim != 2 or b_lows.shape != b_highs.shape:
            raise ValueError(
                f"bucket bounds must be matching (m, d) arrays, got "
                f"{b_lows.shape} and {b_highs.shape}"
            )
        if b_lows.shape[0] == 0:
            raise ValueError("at least one bucket is required")
        self.b_lows = b_lows
        self.b_highs = b_highs
        self.m, self.dim = b_lows.shape
        #: Joint bounding box of the buckets.
        self.lo = np.min(b_lows, axis=0)
        self.hi = np.max(b_highs, axis=0)
        # Corner-support precomputation for the halfspace prune:
        # max_{x in B} a.x = a . center + |a| . half_widths.
        self._centers = 0.5 * (b_lows + b_highs)
        self._half_widths = 0.5 * (b_highs - b_lows)

    def candidates_for_boxes(
        self, q_lows: np.ndarray, q_highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """CSR candidate sets for ``n`` query boxes.

        Returns ``(indptr, indices)`` with ``indptr`` of shape ``(n+1,)``
        and ``indices[indptr[i]:indptr[i+1]]`` the ascending candidate
        bucket ids of query ``i``.
        """
        raise NotImplementedError

    def lookup_estimate(
        self, q_lows: np.ndarray, q_highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per query box: ``(visits, entries)`` the lookup would touch.

        ``visits`` counts grid cells or tree nodes, ``entries`` the bucket
        ids gathered before deduplication.  O(n·d); no lookup runs.
        """
        raise NotImplementedError

    def halfspace_candidates(
        self, normals: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        """Keep-mask of shape ``(n_halfspaces, m)`` via the corner test.

        A bucket can intersect ``{a.x >= b}`` iff its supporting corner
        reaches the threshold: ``a.c + |a|.h >= b``.  The margin keeps
        boundary-touching buckets (whose intersection the dense kernel
        evaluates to an exact zero volume anyway) on the safe side of
        float rounding.
        """
        normals = np.asarray(normals, dtype=float)
        offsets = np.asarray(offsets, dtype=float)
        support = normals @ self._centers.T + np.abs(normals) @ self._half_widths.T
        scale = np.maximum(1.0, np.abs(support))
        return support >= offsets[:, None] - 1e-9 * scale


class UniformGridIndex(BucketIndex):
    """Uniform grid with ~one cell per bucket and CSR cell→bucket lists."""

    kind = "grid"

    def __init__(
        self,
        b_lows: np.ndarray,
        b_highs: np.ndarray,
        cells_per_dim: int | None = None,
    ):
        super().__init__(b_lows, b_highs)
        m, d = self.m, self.dim
        span = self.hi - self.lo
        if cells_per_dim is None:
            # ~m cells total so the expected occupancy is O(1) per cell.
            cells_per_dim = max(1, int(round(m ** (1.0 / d))))
        res = np.full(d, int(cells_per_dim), dtype=np.int64)
        res[span <= 0.0] = 1  # degenerate dimension: one slab
        self.res = res
        self.inv_width = np.where(span > 0.0, res / np.where(span > 0.0, span, 1.0), 0.0)
        # Row-major strides over the flattened cell grid.
        strides = np.ones(d, dtype=np.int64)
        for k in range(d - 2, -1, -1):
            strides[k] = strides[k + 1] * res[k + 1]
        self.strides = strides
        self.n_cells = int(strides[0] * res[0])
        self._build_cells()

    def _cell_ranges(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Clipped cell ranges plus an empty-result mask per box."""
        f0 = np.floor((lows - self.lo) * self.inv_width)
        f1 = np.floor((highs - self.lo) * self.inv_width)
        # Disjointness is decided in *coordinate* space with closed-box
        # semantics: a box merely touching the grid boundary still
        # intersects it.  (Deciding it on floored cell indices loses
        # zero-extent buckets sitting exactly at the grid max, whose
        # f0 == res floors past the last cell.)  Non-finite boxes resolve
        # to empty: clipping a NaN does not produce a valid cell index.
        finite = np.isfinite(f0).all(axis=1) & np.isfinite(f1).all(axis=1)
        outside = np.any(highs < self.lo, axis=1) | np.any(lows > self.hi, axis=1)
        empty = ~finite | outside
        c0 = np.clip(np.nan_to_num(f0), 0, self.res - 1).astype(np.int64)
        c1 = np.clip(np.nan_to_num(f1), 0, self.res - 1).astype(np.int64)
        return c0, np.maximum(c1, c0), empty

    def _expand_cells(
        self, c0: np.ndarray, c1: np.ndarray, empty: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flattened cell ids for every (box, covered cell) pair."""
        spans = c1 - c0 + 1
        counts = np.where(empty, 0, np.prod(spans, axis=1))
        owners, ranks = _ranks(counts)
        cells = np.zeros(owners.size, dtype=np.int64)
        for k in range(self.dim - 1, -1, -1):
            s = spans[:, k][owners]
            cells += (c0[:, k][owners] + ranks % s) * self.strides[k]
            ranks //= s
        return owners, cells

    def _build_cells(self) -> None:
        c0, c1, empty = self._cell_ranges(self.b_lows, self.b_highs)
        owners, cells = self._expand_cells(c0, c1, empty)
        self.occupancy = owners.size / max(1, self.m)
        order = np.argsort(cells, kind="stable")
        self.cell_buckets = owners[order]
        self.cell_indptr = np.zeros(self.n_cells + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(cells, minlength=self.n_cells), out=self.cell_indptr[1:]
        )

    def lookup_estimate(
        self, q_lows: np.ndarray, q_highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        c0, c1, empty = self._cell_ranges(q_lows, q_highs)
        visits = np.where(empty, 0, np.prod(c1 - c0 + 1, axis=1))
        # Entries per visited cell: the mean cell list length.
        return visits, visits * (self.cell_buckets.size / self.n_cells)

    def candidates_for_boxes(
        self, q_lows: np.ndarray, q_highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        q_lows = np.asarray(q_lows, dtype=float)
        q_highs = np.asarray(q_highs, dtype=float)
        n = q_lows.shape[0]
        c0, c1, empty = self._cell_ranges(q_lows, q_highs)
        owners, cells = self._expand_cells(c0, c1, empty)
        # Gather every visited cell's bucket list with a second expansion.
        starts = self.cell_indptr[cells]
        hit_counts = self.cell_indptr[cells + 1] - starts
        entry_owner, entry_rank = _ranks(hit_counts)
        ids = self.cell_buckets[starts[entry_owner] + entry_rank]
        qidx = owners[entry_owner]
        return _csr_from_pairs(qidx, ids, n, self.m)


class PackedRTreeIndex(BucketIndex):
    """STR-style bulk-loaded R-tree: robust to extent-skewed bucket sets."""

    kind = "rtree"

    def __init__(self, b_lows: np.ndarray, b_highs: np.ndarray, fanout: int = 32):
        super().__init__(b_lows, b_highs)
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")
        self.fanout = int(fanout)
        self.order = np.arange(self.m, dtype=np.int64)  # leaf slot -> bucket id
        self._str_sort(self.order, axis=0)
        # Pack levels bottom-up; each level stores (lows, highs, start,
        # stop): node i of a level covers child slots [start[i], stop[i])
        # of the level below (leaf slots for the deepest level).
        self.levels: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        lows = self.b_lows[self.order]
        highs = self.b_highs[self.order]
        while True:
            count = lows.shape[0]
            n_nodes = -(-count // self.fanout)
            starts = np.arange(n_nodes, dtype=np.int64) * self.fanout
            stops = np.minimum(starts + self.fanout, count)
            node_lows = np.stack([lows[a:b].min(axis=0) for a, b in zip(starts, stops)])
            node_highs = np.stack([highs[a:b].max(axis=0) for a, b in zip(starts, stops)])
            self.levels.append((node_lows, node_highs, starts, stops))
            if n_nodes == 1:
                break
            lows, highs = node_lows, node_highs
        self.levels.reverse()  # root level first
        leaf_lows, leaf_highs = self.levels[-1][0], self.levels[-1][1]
        self._leaf_nodes = leaf_lows.shape[0]
        self._leaf_extent = np.mean(leaf_highs - leaf_lows, axis=0)

    def _str_sort(self, seg: np.ndarray, axis: int) -> None:
        """Sort-Tile-Recursive ordering: sort a segment by one center
        coordinate, slab it, and recurse into the next axis per slab."""
        centers = self._centers
        seg[:] = seg[np.argsort(centers[seg, axis], kind="stable")]
        if axis == self.dim - 1:
            return
        groups = -(-seg.size // self.fanout)
        remaining = self.dim - axis - 1
        slab = self.fanout * max(
            1, int(np.ceil(groups ** (remaining / (remaining + 1.0))))
        )
        for start in range(0, seg.size, slab):
            self._str_sort(seg[start : start + slab], axis + 1)

    def lookup_estimate(
        self, q_lows: np.ndarray, q_highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        # Leaf-level nodes a box meets if nodes were spread uniformly over
        # the bucket region (a Minkowski-sum estimate); each visit tests
        # its whole level's fanout, at every level.
        q_lows = np.asarray(q_lows, dtype=float)
        q_highs = np.asarray(q_highs, dtype=float)
        span = self.hi - self.lo
        reach = np.where(
            span > 0.0,
            (q_highs - q_lows + self._leaf_extent) / np.where(span > 0.0, span, 1.0),
            1.0,
        )
        nodes = self._leaf_nodes * np.prod(np.clip(reach, 0.0, 1.0), axis=1)
        outside = np.any(q_highs < self.lo, axis=1) | np.any(q_lows > self.hi, axis=1)
        nodes = np.where(outside, 0.0, nodes)
        return nodes * len(self.levels), nodes * self.fanout

    def candidates_for_boxes(
        self, q_lows: np.ndarray, q_highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        q_lows = np.asarray(q_lows, dtype=float)
        q_highs = np.asarray(q_highs, dtype=float)
        n = q_lows.shape[0]
        finite = np.isfinite(q_lows).all(axis=1) & np.isfinite(q_highs).all(axis=1)
        # Level-synchronous frontier of (query, node) pairs, all queries at
        # once: expand surviving nodes' child ranges, test child boxes, and
        # repeat until the leaf slots are tested against the bucket boxes.
        root_lows, root_highs = self.levels[0][0], self.levels[0][1]
        n_roots = root_lows.shape[0]
        quer = np.repeat(np.flatnonzero(finite), n_roots)
        nodes = np.tile(np.arange(n_roots, dtype=np.int64), int(finite.sum()))
        ok = np.all(root_lows[nodes] <= q_highs[quer], axis=1) & np.all(
            root_highs[nodes] >= q_lows[quer], axis=1
        )
        quer, nodes = quer[ok], nodes[ok]
        for level in range(len(self.levels)):
            starts, stops = self.levels[level][2], self.levels[level][3]
            owners, ranks = _ranks(stops[nodes] - starts[nodes])
            child = starts[nodes][owners] + ranks
            quer = quer[owners]
            if level + 1 < len(self.levels):
                lows, highs = self.levels[level + 1][0], self.levels[level + 1][1]
                ok = np.all(lows[child] <= q_highs[quer], axis=1) & np.all(
                    highs[child] >= q_lows[quer], axis=1
                )
                quer, nodes = quer[ok], child[ok]
            else:
                ids = self.order[child]
                ok = np.all(self.b_lows[ids] <= q_highs[quer], axis=1) & np.all(
                    self.b_highs[ids] >= q_lows[quer], axis=1
                )
                return _csr_from_pairs(quer[ok], ids[ok], n, self.m)
        raise AssertionError("unreachable: the leaf level always returns")


def build_bucket_index(
    b_lows: np.ndarray,
    b_highs: np.ndarray,
    *,
    grid_occupancy_factor: float = GRID_OCCUPANCY_FACTOR,
) -> BucketIndex:
    """Build the right index for a bucket set.

    Tries the uniform grid first (cheapest lookups for partition-shaped
    bucket sets); if the measured cell occupancy shows extent skew — the
    average bucket overlapping more than ``grid_occupancy_factor`` cells —
    the grid is discarded for the packed R-tree, whose balance does not
    depend on bucket extents.
    """
    grid = UniformGridIndex(b_lows, b_highs)
    if grid.occupancy <= grid_occupancy_factor:
        return grid
    return PackedRTreeIndex(b_lows, b_highs)
