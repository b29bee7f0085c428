"""Algorithm 2 one tree level at a time, append-only design matrices
and delta refinement for incremental fits.

A full refit of a histogram learner repeats three phases over the whole
feedback history: re-partitioning the domain, rebuilding the
``(n_queries × n_buckets)`` design matrix, and a cold Eq. (8) solve.
When a feedback batch arrives, almost all of that work reproduces state
the model already has: the partition rule is order-invariant (Lemma
A.4), so old queries cannot refine the tree further, and a design-matrix
entry depends only on its (query, bucket) pair, so rows for old queries
against unchanged buckets are already known.

The partition runs one tree level at a time over leaf arrays, from one
``(queries × frontier)`` block of batch-kernel shares per level, and
splits exactly what the one-query, one-node descent of Algorithm 2 does.

This module holds the shared machinery:

* :class:`UpdateReport` — what one incremental update actually did
  (rows appended, leaves split, columns reused vs recomputed, solve
  residual), mirrored by the service metrics.
* :func:`assemble_design` — build the post-update design matrix from the
  cached block, recomputed columns for split buckets, and appended rows
  for the new feedback queries.
* :func:`split_warm_start` — remap the previous weight vector onto the
  refined partition (children of a split leaf inherit the parent weight
  by volume share) so the solver can resume instead of starting cold.
* :class:`IncrementalTreeHistogram` — the level-synchronous partition,
  the cold solve, and ``partial_fit``, mixed into QuadHist (and so into
  KdHist, which is QuadHist with a binary split) on top of the
  :class:`~repro.core.quadhist.BucketHistogram` that holds the leaves.

The ``warm_start=False`` default keeps ``partial_fit`` numerically
equivalent to a from-scratch refit on the union history (box kernels are
bitwise identical between the cached and recomputed paths); passing
``warm_start=True`` buys the solver resume at the cost of a documented
tolerance — see ``docs/online_learning.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core._solve import solve_weights
from repro.core.workload import TrainingSet
from repro.geometry import batch
from repro.geometry.index import build_bucket_index
from repro.geometry.ranges import Box, Range, unit_box
from repro.geometry.sparse import sparse_coverage_matrix
from repro.geometry.volume import range_volume
from repro.observability.tracing import span

__all__ = [
    "UpdateReport",
    "assemble_design",
    "split_warm_start",
    "IncrementalTreeHistogram",
]


@dataclass
class UpdateReport:
    """What one incremental ``partial_fit`` actually did."""

    rows_appended: int
    rows_total: int
    buckets_before: int
    buckets_after: int
    columns_reused: int
    columns_recomputed: int
    warm_started: bool
    full_rebuild: bool
    seconds: float
    residual: float
    rung: str

    @property
    def leaves_split(self) -> int:
        """Net buckets added by this update's partition refinement."""
        return max(0, self.buckets_after - self.buckets_before)

    def to_dict(self) -> dict:
        return {
            "rows_appended": self.rows_appended,
            "rows_total": self.rows_total,
            "buckets_before": self.buckets_before,
            "buckets_after": self.buckets_after,
            "leaves_split": self.leaves_split,
            "columns_reused": self.columns_reused,
            "columns_recomputed": self.columns_recomputed,
            "warm_started": self.warm_started,
            "full_rebuild": self.full_rebuild,
            "seconds": round(self.seconds, 6),
            "residual": None if np.isnan(self.residual) else round(self.residual, 6),
            "rung": self.rung,
        }


def assemble_design(
    cached: np.ndarray,
    reused: np.ndarray,
    origin: np.ndarray,
    fresh_block: np.ndarray,
    new_rows: np.ndarray,
) -> np.ndarray:
    """Assemble the post-update design matrix without recomputing the
    cached block.

    Parameters
    ----------
    cached:
        Previous design matrix, shape ``(n_old, m_old)``.
    reused:
        Bool mask over the *new* columns: True where the bucket is
        unchanged and its old column can be copied verbatim.
    origin:
        For each new column, the old column index it maps to (itself for
        reused buckets, the split ancestor for fresh ones, ``-1`` for
        buckets with no predecessor).  Only the reused entries are read
        here.
    fresh_block:
        ``(n_old, n_fresh)`` — recomputed columns for the non-reused
        buckets, in new-column order.
    new_rows:
        ``(n_new, m_new)`` — design rows for the appended feedback
        queries against the full new bucket set.
    """
    n_old = cached.shape[0]
    m_new = reused.shape[0]
    top = np.empty((n_old, m_new), dtype=float)
    if reused.any():
        top[:, reused] = cached[:, origin[reused]]
    fresh = ~reused
    if fresh.any():
        top[:, fresh] = fresh_block
    if new_rows.shape[0] == 0:
        return top
    return np.concatenate([top, new_rows], axis=0)


def split_warm_start(
    old_weights: np.ndarray,
    reused: np.ndarray,
    origin: np.ndarray,
    new_volumes: np.ndarray,
    old_volumes: np.ndarray,
) -> np.ndarray:
    """Remap a weight vector onto the refined partition.

    Unchanged buckets keep their weight; children of a split bucket
    share the parent's weight proportionally to volume, so the remapped
    vector represents the *same* density function on the finer partition
    and still sums to one.
    """
    m_new = reused.shape[0]
    w0 = np.zeros(m_new)
    w0[reused] = old_weights[origin[reused]]
    fresh = ~reused & (origin >= 0)
    if fresh.any():
        parent_vol = old_volumes[origin[fresh]]
        with np.errstate(divide="ignore", invalid="ignore"):
            share = np.where(parent_vol > 0.0, new_volumes[fresh] / parent_vol, 0.0)
        w0[fresh] = old_weights[origin[fresh]] * np.clip(share, 0.0, 1.0)
    total = float(w0.sum())
    if total <= 0.0:
        return np.full(m_new, 1.0 / m_new)
    return w0 / total


def _exceeds(queries, densities, tau: float, lows, highs) -> np.ndarray:
    """``(queries × boxes)``: the descent's test, ``not share <= τ`` (so a
    NaN share splits), on blocks of at most ``CHUNK_ELEMENTS`` shares."""
    out = np.empty((len(queries), lows.shape[0]), dtype=bool)
    step = max(1, batch.CHUNK_ELEMENTS // len(queries))
    for start in range(0, lows.shape[0], step):
        part = slice(start, start + step)
        shares = batch.intersection_volume_matrix(queries, lows[part], highs[part])
        shares *= densities[:, None]
        out[:, part] = ~(shares <= tau)
    return out


class IncrementalTreeHistogram:
    """Partition, weight solve and incremental ``partial_fit`` for
    QuadHist.

    The host class provides the split shape (``_fanout(dim)`` children
    per split; ``_split(lows, highs, depths)``, their boxes parent-major),
    ``tau``, ``max_leaves``, ``max_depth``, ``domain``, ``_history``, the
    ``objective`` / ``solver`` of :func:`~repro.core._solve.solve_weights`,
    and the bucket arrays and design build of
    :class:`~repro.core.quadhist.BucketHistogram`.  This class installs the
    leaves through ``_set_buckets`` and maintains their depths and
    ``_weights``.
    """

    #: Cached design matrix over the current history (row i = query i,
    #: column j = bucket j).  Doubles as the append-only row store; costs
    #: ``8 * n_history * n_buckets`` bytes while the model is mutable.
    _design_cache: np.ndarray | None = None
    #: What the last ``partial_fit`` did; None after a full fit.
    update_report_: UpdateReport | None = None

    def _domain_box(self, dim: int) -> Box:
        domain = self.domain if self.domain is not None else unit_box(dim)
        if domain.dim != dim:
            raise ValueError("domain dimension does not match the training queries")
        return domain

    def _partition(self, training: TrainingSet, lows, highs, depths) -> tuple:
        """Algorithm 2 from the leaves ``(lows, highs, depths)``, one tree
        level at a time: the refined leaves ``(lows, highs, depths,
        origin)`` in DFS pre-order, ``origin`` the row of the given leaf.

        As in the descent, a query reaches a node when its share exceeds
        ``τ`` at every ancestor, and a node below ``max_depth`` splits when
        a reaching query's share exceeds ``τ`` there.  Under ``max_leaves``
        the first ``⌊(max_leaves − leaves)/(fanout − 1)⌋`` splits are kept,
        by that query's index, then DFS pre-order: the descent's order.  A
        parent's key precedes its children's, so each level prunes to the
        running top ``K``.
        """
        domain = self._domain_box(training.dim)
        volumes = np.array([range_volume(q, domain) for q in training.queries])
        labels = training.selectivities
        used = ~((volumes <= 0.0) | (labels <= 0.0))  # degenerate: no density to split on
        queries = [q for q, keep in zip(training.queries, used) if keep]
        densities = labels[used] / volumes[used]
        fanout = self._fanout(domain.dim)
        n = lows.shape[0]
        cap = None if self.max_leaves is None else (self.max_leaves - n) // (fanout - 1)
        # Every node made, by row (the given leaves first); ``order`` holds
        # the rows of all of them, internal ones included, in pre-order.
        parent, origin, first = np.full(n, -1), np.arange(n), np.zeros(n, dtype=np.int64)
        split = np.zeros(n, dtype=bool)
        order = np.arange(n)
        frontier = order if queries and (cap is None or cap > 0) else order[:0]
        if frontier.size:
            queries = batch.GroupedQueries(queries, *batch.kernel_groups(queries))
        reach = None
        while frontier.size:
            live = depths[frontier] < self.max_depth
            frontier = frontier[live]
            exceeds = _exceeds(queries, densities, self.tau, lows[frontier], highs[frontier])
            if reach is None:  # the given leaves: rebuild their ancestors' tests
                cols = np.flatnonzero(exceeds.any(axis=0))
                at = frontier[cols]
                exceeds[:, cols] &= self._reach(queries, densities, lows[at], highs[at], depths[at])
            else:
                exceeds &= reach[:, live]
            hit = exceeds.any(axis=0)
            frontier, exceeds = frontier[hit], exceeds[:, hit]
            if not frontier.size:
                break
            first[frontier] = exceeds.argmax(axis=0)
            split[frontier] = True
            position = np.empty(split.size, dtype=np.int64)
            position[order] = np.arange(order.size)
            splits = np.flatnonzero(split)
            if cap is not None and splits.size > cap:
                key = first[splits] * order.size + position[splits]
                split[splits[np.argpartition(key, cap)[cap:]]] = False
                kept = split[frontier]
                frontier, exceeds = frontier[kept], exceeds[:, kept]
            # Children go right after their parent in ``order``.
            child_lows, child_highs = self._split(lows[frontier], highs[frontier], depths[frontier])
            children = np.arange(split.size, split.size + frontier.size * fanout)
            lows = np.concatenate([lows, child_lows])
            highs = np.concatenate([highs, child_highs])
            depths = np.concatenate([depths, np.repeat(depths[frontier] + 1, fanout)])
            parent = np.concatenate([parent, np.repeat(frontier, fanout)])
            origin = np.concatenate([origin, np.repeat(origin[frontier], fanout)])
            first = np.concatenate([first, np.zeros(children.size, dtype=np.int64)])
            split = np.concatenate([split, np.zeros(children.size, dtype=bool)])
            width = np.ones(order.size, dtype=np.int64)
            width[position[frontier]] += fanout
            slots = np.cumsum(width)[position[frontier]] - fanout
            order = np.repeat(order, width)
            order[(slots[:, None] + np.arange(fanout)).ravel()] = children
            # A query reaches a child when it reaches and exceeds its parent.
            frontier, reach = children, np.repeat(exceeds, fanout, axis=1)
        # Splits the cap took back leave their children out.
        above = parent[order]
        order = order[np.where(above >= 0, split[above], True)]
        leaves = order[~split[order]]
        return lows[leaves], highs[leaves], depths[leaves], origin[leaves]

    def _reach(self, queries, densities, lows, highs, depths) -> np.ndarray:
        """``(queries × leaves)``: whether each query's share exceeds ``τ``
        at every ancestor of each leaf (in pre-order); with quasi-Monte-
        Carlo volumes a leaf's own share does not imply it.  The ancestors
        are rebuilt level by level: the leaves below one are a run in
        pre-order, and each steps down to the child that contains it.
        """
        reach = np.ones((len(queries), lows.shape[0]), dtype=bool)
        domain = self._domain_box(lows.shape[1])
        up_lows = np.repeat(domain.lows[None], lows.shape[0], axis=0)
        up_highs = np.repeat(domain.highs[None], lows.shape[0], axis=0)
        for level in range(int(depths.max(initial=0))):
            below = np.flatnonzero(depths > level)
            a_lows, a_highs = up_lows[below], up_highs[below]
            runs = np.ones(below.size, dtype=bool)
            runs[1:] = ((a_lows[1:] != a_lows[:-1]) | (a_highs[1:] != a_highs[:-1])).any(axis=1)
            heads = np.flatnonzero(runs)
            exceeds = _exceeds(queries, densities, self.tau, a_lows[heads], a_highs[heads])
            reach[:, below] &= exceeds[:, np.cumsum(runs) - 1]
            child_lows, child_highs = (
                c.reshape(below.size, -1, lows.shape[1])
                for c in self._split(a_lows, a_highs, np.full(below.size, level))
            )
            inside = (child_lows <= lows[below, None]) & (highs[below, None] <= child_highs)
            pick = (np.arange(below.size), inside.all(axis=2).argmax(axis=1))
            up_lows[below], up_highs[below] = child_lows[pick], child_highs[pick]
        return reach

    def _refine(self, training: TrainingSet, lows, highs, depths, **span_attrs) -> np.ndarray:
        """Algorithm 1: refine the given leaves with ``training``, then
        rebuild the leaf arrays and bucket index.  Returns each new
        leaf's origin (see :meth:`_partition`)."""
        with span("fit/partition", **span_attrs) as partition_span:
            lows, highs, depths, origin = self._partition(training, lows, highs, depths)
            partition_span.annotate(leaves=int(origin.size))
        self._set_buckets(lows, highs)
        self._leaf_depths = depths
        return origin

    def _estimate_weights(
        self,
        training: TrainingSet,
        warm_start: np.ndarray | None = None,
        design: np.ndarray | None = None,
    ) -> None:
        """Eq. (8) solve; ``design`` becomes the cached design matrix.

        ``design=None`` builds it in full over ``training`` (the cold path).
        """
        if design is None:
            design = self._design(training.queries)
        self._design_cache = design
        self._weights, self.solve_report_ = solve_weights(
            design,
            training.selectivities,
            objective=self.objective,
            solver=self.solver,
            warm_start=warm_start,
        )

    def partial_fit(
        self,
        queries: Sequence[Range],
        selectivities: Sequence[float],
        warm_start: bool = False,
    ):
        """Incrementally absorb new query feedback.

        Bucket design is naturally incremental (Algorithm 1 processes
        queries one at a time, and by Lemma A.4 the final partition does
        not depend on arrival order), so new feedback only *refines* the
        existing partition: the level-synchronous split runs from the
        current leaves on the new batch only, only the columns of split
        buckets are recomputed, and the new queries' design rows are
        appended to the cached matrix.

        Under ``max_leaves`` the update keeps the first
        ``⌊(max_leaves − leaves)/(fanout − 1)⌋`` splits, ordered by the
        batch's first query whose share exceeds ``τ`` at the node, then
        by DFS pre-order: the splits a sequential descent of the batch
        makes before the cap stops it.

        With ``warm_start=False`` (default) the weights are re-solved
        cold and the result matches refitting from scratch on the
        concatenated feedback, under a binding cap too.  With
        ``warm_start=True`` the solver resumes from the previous weight
        vector remapped onto the refined partition: much cheaper, but
        the short polish leaves the training objective above the cold
        optimum (see ``docs/online_learning.md``).

        Calling ``partial_fit`` on an unfitted estimator is equivalent
        to ``fit``.
        """
        new = TrainingSet(queries, selectivities)
        if not self._fitted:
            self.fit(queries, selectivities)
            return self
        if self._leaf_depths is None or self._history is None:
            raise RuntimeError(
                "partial_fit needs the partition tree and feedback history, "
                "which persisted artifacts do not carry; refit from scratch "
                "instead"
            )
        if new.dim != self._history.dim:
            raise ValueError("partial_fit dimension mismatch with earlier feedback")
        combined = TrainingSet(
            list(self._history.queries) + list(new.queries),
            np.concatenate([self._history.selectivities, new.selectivities]),
        )
        self._history = combined
        self._absorb_incremental(new, combined, warm_start=warm_start)
        return self

    def _absorb_incremental(
        self, new: TrainingSet, combined: TrainingSet, warm_start: bool
    ) -> None:
        started = time.perf_counter()
        old_volumes = self._volumes
        old_weights = self._weights
        cached = self._design_cache
        m_old = old_volumes.shape[0]
        n_new = len(new)
        n_old = len(combined) - n_new

        # Refine with the new batch only; each leaf records the old column
        # it lies in.  A split leaf leaves at least two children behind.
        origin = self._refine(new, self._lows, self._highs, self._leaf_depths, incremental=True)
        m_new = origin.size
        reused = np.bincount(origin, minlength=m_old)[origin] == 1

        usable_cache = cached is not None and cached.shape == (n_old, m_old)
        w0 = (
            split_warm_start(old_weights, reused, origin, self._volumes, old_volumes)
            if warm_start
            else None
        )
        if usable_cache:
            fresh = ~reused
            n_fresh = int(fresh.sum())
            with span(
                "fit/design-matrix",
                rows=n_new,
                buckets=m_new,
                incremental=True,
                fresh_columns=n_fresh,
            ):
                if n_fresh and n_old:
                    sub_index = build_bucket_index(self._lows[fresh], self._highs[fresh])
                    fresh_block = sparse_coverage_matrix(
                        combined.queries[:n_old], sub_index, self._volumes[fresh]
                    )
                else:
                    fresh_block = np.zeros((n_old, n_fresh))
                if n_new:
                    new_rows = sparse_coverage_matrix(new.queries, self._index, self._volumes)
                else:
                    new_rows = np.zeros((0, m_new))
                design = assemble_design(cached, reused, origin, fresh_block, new_rows)
            self._estimate_weights(combined, w0, design)
        else:
            # No usable cached rows (e.g. history replaced out-of-band):
            # rebuild the matrix, but the warm start still applies.
            self._estimate_weights(combined, warm_start=w0)
        report = self.solve_report_
        self.update_report_ = UpdateReport(
            rows_appended=n_new,
            rows_total=len(combined),
            buckets_before=m_old,
            buckets_after=m_new,
            columns_reused=int(reused.sum()),
            columns_recomputed=int((~reused).sum()),
            warm_started=warm_start,
            full_rebuild=not usable_cache,
            seconds=time.perf_counter() - started,
            residual=report.residual if report is not None else float("nan"),
            rung=report.rung if report is not None else "",
        )
