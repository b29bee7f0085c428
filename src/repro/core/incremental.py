"""Append-only design matrices and delta refinement for incremental fits.

A full refit of a histogram learner repeats three phases over the whole
feedback history: re-partitioning (one Python tree descent per training
query — the dominant cost), rebuilding the ``(n_queries × n_buckets)``
design matrix, and a cold Eq. (8) solve.  When a feedback batch arrives,
almost all of that work reproduces state the model already has: the
partition rule is order-invariant (Lemma A.4), so old queries cannot
refine the tree further, and a design-matrix entry depends only on its
(query, bucket) pair, so rows for old queries against unchanged buckets
are already known.

This module holds the shared machinery for the cheap path:

* :class:`UpdateReport` — what one incremental update actually did
  (rows appended, leaves split, columns reused vs recomputed, solve
  residual), mirrored by the service metrics.
* :func:`assemble_design` — build the post-update design matrix from the
  cached block, recomputed columns for split buckets, and appended rows
  for the new feedback queries.
* :func:`split_warm_start` — remap the previous weight vector onto the
  refined partition (children of a split leaf inherit the parent weight
  by volume share) so the solver can resume instead of starting cold.
* :class:`IncrementalTreeHistogram` — the partition loop, the cold
  design build and solve, and ``partial_fit``, mixed into QuadHist (and
  so into KdHist, which is QuadHist with a binary node type).

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
from repro.geometry.index import build_bucket_index
from repro.geometry.ranges import Range
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


class IncrementalTreeHistogram:
    """Partition loop, weight solve and incremental ``partial_fit`` for
    QuadHist.

    The host class provides: ``_root`` (nodes with ``.box``,
    ``.children``, ``.leaves()``), ``_descend`` (the per-query Algorithm 2
    refinement, which must call :meth:`_note_split` after splitting a
    node), ``_history``, and the ``objective`` / ``solver`` attributes
    consumed by :func:`~repro.core._solve.solve_weights`.  This class
    maintains the leaf arrays, ``_index`` and ``_weights``.
    """

    #: When not None, a dict mapping node id → old column index; the
    #: refinement loop records every node born during an incremental
    #: update so new leaves can be traced back to the bucket they split
    #: out of.  None during full fits (no recording overhead).
    _split_origin: dict | None = None
    #: Cached design matrix over the current history (row i = query i,
    #: column j = bucket j).  Doubles as the append-only row store; costs
    #: ``8 * n_history * n_buckets`` bytes while the model is mutable.
    _design_cache: np.ndarray | None = None
    #: What the last ``partial_fit`` did; None after a full fit.
    update_report_: UpdateReport | None = None

    def _note_split(self, node) -> None:
        """Record the old-column ancestry of a node's fresh children."""
        origins = self._split_origin
        if origins is None:
            return
        base = origins.get(id(node), -1)
        for child in node.children:
            origins[id(child)] = base

    def _refine(self, training: TrainingSet, **span_attrs) -> list:
        """Algorithm 1: run the splitting rule for ``training``, then
        rebuild the leaf arrays and bucket index.  Returns the leaves in
        column order."""
        domain = self._root.box
        with span("fit/partition", **span_attrs) as partition_span:
            for sample in training:
                volume = range_volume(sample.query, domain)
                if volume <= 0.0 or sample.selectivity <= 0.0:
                    continue  # degenerate query: no density information to split on
                self._descend(self._root, sample.query, sample.selectivity / volume, 0)
            leaves = list(self._root.leaves())
            partition_span.annotate(leaves=len(leaves))
        self._leaf_lows = np.stack([leaf.box.lows for leaf in leaves])
        self._leaf_highs = np.stack([leaf.box.highs for leaf in leaves])
        self._leaf_volumes = np.prod(self._leaf_highs - self._leaf_lows, axis=1)
        self._index = build_bucket_index(self._leaf_lows, self._leaf_highs)
        return leaves

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
            with span(
                "fit/design-matrix",
                rows=len(training),
                buckets=int(self._leaf_volumes.shape[0]),
            ):
                design = sparse_coverage_matrix(
                    training.queries, self._index, self._leaf_volumes
                )
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
        existing tree: only the new batch descends the tree, only the
        columns of split buckets are recomputed, and the new queries'
        design rows are appended to the cached matrix.

        With ``warm_start=False`` (default) the weights are re-solved
        cold and the result matches refitting from scratch on the
        concatenated feedback (when no ``max_leaves`` cap binds).  With
        ``warm_start=True`` the solver resumes from the previous weight
        vector remapped onto the refined partition — much cheaper, equal
        to the cold solve within the solver tolerance.

        Calling ``partial_fit`` on an unfitted estimator is equivalent
        to ``fit``.
        """
        new = TrainingSet(queries, selectivities)
        if not self._fitted:
            self.fit(queries, selectivities)
            return self
        if self._root is None or self._history is None:
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
        old_leaves = list(self._root.leaves())
        old_col = {id(leaf): i for i, leaf in enumerate(old_leaves)}
        old_volumes = self._leaf_volumes
        old_weights = self._weights
        cached = self._design_cache
        n_new = len(new)
        n_old = len(combined) - n_new

        # Refine with the new batch only, recording which old bucket each
        # freshly created node descends from.
        self._split_origin = dict(old_col)
        try:
            leaves = self._refine(new, incremental=True)
            origins_map = self._split_origin
        finally:
            self._split_origin = None

        m_new = len(leaves)
        reused = np.fromiter(
            (id(leaf) in old_col for leaf in leaves), dtype=bool, count=m_new
        )
        origin = np.fromiter(
            (origins_map.get(id(leaf), -1) for leaf in leaves),
            dtype=np.int64,
            count=m_new,
        )

        usable_cache = cached is not None and cached.shape == (n_old, len(old_leaves))
        w0 = (
            split_warm_start(old_weights, reused, origin, self._leaf_volumes, old_volumes)
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
                    sub_index = build_bucket_index(
                        self._leaf_lows[fresh], self._leaf_highs[fresh]
                    )
                    fresh_block = sparse_coverage_matrix(
                        combined.queries[:n_old], sub_index, self._leaf_volumes[fresh]
                    )
                else:
                    fresh_block = np.zeros((n_old, n_fresh))
                if n_new:
                    new_rows = sparse_coverage_matrix(
                        new.queries, self._index, self._leaf_volumes
                    )
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
            buckets_before=len(old_leaves),
            buckets_after=m_new,
            columns_reused=int(reused.sum()),
            columns_recomputed=int((~reused).sum()),
            warm_started=warm_start,
            full_rebuild=not usable_cache,
            seconds=time.perf_counter() - started,
            residual=report.residual if report is not None else float("nan"),
            rung=report.rung if report is not None else "",
        )
