"""STHoles — workload-aware histogram with hole drilling *and merging*.

A fuller reimplementation of STHoles [Bruno, Chaudhuri & Gravano, SIGMOD
2001], the query-driven histogram that ISOMER builds on (our
:class:`~repro.baselines.isomer.Isomer` uses a drilling phase only and
delegates weighting to maximum entropy).

STHoles maintains a *tree* of nested buckets; a bucket's region is its box
minus its children's boxes, and it carries a tuple-frequency estimate for
that region.  Feedback ``(R, s)`` is absorbed top-down:

1. **Drill**: in each bucket whose box intersects ``R``, the intersection
   is shrunk (so it partially overlaps no child) and carved out as a new
   child hole whose frequency comes from the feedback under the
   uniformity-within-R assumption; the parent's frequency is reduced
   proportionally to the volume carved from its region.  When the
   intersection covers the bucket's box exactly, the bucket's frequency is
   *refreshed* from the feedback instead (the original's update rule).
2. **Merge**: when the bucket budget is exceeded, the parent–child merge
   with the lowest frequency-redistribution penalty collapses a hole into
   its parent.

**Adaptation for aggregate feedback.**  The original STHoles inspects the
*result stream* of each query to count tuples per bucket; in the paper's
setting only the aggregate selectivity is observed.  The online
frequencies above therefore rest on a uniformity-within-the-query
assumption that degrades badly on skewed data (we measured it), and they
are kept only to drive the merge penalties during structure learning.
The final model weights are instead estimated by the paper's generic
Eq. (8) — simplex-constrained least squares over the tree's disjoint
*regions* — making STHoles here a third bucket-design strategy plugged
into the same weight-estimation phase as QuadHist and the arrangement
ERM.  (ISOMER's maximum-entropy phase was itself motivated by exactly
this weakness of STHoles's online updates.)

Equal merge penalties merge in pre-order, so fits are deterministic and
a cold ``partial_fit`` builds the tree and weights of a refit on the
union.  The tree is laid out in pre-order with each bucket's parent row;
that one array drives the region subtraction and persistence, and
``predict`` runs the same batch path as ``predict_many``.
"""

from __future__ import annotations

import time
from typing import ClassVar, Dict, Sequence

import numpy as np

from repro.core._solve import solve_weights
from repro.core.config import STHolesConfig
from repro.core.estimator import SelectivityEstimator
from repro.core.incremental import UpdateReport, assemble_design
from repro.core.workload import TrainingSet
from repro.geometry.batch import intersection_volume_matrix
from repro.geometry.ranges import Box, Range, unit_box
from repro.observability.tracing import span
from repro.solvers.simplex_ls import SolveReport

__all__ = ["STHoles"]

_MIN_VOLUME = 1e-12


class _Bucket:
    """A bucket: a box region minus the boxes of its child holes."""

    __slots__ = ("box", "children", "parent", "frequency")

    def __init__(self, box: Box, parent: "_Bucket | None", frequency: float):
        self.box = box
        self.children: list[_Bucket] = []
        self.parent = parent
        self.frequency = max(0.0, float(frequency))

    def region_volume(self) -> float:
        return max(0.0, self.box.volume() - sum(c.box.volume() for c in self.children))

    def subtree_frequency(self) -> float:
        return self.frequency + sum(c.subtree_frequency() for c in self.children)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


class STHoles(SelectivityEstimator):
    """STHoles histogram with drilling and budget-driven merging.

    Parameters
    ----------
    max_buckets:
        Bucket budget; exceeding it triggers lowest-penalty merges, ties
        broken in pre-order.
    domain:
        Data domain; defaults to the unit cube.
    """

    Config: ClassVar = STHolesConfig

    def __init__(self, max_buckets: int = 500, domain: Box | None = None):
        super().__init__()
        if max_buckets < 1:
            raise ValueError(f"max_buckets must be >= 1, got {max_buckets}")
        self.max_buckets = int(max_buckets)
        self.domain = domain
        #: How the last weight solve was produced (fallback ladder record).
        self.solve_report_: SolveReport | None = None
        #: What the last ``partial_fit`` did; None after a full fit.
        self.update_report_: UpdateReport | None = None
        self._root: _Bucket | None = None
        self._count = 0
        self._history: TrainingSet | None = None
        #: Cached ``Vol(box_j ∩ R_i)`` matrix over the current history.
        #: Bucket boxes are immutable once drilled (drilling only adds
        #: holes, merging only removes buckets), so surviving columns stay
        #: valid across updates; the region subtraction is re-derived from
        #: it each solve.
        self._overlap_cache: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def _fit(self, training: TrainingSet) -> None:
        if not all(isinstance(q, Box) for q in training.queries):
            raise TypeError("STHoles supports orthogonal-range (Box) queries only")
        domain = self.domain if self.domain is not None else unit_box(training.dim)
        self._root = _Bucket(domain, parent=None, frequency=1.0)
        self._count = 1
        self._history = training
        for sample in training:
            if sample.query.volume() <= _MIN_VOLUME:
                continue
            self._drill(self._root, sample.query, sample.selectivity)
            if self._count > self.max_buckets:
                self._merge_down_to_budget()
        self._estimate_weights(training)

    def partial_fit(
        self,
        queries: Sequence[Range],
        selectivities: Sequence[float],
        warm_start: bool = False,
    ) -> "STHoles":
        """Incrementally absorb new query feedback.

        STHoles is *defined* by one-sample-at-a-time drilling, so the
        structure update is naturally incremental: the new batch drills
        (and possibly merges) against the existing tree, exactly as a
        refit on the concatenated history would — bucket boxes never
        mutate after creation, so the cached box-overlap columns of
        surviving buckets stay valid.  Only the new holes' columns and
        the new queries' rows are computed; the region subtraction and
        the Eq. (8) solve run on the assembled matrix, warm-started from
        the previous weights when ``warm_start=True``.

        Calling ``partial_fit`` on an unfitted estimator is equivalent
        to ``fit``.
        """
        new = TrainingSet(queries, selectivities)
        if not self._fitted:
            self.fit(queries, selectivities)
            return self
        if self._history is None or self._overlap_cache is None:
            raise RuntimeError(
                "partial_fit needs the feedback history and overlap cache, "
                "which persisted artifacts do not carry; refit from scratch "
                "instead"
            )
        if not all(isinstance(q, Box) for q in new.queries):
            raise TypeError("STHoles supports orthogonal-range (Box) queries only")
        if new.dim != self._history.dim:
            raise ValueError("partial_fit dimension mismatch with earlier feedback")
        started = time.perf_counter()
        combined = TrainingSet(
            list(self._history.queries) + list(new.queries),
            np.concatenate([self._history.selectivities, new.selectivities]),
        )
        old_buckets = self._buckets
        old_col = {id(b): i for i, b in enumerate(old_buckets)}
        old_weights = self._weights
        cached = self._overlap_cache
        n_new = len(new)
        n_old = len(combined) - n_new

        with span("fit/partition", incremental=True) as partition_span:
            for sample in new:
                if sample.query.volume() <= _MIN_VOLUME:
                    continue
                self._drill(self._root, sample.query, sample.selectivity)
                if self._count > self.max_buckets:
                    self._merge_down_to_budget()
            partition_span.annotate(buckets=self._count)

        # New holes interleave in pre-order, so the columns move.
        self._flatten()
        m_new = len(self._buckets)
        reused = np.fromiter(
            (id(b) in old_col for b in self._buckets), dtype=bool, count=m_new
        )
        origin = np.fromiter(
            (old_col.get(id(b), -1) for b in self._buckets), dtype=np.int64, count=m_new
        )
        usable_cache = cached.shape == (n_old, len(old_buckets))
        with span(
            "fit/design-matrix",
            rows=n_new,
            buckets=m_new,
            incremental=usable_cache,
        ):
            if usable_cache:
                fresh = ~reused
                n_fresh = int(fresh.sum())
                if n_fresh and n_old:
                    fresh_block = intersection_volume_matrix(
                        combined.queries[:n_old], self._box_lows[fresh], self._box_highs[fresh]
                    )
                else:
                    fresh_block = np.zeros((n_old, n_fresh))
                if n_new:
                    new_rows = self._box_overlap_matrix(new.queries)
                else:
                    new_rows = np.zeros((0, m_new))
                overlaps = assemble_design(cached, reused, origin, fresh_block, new_rows)
            else:
                overlaps = self._box_overlap_matrix(combined.queries)
            self._overlap_cache = overlaps
            design = self._fractions_from_overlaps(overlaps)
        w0 = None
        if warm_start:
            w0 = np.zeros(m_new)
            w0[reused] = old_weights[origin[reused]]
        self._solve(design, combined.selectivities, w0)
        self._history = combined
        self.update_report_ = UpdateReport(
            rows_appended=n_new,
            rows_total=len(combined),
            buckets_before=len(old_buckets),
            buckets_after=m_new,
            columns_reused=int(reused.sum()),
            columns_recomputed=int((~reused).sum()),
            warm_started=warm_start,
            full_rebuild=not usable_cache,
            seconds=time.perf_counter() - started,
            residual=self.solve_report_.residual,
            rung=self.solve_report_.rung,
        )
        return self

    def _drill(self, bucket: _Bucket, query: Box, selectivity: float) -> None:
        """Top-down drilling: children first, then this bucket's region."""
        candidate = bucket.box.intersect(query)
        if candidate is None or candidate.volume() <= _MIN_VOLUME:
            return
        for child in list(bucket.children):
            self._drill(child, query, selectivity)

        query_volume = query.volume()
        if candidate == bucket.box:
            # Feedback covers the whole box: refresh this bucket's region
            # frequency (tuples in the box minus tuples already attributed
            # to the children).
            tuples_in_box = selectivity * candidate.volume() / query_volume
            children_freq = sum(c.subtree_frequency() for c in bucket.children)
            bucket.frequency = max(0.0, tuples_in_box - children_freq)
            return

        candidate = self._shrink(bucket, candidate)
        if candidate is None or candidate.volume() <= _MIN_VOLUME:
            return
        tuples_in_hole = selectivity * candidate.volume() / query_volume
        # Negligible holes carry no information worth a bucket: their
        # density matches the parent's or their mass is noise-level.
        if tuples_in_hole < 1e-6 and candidate.volume() < 1e-4:
            return
        moved = [c for c in bucket.children if candidate.contains_box(c.box)]
        hole_frequency = max(
            0.0, tuples_in_hole - sum(c.subtree_frequency() for c in moved)
        )
        # Carve the hole's volume out of the parent's region and reduce the
        # parent's frequency proportionally (the original's update).
        region_before = bucket.region_volume()
        carved = candidate.volume() - sum(c.box.volume() for c in moved)
        if region_before > _MIN_VOLUME and carved > 0:
            bucket.frequency *= max(0.0, 1.0 - carved / region_before)
        hole = _Bucket(candidate, parent=bucket, frequency=hole_frequency)
        for child in moved:
            bucket.children.remove(child)
            child.parent = hole
            hole.children.append(child)
        bucket.children.append(hole)
        self._count += 1

    def _shrink(self, bucket: _Bucket, candidate: Box) -> Box | None:
        """Clip ``candidate`` until it partially overlaps no child."""
        current = candidate
        for _ in range(2 * bucket.box.dim + 2):
            offender = None
            for child in bucket.children:
                inter = current.intersect(child.box)
                if inter is None or inter.volume() <= _MIN_VOLUME:
                    continue
                if current.contains_box(child.box):
                    continue  # full containment: the child just moves inside
                offender = child
                break
            if offender is None:
                return current
            current = self._clip_away(current, offender.box)
            if current is None or current.volume() <= _MIN_VOLUME:
                return None
        return None

    @staticmethod
    def _clip_away(candidate: Box, obstacle: Box) -> Box | None:
        """Largest sub-box of ``candidate`` avoiding ``obstacle``."""
        best: Box | None = None
        best_volume = -1.0
        for axis in range(candidate.dim):
            if obstacle.lows[axis] > candidate.lows[axis]:
                highs = candidate.highs.copy()
                highs[axis] = obstacle.lows[axis]
                piece = Box(candidate.lows.copy(), highs)
                if piece.volume() > best_volume:
                    best, best_volume = piece, piece.volume()
            if obstacle.highs[axis] < candidate.highs[axis]:
                lows = candidate.lows.copy()
                lows[axis] = obstacle.highs[axis]
                piece = Box(lows, candidate.highs.copy())
                if piece.volume() > best_volume:
                    best, best_volume = piece, piece.volume()
        return best

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def _merge_down_to_budget(self) -> None:
        """Batched merging: one penalty scan, cheapest merges first.

        A single pass computes every parent–child merge penalty, then
        applies them cheapest-first, skipping nodes already touched this
        round (whose penalties became stale).  Repeats until the budget is
        met — at most a few passes in practice, versus one full scan per
        merge for the naive loop.
        """
        while self._count > self.max_buckets:
            # Equal penalties merge in pre-order, so every fit merges alike.
            candidates = [
                (self._merge_penalty(b), position, b)
                for position, b in enumerate(self._root.walk())
                if b.parent is not None
            ]
            if not candidates:
                return
            candidates.sort(key=lambda t: (t[0], t[1]))
            touched: set[int] = set()
            merged_any = False
            for _, _, child in candidates:
                if self._count <= self.max_buckets:
                    break
                parent = child.parent
                if parent is None or id(child) in touched or id(parent) in touched:
                    continue
                touched.add(id(child))
                touched.add(id(parent))
                self._merge_into_parent(child)
                merged_any = True
            if not merged_any:
                return

    def _merge_into_parent(self, child: _Bucket) -> None:
        parent = child.parent
        parent.children.remove(child)
        for grandchild in child.children:
            grandchild.parent = parent
            parent.children.append(grandchild)
        parent.frequency += child.frequency
        self._count -= 1

    @staticmethod
    def _merge_penalty(child: _Bucket) -> float:
        """Frequency-redistribution error of merging ``child`` into parent."""
        parent = child.parent
        v_child = max(child.region_volume(), _MIN_VOLUME)
        v_parent = max(parent.region_volume(), _MIN_VOLUME)
        merged_density = (child.frequency + parent.frequency) / (v_child + v_parent)
        return abs(child.frequency - merged_density * v_child) + abs(
            parent.frequency - merged_density * v_parent
        )

    # ------------------------------------------------------------------
    # Weight estimation (Eq. 8 over tree regions) and prediction
    # ------------------------------------------------------------------

    def _flatten(self) -> None:
        """Lay the tree out in pre-order: the bucket list, each bucket's
        parent row (``-1`` for the root), boxes and region volumes.
        A parent precedes its children, which keep their child order."""
        self._buckets = list(self._root.walk())
        row = {id(b): i for i, b in enumerate(self._buckets)}
        self._parents = np.array(
            [row[id(b.parent)] if b.parent is not None else -1 for b in self._buckets],
            dtype=np.int64,
        )
        self._box_lows = np.stack([b.box.lows for b in self._buckets])
        self._box_highs = np.stack([b.box.highs for b in self._buckets])
        self._region_volumes = np.array([b.region_volume() for b in self._buckets])

    def _estimate_weights(self, training: TrainingSet) -> None:
        self._flatten()
        self._overlap_cache = self._box_overlap_matrix(training.queries)
        self._solve(self._fractions_from_overlaps(self._overlap_cache), training.selectivities)

    def _solve(self, design: np.ndarray, selectivities: np.ndarray, warm_start=None) -> None:
        """Eq. (8) over the regions with positive volume; the rest weigh 0.

        A region its children cover has an all-zero design column, so a
        weight there would drop out of every prediction: the histogram
        would hold less than its whole mass.  ``warm_start`` (previous
        weights in the current column order) is renormalised over the
        solved regions.
        """
        live = self._region_volumes > _MIN_VOLUME
        if warm_start is not None:
            warm_start = warm_start[live]
            total = float(warm_start.sum())
            if total > 0.0:
                warm_start = warm_start / total
            else:
                warm_start = np.full(warm_start.size, 1.0 / warm_start.size)
        weights, self.solve_report_ = solve_weights(
            design[:, live], selectivities, warm_start=warm_start
        )
        self._weights = np.zeros(live.size)
        self._weights[live] = weights

    def _box_overlap_matrix(self, queries: Sequence[Range]) -> np.ndarray:
        """``Vol(box_j ∩ R_i)`` per (query, bucket box) — the cacheable part."""
        return intersection_volume_matrix(queries, self._box_lows, self._box_highs)

    def _fractions_from_overlaps(self, box_overlaps: np.ndarray) -> np.ndarray:
        """Region subtraction + normalisation, from raw box overlaps.

        Each child's box column leaves its parent's column, in pre-order:
        per parent, in child order.  ``ufunc.at`` applies repeated indices
        in that order, so the result is that of the per-child loop, bit
        for bit.
        """
        region_overlaps = box_overlaps.copy()
        np.subtract.at(region_overlaps, (slice(None), self._parents[1:]), box_overlaps[:, 1:])
        with np.errstate(divide="ignore", invalid="ignore"):
            fractions = np.where(
                self._region_volumes[None, :] > _MIN_VOLUME,
                region_overlaps / np.maximum(self._region_volumes[None, :], _MIN_VOLUME),
                0.0,
            )
        return np.clip(fractions, 0.0, 1.0)

    def _predict_batch(self, queries: Sequence[Range]) -> np.ndarray:
        return self._fractions_from_overlaps(self._box_overlap_matrix(queries)) @ self._weights

    @property
    def model_size(self) -> int:
        self._check_fitted()
        return self._count

    def bucket_boxes(self) -> list[Box]:
        """All bucket boxes (nested), for inspection."""
        self._check_fitted()
        return [b.box for b in self._root.walk()]

    def total_frequency(self) -> float:
        """Sum of region frequencies (≈ 1 when feedback is consistent)."""
        self._check_fitted()
        return float(self._root.subtree_frequency())

    # ------------------------------------------------------------------
    # Persistence (repro.persistence)
    # ------------------------------------------------------------------

    def _state_dict(self) -> Dict[str, object]:
        # The tree persists flattened (see _flatten): parent rows reference
        # earlier entries, so it rebuilds in one forward pass with child
        # order preserved.
        return {
            "parents": self._parents,
            "frequencies": np.array([b.frequency for b in self._buckets]),
            "box_lows": self._box_lows,
            "box_highs": self._box_highs,
            "region_volumes": self._region_volumes,
            "weights": self._weights,
        }

    def _load_state_dict(self, state: Dict[str, object]) -> None:
        parents = np.asarray(state["parents"], dtype=np.int64)
        frequencies = np.asarray(state["frequencies"], dtype=float)
        self._box_lows = np.asarray(state["box_lows"], dtype=float)
        self._box_highs = np.asarray(state["box_highs"], dtype=float)
        self._region_volumes = np.asarray(state["region_volumes"], dtype=float)
        self._weights = np.asarray(state["weights"], dtype=float)
        buckets: list[_Bucket] = []
        for i in range(parents.shape[0]):
            parent = buckets[int(parents[i])] if parents[i] >= 0 else None
            bucket = _Bucket(
                Box(self._box_lows[i], self._box_highs[i]), parent, frequencies[i]
            )
            if parent is not None:
                parent.children.append(bucket)
            buckets.append(bucket)
        self._root = buckets[0]
        self._buckets = buckets
        self._parents = parents
        self._count = len(buckets)
        # A restored model keeps its constructor's empty history and
        # overlap cache: it cannot partial_fit.
