"""KdHist — a kd-tree variant of QuadHist for higher dimensions.

QuadHist splits a leaf into ``2^d`` children, which breaks down as ``d``
grows: a single split at ``d = 10`` creates 1024 buckets, instantly
exhausting any reasonable model-size budget (our Figure 18/19 benchmark
measures exactly that degeneration).  KdHist keeps the paper's bucket-
design *rule* — split a leaf whose estimated density share
``Vol(u ∩ R)/Vol(R) · s(R)`` exceeds ``τ`` — but replaces the split
*shape* with a kd-tree bisection: one leaf becomes two halves along a
single axis (cycling through axes by depth, halving at the midpoint).

Everything else is identical to QuadHist: the buckets are disjoint boxes
partitioning the domain, weights solve Eq. (8) on the simplex, and the
model supports any query class with computable box-intersection volumes.

Like QuadHist, the partition is order-invariant: the split rule for a
fixed node depends only on whether *some* training query pushes it over
``τ``, and splitting is monotone (more refinement never prevents other
refinement) — the same argument as Lemma A.4.
"""

from __future__ import annotations

from typing import ClassVar, Dict, Iterator, Sequence

import numpy as np

from repro.core.config import KdHistConfig
from repro.core.estimator import SelectivityEstimator
from repro.core.incremental import IncrementalTreeHistogram
from repro.core.workload import TrainingSet
from repro.distributions.histogram import HistogramDistribution
from repro.geometry.batch import batch_intersection_volumes, coverage_dot
from repro.geometry.index import BucketIndex, build_bucket_index
from repro.geometry.sparse import sparse_coverage_dot
from repro.observability.tracing import span
from repro.geometry.ranges import Box, Range, unit_box
from repro.geometry.volume import intersection_volume, range_volume
from repro.solvers.simplex_ls import SOLVERS, SolveReport

__all__ = ["KdHist"]


class _KdNode:
    """A kd-tree node covering an axis-aligned box."""

    __slots__ = ("box", "axis", "children")

    def __init__(self, box: Box, axis: int):
        self.box = box
        self.axis = axis  # the axis this node splits on (when split)
        self.children: list[_KdNode] | None = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def split(self) -> None:
        mid = 0.5 * (self.box.lows[self.axis] + self.box.highs[self.axis])
        left_highs = self.box.highs.copy()
        left_highs[self.axis] = mid
        right_lows = self.box.lows.copy()
        right_lows[self.axis] = mid
        next_axis = (self.axis + 1) % self.box.dim
        self.children = [
            _KdNode(Box(self.box.lows.copy(), left_highs), next_axis),
            _KdNode(Box(right_lows, self.box.highs.copy()), next_axis),
        ]

    def leaves(self) -> Iterator["_KdNode"]:
        if self.is_leaf:
            yield self
        else:
            for child in self.children:
                yield from child.leaves()


class KdHist(IncrementalTreeHistogram, SelectivityEstimator):
    """Binary-split histogram: QuadHist's rule with kd-tree geometry.

    Parameters mirror :class:`~repro.core.quadhist.QuadHist`; ``max_depth``
    defaults higher because each level only halves one axis (depth ``d*k``
    in KdHist reaches the granularity of depth ``k`` in QuadHist).

    Like QuadHist, KdHist supports incremental ``partial_fit`` (from
    :class:`~repro.core.incremental.IncrementalTreeHistogram`): binary
    splits are order-invariant under the same Lemma A.4 argument, so a
    feedback batch refines the existing kd-tree in place.
    """

    Config: ClassVar = KdHistConfig

    def __init__(
        self,
        tau: float = 0.01,
        max_leaves: int | None = None,
        max_depth: int = 60,
        objective: str = "l2",
        solver: str = "penalty",
        domain: Box | None = None,
    ):
        super().__init__()
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {tau}")
        if max_leaves is not None and max_leaves < 1:
            raise ValueError(f"max_leaves must be >= 1, got {max_leaves}")
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if objective not in ("l2", "linf"):
            raise ValueError(f"objective must be 'l2' or 'linf', got {objective!r}")
        if solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}, got {solver!r}")
        self.tau = float(tau)
        self.max_leaves = max_leaves
        self.max_depth = int(max_depth)
        self.objective = objective
        self.solver = solver
        self.domain = domain
        #: How the last weight solve was produced (fallback ladder record).
        self.solve_report_: SolveReport | None = None
        self._root: _KdNode | None = None
        self._history: TrainingSet | None = None
        self._distribution: HistogramDistribution | None = None
        self._leaf_lows: np.ndarray | None = None
        self._leaf_highs: np.ndarray | None = None
        self._leaf_volumes: np.ndarray | None = None
        self._index: BucketIndex | None = None
        self._weights: np.ndarray | None = None
        self._design_cache: np.ndarray | None = None
        self.update_report_ = None

    def _fit(self, training: TrainingSet) -> None:
        domain = self.domain if self.domain is not None else unit_box(training.dim)
        if domain.dim != training.dim:
            raise ValueError("domain dimension does not match the training queries")
        self._root = _KdNode(domain, axis=0)
        self._leaf_count = 1
        self._history = training
        with span("fit/partition") as partition_span:
            for sample in training:
                volume = range_volume(sample.query, domain)
                if volume <= 0.0 or sample.selectivity <= 0.0:
                    continue
                density = sample.selectivity / volume
                self._update(self._root, sample.query, density, depth=0)

            leaves = list(self._root.leaves())
            partition_span.annotate(leaves=len(leaves))
        self._leaf_lows = np.stack([leaf.box.lows for leaf in leaves])
        self._leaf_highs = np.stack([leaf.box.highs for leaf in leaves])
        self._leaf_volumes = np.prod(self._leaf_highs - self._leaf_lows, axis=1)
        self._index = build_bucket_index(self._leaf_lows, self._leaf_highs)
        self._estimate_weights(training)

    def _update(self, node: _KdNode, query: Range, density: float, depth: int) -> None:
        overlap = intersection_volume(node.box, query)
        if overlap * density <= self.tau:
            return
        if node.is_leaf:
            if depth >= self.max_depth:
                return
            if self.max_leaves is not None and self._leaf_count + 1 > self.max_leaves:
                return
            node.split()
            self._leaf_count += 1
            self._note_split(node)
        for child in node.children:
            self._update(child, query, density, depth + 1)

    # The shared incremental machinery descends via this alias.
    _descend = _update

    def _fraction_row(self, query: Range) -> np.ndarray:
        overlaps = batch_intersection_volumes(self._leaf_lows, self._leaf_highs, query)
        with np.errstate(divide="ignore", invalid="ignore"):
            fractions = np.where(self._leaf_volumes > 0, overlaps / self._leaf_volumes, 0.0)
        return np.clip(fractions, 0.0, 1.0)

    def _predict_one(self, query: Range) -> float:
        return float(self._fraction_row(query) @ self._weights)

    def _predict_batch(self, queries: Sequence[Range]) -> np.ndarray:
        if self._index is not None:
            return sparse_coverage_dot(
                queries, self._index, self._leaf_volumes, self._weights
            )
        return coverage_dot(
            queries, self._leaf_lows, self._leaf_highs, self._leaf_volumes, self._weights
        )

    @property
    def model_size(self) -> int:
        self._check_fitted()
        return int(self._weights.shape[0])

    @property
    def distribution(self) -> HistogramDistribution:
        """The learned histogram distribution."""
        self._check_fitted()
        return self._distribution

    def leaf_boxes(self) -> list[Box]:
        """The kd-tree leaves = histogram buckets."""
        self._check_fitted()
        return list(self._distribution.buckets)

    def _state_dict(self) -> Dict[str, object]:
        state: Dict[str, object] = {
            "leaf_lows": self._leaf_lows,
            "leaf_highs": self._leaf_highs,
            "leaf_volumes": self._leaf_volumes,
            "weights": self._weights,
        }
        for key, value in self._distribution.to_state().items():
            state[f"distribution.{key}"] = value
        return state

    def _load_state_dict(self, state: Dict[str, object]) -> None:
        self._leaf_lows = np.asarray(state["leaf_lows"], dtype=float)
        self._leaf_highs = np.asarray(state["leaf_highs"], dtype=float)
        self._leaf_volumes = np.asarray(state["leaf_volumes"], dtype=float)
        self._weights = np.asarray(state["weights"], dtype=float)
        # Rebuilt deterministically from the persisted bucket arrays; the
        # index itself is never serialised.
        self._index = build_bucket_index(self._leaf_lows, self._leaf_highs)
        self._distribution = HistogramDistribution.from_state(
            {
                key.split(".", 1)[1]: value
                for key, value in state.items()
                if key.startswith("distribution.")
            }
        )
        self._root = None
        self._history = None
        self._design_cache = None
