"""QuadHist — the quadtree histogram of Section 3.2 (Algorithms 1 & 2).

Bucket design builds a quadtree (a ``2^d``-ary tree in ``d`` dimensions)
over the data domain.  Processing training sample ``(R, s)``, every leaf
``u`` whose *estimated density share*

.. math:: \\frac{Vol(u \\cap R)}{Vol(R)} \\cdot s(R)

exceeds the threshold ``τ`` is split into its ``2^d`` children, recursively
(Algorithm 2).  The final leaves become histogram buckets, and weights are
estimated by the generic simplex-constrained least squares of Eq. (8).

Properties reproduced from the paper:

* **Stability (Lemma A.4):** the partition is invariant to the order in
  which training queries are processed (when no leaf cap binds) — tested in
  ``tests/core/test_quadhist.py``.
* **Model-size control:** either via ``τ`` or a hard ``max_leaves`` cap, as
  described at the end of Section 3.2.
* **Query-class genericity:** the splitting rule and the design matrix only
  need ``Vol(box ∩ R)``, so orthogonal ranges, halfspaces and balls (exact
  in 2-D) all work unchanged.

The partition is computed one tree level at a time over leaf arrays
(:mod:`repro.core.incremental`); its leaves are bitwise those of the
sequential one-query descent, which the tests keep as the oracle.

:class:`BucketHistogram`, QuadHist's base, is shared with the ISOMER
baseline and the arrangement ERM's histogram mode.  It looks the coverage
kernels up by this module's names, which ``benchmarks/e2e/tracer.py``
patches to time them.
"""

from __future__ import annotations

from typing import ClassVar, Dict, Sequence

import numpy as np

from repro.core.config import QuadHistConfig
from repro.core.estimator import SelectivityEstimator
from repro.core.incremental import IncrementalTreeHistogram
from repro.core.workload import TrainingSet
from repro.distributions.histogram import HistogramDistribution
from repro.geometry.batch import coverage_dot, coverage_matrix
from repro.geometry.index import BucketIndex, build_bucket_index
from repro.geometry.sparse import sparse_coverage_dot
from repro.geometry.ranges import Box, Range
from repro.observability.tracing import span
from repro.solvers.simplex_ls import SOLVERS, SolveReport

__all__ = ["BucketHistogram", "QuadHist"]


class BucketHistogram(SelectivityEstimator):
    """A histogram over disjoint box buckets (the paper's Eq. 6).

    A subclass designs the buckets, hands their boxes to
    :meth:`_set_buckets` and sets ``_weights``.  This base builds the
    Eq. (8) design matrix with the dense kernel, predicts
    ``Σ_j w_j · Vol(B_j ∩ R)/Vol(B_j)`` through the bucket index (the
    dense kernel when ``_index`` is None), views the model as a
    ``HistogramDistribution``, and persists it as
    ``{prefix}_lows``, ``{prefix}_highs``, ``{prefix}_volumes`` and
    ``weights``, ``prefix`` being the class's ``_state_prefix``.
    """

    #: Key prefix of the persisted bucket arrays.
    _state_prefix: ClassVar[str]

    def __init__(self):
        super().__init__()
        self._lows: np.ndarray | None = None
        self._highs: np.ndarray | None = None
        self._volumes: np.ndarray | None = None
        self._index: BucketIndex | None = None
        self._weights: np.ndarray | None = None

    def _set_buckets(self, lows: np.ndarray, highs: np.ndarray) -> None:
        """Install the bucket boxes, their volumes and the bucket index."""
        self._lows = lows
        self._highs = highs
        self._volumes = np.prod(highs - lows, axis=1)
        self._index = build_bucket_index(lows, highs)

    def _design(self, queries: Sequence[Range]) -> np.ndarray:
        """The Eq. (8) design matrix ``Vol(B_j ∩ R_i)/Vol(B_j)``."""
        with span("fit/design-matrix", rows=len(queries), buckets=int(self._volumes.shape[0])):
            return coverage_matrix(queries, self._lows, self._highs, self._volumes)

    def _predict_batch(self, queries: Sequence[Range]) -> np.ndarray:
        if self._index is not None:
            return sparse_coverage_dot(queries, self._index, self._volumes, self._weights)
        return coverage_dot(queries, self._lows, self._highs, self._volumes, self._weights)

    @property
    def model_size(self) -> int:
        self._check_fitted()
        return int(self._weights.shape[0])

    @property
    def distribution(self) -> HistogramDistribution:
        """The learned histogram distribution (a valid member of 𝒟): a
        view over the arrays that predict, built on each access."""
        self._check_fitted()
        return HistogramDistribution.from_state(
            {
                "lows": self._lows,
                "highs": self._highs,
                "volumes": self._volumes,
                "weights": self._weights,
            }
        )

    def _state_dict(self) -> Dict[str, object]:
        prefix = self._state_prefix
        return {
            f"{prefix}_lows": self._lows,
            f"{prefix}_highs": self._highs,
            f"{prefix}_volumes": self._volumes,
            "weights": self._weights,
        }

    def _load_state_dict(self, state: Dict[str, object]) -> None:
        # Older artifacts' ``distribution.*`` copies of these arrays are
        # ignored.  A restored model keeps its constructor's empty fit-time
        # state, so it predicts but cannot refine.
        prefix = self._state_prefix
        self._lows = np.asarray(state[f"{prefix}_lows"], dtype=float)
        self._highs = np.asarray(state[f"{prefix}_highs"], dtype=float)
        self._volumes = np.asarray(state[f"{prefix}_volumes"], dtype=float)
        self._weights = np.asarray(state["weights"], dtype=float)
        # Rebuilt deterministically from the persisted bucket arrays; the
        # index itself is never serialised.
        self._index = build_bucket_index(self._lows, self._highs)


class QuadHist(IncrementalTreeHistogram, BucketHistogram):
    """The paper's QuadHist estimator.

    Parameters
    ----------
    tau:
        Density-share splitting threshold of Algorithm 2 (smaller ⟹ finer
        partition ⟹ larger model).
    max_leaves:
        Optional hard cap on the number of buckets ("hard termination
        condition on the number of leaves", Section 3.2).  ``None`` = no cap.
        A capped fit keeps the first ``⌊(max_leaves − 1)/(2^d − 1)⌋``
        splits by first training query whose share exceeds ``τ`` at the
        node, then DFS pre-order: the descent's splits before the cap.
    max_depth:
        Safety cap on tree depth (the paper's domain-normalised workloads
        never approach it; it guards against adversarial degenerate
        queries).
    objective:
        ``"l2"`` (Eq. 8, the default) or ``"linf"`` (Section 4.6).
    solver:
        Simplex-LS method for the L2 objective (see
        :func:`repro.solvers.simplex_ls.fit_simplex_weights`).
    domain:
        Data domain; defaults to the unit cube of the training dimension.
    """

    Config: ClassVar = QuadHistConfig
    _state_prefix = "leaf"

    def __init__(
        self,
        tau: float = 0.01,
        max_leaves: int | None = None,
        max_depth: int = 20,
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
        self._history: TrainingSet | None = None
        #: Tree depth of each leaf; fit-time state, never persisted.
        self._leaf_depths: np.ndarray | None = None
        self._design_cache: np.ndarray | None = None
        self.update_report_ = None

    # ------------------------------------------------------------------
    # Bucket design (Algorithms 1 & 2)
    # ------------------------------------------------------------------
    # partial_fit (incremental refinement: append-only design rows,
    # split-only column remaps, optional warm-started solve) comes from
    # IncrementalTreeHistogram.

    def _fit(self, training: TrainingSet) -> None:
        domain = self._domain_box(training.dim)
        self._history = training
        self._refine(training, domain.lows[None], domain.highs[None], np.zeros(1, dtype=np.int64))
        self._estimate_weights(training)

    @staticmethod
    def _fanout(dim: int) -> int:
        return 1 << dim

    @staticmethod
    def _split(lows: np.ndarray, highs: np.ndarray, depths: np.ndarray) -> tuple:
        """Algorithm 2's split: each box into its ``2^d`` midpoint children,
        in :meth:`Box.split` order (child ``k`` takes the upper half of
        axis ``i`` when bit ``i`` of ``k`` is set)."""
        dim = lows.shape[1]
        upper = (np.arange(1 << dim)[:, None] >> np.arange(dim) & 1).astype(bool)
        mid = 0.5 * (lows + highs)
        child_lows = np.where(upper, mid[:, None], lows[:, None])
        child_highs = np.where(upper, highs[:, None], mid[:, None])
        return child_lows.reshape(-1, dim), child_highs.reshape(-1, dim)

    def leaf_boxes(self) -> list[Box]:
        """The tree leaves = histogram buckets (for inspection/plots)."""
        return self.distribution.buckets
