"""PtsHist — the discrete-distribution learner of Section 3.3.

Designed for higher dimensions, where boxes are poor representations of
data distributions and box∩range volumes get expensive.  Buckets are
*points* in the data space:

1. ``interior_fraction * k`` points are drawn from the interiors of the
   training ranges, each range receiving a share of points proportional to
   its observed selectivity (``s_i / Σ_j s_j``);
2. the remaining points are drawn uniformly from the whole domain, so
   density can be allocated to regions no training query covers.

Sampling from non-box ranges uses the rejection sampler of Appendix A.2.
Weights are then fitted by the same generic simplex-constrained least
squares (Eq. 8) on the 0/1 membership design matrix (Eq. 7).
"""

from __future__ import annotations

from typing import ClassVar, Dict, Sequence

import numpy as np

from repro.core.config import PtsHistConfig
from repro.core.estimator import SelectivityEstimator
from repro.core.incremental import UpdateReport, absorb
from repro.core.workload import TrainingSet
from repro.distributions.discrete import DiscreteDistribution
from repro.geometry.batch import containment_matrix
from repro.geometry.ranges import Box, Range, unit_box
from repro.geometry.sampling import sample_support
from repro.core._solve import solve_weights
from repro.observability.tracing import span
from repro.solvers.simplex_ls import SOLVERS, SolveReport

__all__ = ["PtsHist"]


class PtsHist(SelectivityEstimator):
    """The paper's PtsHist estimator.

    Parameters
    ----------
    size:
        Target model size ``k`` (number of support points).  The paper pegs
        this to ``4 ×`` the number of training queries in most experiments.
    interior_fraction:
        Share of points drawn from query interiors (paper: 0.9; the rest is
        uniform over the domain).
    seed:
        Seed for the bucket-sampling generator; fitting is deterministic
        given the seed.
    objective / solver / domain:
        As in :class:`~repro.core.quadhist.QuadHist`.
    """

    Config: ClassVar = PtsHistConfig

    def __init__(
        self,
        size: int = 400,
        interior_fraction: float = 0.9,
        seed: int = 0,
        objective: str = "l2",
        solver: str = "penalty",
        domain: Box | None = None,
    ):
        super().__init__()
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if not 0.0 <= interior_fraction <= 1.0:
            raise ValueError(
                f"interior_fraction must be in [0, 1], got {interior_fraction}"
            )
        if objective not in ("l2", "linf"):
            raise ValueError(f"objective must be 'l2' or 'linf', got {objective!r}")
        if solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}, got {solver!r}")
        self.size = int(size)
        self.interior_fraction = float(interior_fraction)
        self.seed = int(seed)
        self.objective = objective
        self.solver = solver
        self.domain = domain
        #: How the last weight solve was produced (fallback ladder record).
        self.solve_report_: SolveReport | None = None
        #: What the last ``partial_fit`` did; None after a full fit.
        self.update_report_: UpdateReport | None = None
        self._distribution: DiscreteDistribution | None = None
        self._history: TrainingSet | None = None
        self._design_cache: np.ndarray | None = None

    def _fit(self, training: TrainingSet) -> None:
        domain = self.domain if self.domain is not None else unit_box(training.dim)
        if domain.dim != training.dim:
            raise ValueError("domain dimension does not match the training queries")
        rng = np.random.default_rng(self.seed)
        with span("fit/partition", size=self.size):
            points = sample_support(
                training.queries,
                training.selectivities,
                self.size,
                self.interior_fraction,
                domain,
                rng,
            )
        with span("fit/design-matrix", rows=len(training), buckets=len(points)):
            design = containment_matrix(training.queries, points)
        self._history = training
        self._design_cache = design
        weights, self.solve_report_ = solve_weights(
            design, training.selectivities, objective=self.objective, solver=self.solver
        )
        self._distribution = DiscreteDistribution(points, weights).attach_index()

    def partial_fit(
        self,
        queries: Sequence[Range],
        selectivities: Sequence[float],
        warm_start: bool = False,
    ) -> "PtsHist":
        """Incrementally absorb new query feedback (see
        :func:`~repro.core.incremental.absorb`).

        The point support is frozen at the initial fit (it was sampled
        from the first training workload), so an update only appends the
        new queries' 0/1 membership rows to the cached design matrix and
        re-solves the weights — with ``warm_start=True`` resuming from
        the current weight vector.  Unlike the tree histograms this is
        *not* equivalent to a refit on the union workload (a refit would
        re-sample the support); it trades that for an update cost
        independent of history size.

        Calling ``partial_fit`` on an unfitted estimator is equivalent
        to ``fit``.
        """
        return absorb(self, queries, selectivities, warm_start)

    def _refine_buckets(self, new: TrainingSet) -> tuple:
        """The support is frozen: each point keeps its column, and the
        warm start is the current weights."""
        weights = self._distribution.weights
        return np.arange(self._distribution.size), lambda reused: weights

    def _columns(self, queries: Sequence[Range], columns=slice(None)) -> np.ndarray:
        """Membership columns ``columns`` (all by default) for ``queries``."""
        return containment_matrix(queries, self._distribution.points[columns])

    def _estimate_weights(
        self, training: TrainingSet, warm_start: np.ndarray | None, design: np.ndarray
    ) -> None:
        """Eq. (8) on the frozen support; ``design`` becomes the cached
        design matrix."""
        weights, self.solve_report_ = solve_weights(
            design,
            training.selectivities,
            objective=self.objective,
            solver=self.solver,
            warm_start=warm_start,
        )
        self._design_cache = design
        index = self._distribution._index
        self._distribution = DiscreteDistribution(self._distribution.points, weights)
        # The support is frozen, so its index carries over.
        self._distribution._index = index

    def _predict_one(self, query: Range) -> float:
        return self._distribution.selectivity(query)

    def _predict_batch(self, queries: Sequence[Range]) -> np.ndarray:
        return self._distribution.selectivity_many(queries)

    @property
    def model_size(self) -> int:
        self._check_fitted()
        return self._distribution.size

    @property
    def distribution(self) -> DiscreteDistribution:
        """The learned discrete distribution (a valid member of 𝒟)."""
        self._check_fitted()
        return self._distribution

    def _state_dict(self) -> Dict[str, object]:
        return {
            f"distribution.{key}": value
            for key, value in self._distribution.to_state().items()
        }

    def _load_state_dict(self, state: Dict[str, object]) -> None:
        self._distribution = DiscreteDistribution.from_state(
            {
                key.split(".", 1)[1]: value
                for key, value in state.items()
                if key.startswith("distribution.")
            }
        )
        # Spatial index over the support points: rebuilt, never persisted.
        self._distribution.attach_index()
        # Feedback history and cached design rows are fit-time structures;
        # a restored model cannot partial_fit.
        self._history = None
        self._design_cache = None
