"""GaussianMixtureHist — the paper's future-work model, as an extension.

Section 6 lists "developing an algorithm that computes a Gaussian mixture
(or another model) with a small loss given a training sample" as an open
problem.  This module contributes a practical instance that stays inside
the paper's own two-phase recipe:

1. **Component design** (mirrors PtsHist's bucket design): component means
   are sampled from training-query interiors proportionally to selectivity
   (plus a uniform share), and each component gets a diagonal covariance
   drawn from a small bandwidth grid.
2. **Weight estimation** (identical to Eq. 8): the mixture weights solve
   the simplex-constrained least squares over the design matrix
   ``A[i, j] = mass_j(R_i)``, the probability mass of component ``j``
   inside query ``i``, through the same fallback ladder and solver
   metrics as every other learner.

Component masses are exact for orthogonal ranges and halfspaces (Gaussian
CDFs; a 1-D projection for halfspaces since diagonal Gaussians are jointly
normal along any direction) and quasi-Monte-Carlo for other ranges.

Because the weights live on the probability simplex and each component is
a genuine (diagonal) Gaussian, the learned model is a *bona fide* Gaussian
mixture — a member of a distribution family with unbounded support, which
the paper points out its framework already covers.
"""

from __future__ import annotations

from typing import ClassVar, Dict

import numpy as np
from scipy.stats import norm, qmc

from repro.core._solve import solve_weights
from repro.core.config import GaussianMixtureConfig
from repro.core.estimator import SelectivityEstimator
from repro.core.workload import TrainingSet
from repro.geometry.ranges import Box, Halfspace, Range, unit_box
from repro.geometry.sampling import sample_support
from repro.observability.tracing import span
from repro.solvers.simplex_ls import SOLVERS, SolveReport

__all__ = ["GaussianMixtureHist"]

#: Quasi-MC sample size for component masses of non-box/halfspace ranges.
_QMC_POINTS = 2048


class GaussianMixtureHist(SelectivityEstimator):
    """A query-driven Gaussian-mixture selectivity estimator.

    Parameters
    ----------
    components:
        Number of mixture components ``k``.
    bandwidths:
        Candidate per-axis standard deviations; each component draws its
        diagonal covariance entries from this grid.  Smaller bandwidths
        give spikier mixtures (more histogram-like), larger ones smooth.
    interior_fraction:
        Share of component means sampled from query interiors
        (vs uniformly), as in PtsHist.
    seed / objective / solver / domain:
        As in :class:`~repro.core.ptshist.PtsHist`.
    """

    Config: ClassVar = GaussianMixtureConfig

    def __init__(
        self,
        components: int = 200,
        bandwidths: tuple[float, ...] = (0.02, 0.05, 0.12),
        interior_fraction: float = 0.9,
        seed: int = 0,
        objective: str = "l2",
        solver: str = "penalty",
        domain: Box | None = None,
    ):
        super().__init__()
        if components < 1:
            raise ValueError(f"components must be >= 1, got {components}")
        if not bandwidths or any(b <= 0 for b in bandwidths):
            raise ValueError(f"bandwidths must be positive, got {bandwidths}")
        if not 0.0 <= interior_fraction <= 1.0:
            raise ValueError(
                f"interior_fraction must be in [0, 1], got {interior_fraction}"
            )
        if objective not in ("l2", "linf"):
            raise ValueError(f"objective must be 'l2' or 'linf', got {objective!r}")
        if solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}, got {solver!r}")
        self.components = int(components)
        self.bandwidths = tuple(float(b) for b in bandwidths)
        self.interior_fraction = float(interior_fraction)
        self.seed = int(seed)
        self.objective = objective
        self.solver = solver
        self.domain = domain
        #: How the last weight solve was produced (fallback ladder record).
        self.solve_report_: SolveReport | None = None
        self._means: np.ndarray | None = None
        self._sigmas: np.ndarray | None = None
        self._weights: np.ndarray | None = None
        self._qmc_normal: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Component design
    # ------------------------------------------------------------------

    def _fit(self, training: TrainingSet) -> None:
        domain = self.domain if self.domain is not None else unit_box(training.dim)
        if domain.dim != training.dim:
            raise ValueError("domain dimension does not match the training queries")
        rng = np.random.default_rng(self.seed)
        with span("fit/partition", components=self.components):
            means = sample_support(
                training.queries,
                training.selectivities,
                self.components,
                self.interior_fraction,
                domain,
                rng,
            )
            sigma_choices = rng.choice(
                len(self.bandwidths), size=(self.components, training.dim)
            )
            sigmas = np.asarray(self.bandwidths)[sigma_choices]
            self._means = means
            self._sigmas = sigmas
            # Fixed standard-normal QMC points for non-analytic range masses.
            sampler = qmc.Sobol(d=training.dim, scramble=True, seed=self.seed + 1)
            uniform = np.clip(sampler.random(_QMC_POINTS), 1e-9, 1 - 1e-9)
            self._qmc_normal = norm.ppf(uniform)

        with span("fit/design-matrix", rows=len(training), buckets=self.components):
            design = np.stack([self._mass_row(q) for q in training.queries])
        self._weights, self.solve_report_ = solve_weights(
            design, training.selectivities, objective=self.objective, solver=self.solver
        )

    # ------------------------------------------------------------------
    # Component masses
    # ------------------------------------------------------------------

    def _mass_row(self, query: Range) -> np.ndarray:
        """``P[X_j in R]`` for every component ``j`` (one design row)."""
        if isinstance(query, Box):
            return self._box_masses(query)
        if isinstance(query, Halfspace):
            return self._halfspace_masses(query)
        return self._qmc_masses(query)

    def _box_masses(self, box: Box) -> np.ndarray:
        upper = norm.cdf((box.highs[None, :] - self._means) / self._sigmas)
        lower = norm.cdf((box.lows[None, :] - self._means) / self._sigmas)
        return np.prod(np.maximum(upper - lower, 0.0), axis=1)

    def _halfspace_masses(self, halfspace: Halfspace) -> np.ndarray:
        # a.X is normal with mean a.mu and variance sum_i a_i^2 sigma_i^2
        # for a diagonal Gaussian X; P[a.X >= b] = 1 - Phi((b - mu')/s').
        mean_proj = self._means @ halfspace.normal
        var_proj = (self._sigmas**2) @ (halfspace.normal**2)
        std_proj = np.sqrt(np.maximum(var_proj, 1e-30))
        return 1.0 - norm.cdf((halfspace.offset - mean_proj) / std_proj)

    def _qmc_masses(self, query: Range) -> np.ndarray:
        masses = np.empty(self.components)
        for j in range(self.components):
            points = self._means[j] + self._qmc_normal * self._sigmas[j]
            masses[j] = float(np.mean(query.contains(points)))
        return masses

    # ------------------------------------------------------------------
    # Prediction & introspection
    # ------------------------------------------------------------------

    def _predict_one(self, query: Range) -> float:
        if query.dim != self._means.shape[1]:
            raise ValueError(
                f"query of dimension {query.dim} against {self._means.shape[1]}-dimensional data"
            )
        return float(self._mass_row(query) @ self._weights)

    @property
    def model_size(self) -> int:
        self._check_fitted()
        return int(self._weights.shape[0])

    def density(self, points: np.ndarray) -> np.ndarray:
        """Mixture density at the given points (unbounded support)."""
        self._check_fitted()
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        # (n, k): per-component densities via the diagonal-Gaussian product.
        z = (pts[:, None, :] - self._means[None, :, :]) / self._sigmas[None, :, :]
        log_norm = -0.5 * np.sum(z**2, axis=2) - np.sum(
            np.log(self._sigmas[None, :, :] * np.sqrt(2 * np.pi)), axis=2
        )
        values = np.exp(log_norm) @ self._weights
        return float(values[0]) if single else values

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` points from the learned mixture."""
        self._check_fitted()
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        choices = rng.choice(self.components, size=count, p=self._weights)
        noise = rng.normal(size=(count, self._means.shape[1]))
        return self._means[choices] + noise * self._sigmas[choices]

    def _state_dict(self) -> Dict[str, object]:
        # _qmc_normal is part of the fitted model: it fixes the QMC masses
        # used for non-analytic ranges, so persisting it keeps predictions
        # bitwise-identical across save/load.
        return {
            "means": self._means,
            "sigmas": self._sigmas,
            "weights": self._weights,
            "qmc_normal": self._qmc_normal,
        }

    def _load_state_dict(self, state: Dict[str, object]) -> None:
        self._means = np.asarray(state["means"], dtype=float)
        self._sigmas = np.asarray(state["sigmas"], dtype=float)
        self._weights = np.asarray(state["weights"], dtype=float)
        self._qmc_normal = np.asarray(state["qmc_normal"], dtype=float)
