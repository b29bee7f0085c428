"""QuickSel baseline — selectivity learning with mixture models.

Reimplementation of QuickSel [Park, Zhong & Mozafari, SIGMOD 2020].  The
data distribution is modelled as a mixture of uniform *kernels*

.. math:: f(x) = \\sum_j w_j \\, \\frac{\\mathbf{1}(x \\in G_j)}{Vol(G_j)},

with one kernel per training query (the query's own region, QuickSel's
default kernel placement) plus the whole domain.  The weights solve the
variance-minimising quadratic program

.. math::
    \\min_w \\; \\int f(x)^2 dx = w^T V w \\quad \\text{s.t.} \\quad
    A w = s, \\; \\mathbf{1}^T w = 1,

where ``V_{jk} = Vol(G_j ∩ G_k) / (Vol(G_j) Vol(G_k))`` and
``A_{ij} = Vol(G_j ∩ R_i) / Vol(G_j)``.  Crucially — and faithfully to the
original — **weights may be negative**: QuickSel trades validity of the
mixture for closed-form training, which is exactly why the paper's Q-error
tables show it blowing up on low-selectivity workloads while QuadHist and
PtsHist (whose weights live on the simplex) stay bounded.

The equality constraints of real feedback can be inconsistent, so we solve
the standard penalised form (a ridge-regularised KKT system), equivalent to
the original for consistent feedback.
"""

from __future__ import annotations

from typing import ClassVar, Dict, Sequence

import numpy as np

from repro.core.config import QuickSelConfig
from repro.core.estimator import SelectivityEstimator
from repro.core.workload import TrainingSet
from repro.geometry.batch import coverage_dot, intersection_volume_matrix
from repro.geometry.index import BucketIndex, build_bucket_index
from repro.geometry.sparse import sparse_coverage_dot
from repro.geometry.ranges import Box, Range, unit_box

__all__ = ["QuickSel"]


class QuickSel(SelectivityEstimator):
    """QuickSel: uniform-mixture model fitted by a variance-minimising QP.

    Parameters
    ----------
    constraint_weight:
        Penalty on constraint violation ``||A w - s||^2`` (the hard
        constraints of the original become exact as this grows).
    ridge:
        Tikhonov term keeping the KKT system well conditioned.
    domain:
        Data domain; defaults to the unit cube.
    """

    Config: ClassVar = QuickSelConfig

    def __init__(
        self,
        constraint_weight: float = 1e4,
        ridge: float = 1e-8,
        domain: Box | None = None,
    ):
        super().__init__()
        if constraint_weight <= 0:
            raise ValueError(f"constraint_weight must be positive, got {constraint_weight}")
        if ridge < 0:
            raise ValueError(f"ridge must be non-negative, got {ridge}")
        self.constraint_weight = float(constraint_weight)
        self.ridge = float(ridge)
        self.domain = domain
        self._kernel_lows: np.ndarray | None = None
        self._kernel_highs: np.ndarray | None = None
        self._kernel_volumes: np.ndarray | None = None
        self._index: BucketIndex | None = None
        self._weights: np.ndarray | None = None

    def _fit(self, training: TrainingSet) -> None:
        if not all(isinstance(q, Box) for q in training.queries):
            raise TypeError("QuickSel supports orthogonal-range (Box) queries only")
        domain = self.domain if self.domain is not None else unit_box(training.dim)
        kernels = [domain] + [q for q in training.queries if q.volume() > 0.0]
        self._kernel_lows = np.stack([k.lows for k in kernels])
        self._kernel_highs = np.stack([k.highs for k in kernels])
        self._kernel_volumes = np.prod(self._kernel_highs - self._kernel_lows, axis=1)
        self._index = build_bucket_index(self._kernel_lows, self._kernel_highs)

        variance = self._variance_matrix()
        design = self._coverage_matrix(training.queries)
        self._weights = self._solve_qp(variance, design, training.selectivities)

    def _variance_matrix(self) -> np.ndarray:
        """``V_{jk} = Vol(G_j ∩ G_k) / (Vol(G_j) Vol(G_k))`` for all pairs."""
        lows = self._kernel_lows
        highs = self._kernel_highs
        m = lows.shape[0]
        # Pairwise interval overlaps, vectorised: (m, m, d).
        pair_lows = np.maximum(lows[:, None, :], lows[None, :, :])
        pair_highs = np.minimum(highs[:, None, :], highs[None, :, :])
        widths = np.maximum(pair_highs - pair_lows, 0.0)
        overlap = np.prod(widths, axis=2)
        denom = self._kernel_volumes[:, None] * self._kernel_volumes[None, :]
        return overlap / denom

    def _coverage_matrix(self, queries: Sequence[Range]) -> np.ndarray:
        """``Vol(G_j ∩ R_i) / Vol(G_j)`` for a whole workload at once."""
        overlaps = intersection_volume_matrix(
            queries, self._kernel_lows, self._kernel_highs, self._kernel_volumes
        )
        return np.clip(overlaps / self._kernel_volumes[None, :], 0.0, 1.0)

    def _solve_qp(self, variance: np.ndarray, design: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Penalised equality-constrained QP via its KKT linear system.

        Minimise ``w^T V w + C ||A w - s||^2`` subject to ``1^T w = 1``.
        """
        m = variance.shape[0]
        c = self.constraint_weight
        hessian = 2.0 * variance + 2.0 * c * (design.T @ design)
        hessian[np.diag_indices(m)] += self.ridge
        kkt = np.zeros((m + 1, m + 1))
        kkt[:m, :m] = hessian
        kkt[:m, m] = 1.0
        kkt[m, :m] = 1.0
        rhs = np.zeros(m + 1)
        rhs[:m] = 2.0 * c * (design.T @ s)
        rhs[m] = 1.0
        try:
            solution = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            solution, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        return solution[:m]

    def _predict_batch(self, queries: Sequence[Range]) -> np.ndarray:
        # Raw mixture estimates; predict and predict_many apply the [0, 1]
        # clip.  (All kernels have positive volume, so coverage_dot's
        # zero-volume guard never fires.)
        if self._index is not None:
            return sparse_coverage_dot(
                queries, self._index, self._kernel_volumes, self._weights
            )
        return coverage_dot(
            queries, self._kernel_lows, self._kernel_highs, self._kernel_volumes, self._weights
        )

    def raw_predict(self, query: Range) -> float:
        """Unclipped estimate — may be negative or exceed 1 (by design)."""
        self._check_fitted()
        return self._predict_one(query)

    @property
    def model_size(self) -> int:
        self._check_fitted()
        return int(self._weights.shape[0])

    def _state_dict(self) -> Dict[str, object]:
        return {
            "kernel_lows": self._kernel_lows,
            "kernel_highs": self._kernel_highs,
            "kernel_volumes": self._kernel_volumes,
            "weights": self._weights,
        }

    def _load_state_dict(self, state: Dict[str, object]) -> None:
        self._kernel_lows = np.asarray(state["kernel_lows"], dtype=float)
        self._kernel_highs = np.asarray(state["kernel_highs"], dtype=float)
        self._kernel_volumes = np.asarray(state["kernel_volumes"], dtype=float)
        self._weights = np.asarray(state["weights"], dtype=float)
        # Rebuilt deterministically from the persisted kernel arrays; the
        # index itself is never serialised.
        self._index = build_bucket_index(self._kernel_lows, self._kernel_highs)
