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

The design build, prediction and persistence (under ``kernel_*`` keys)
come from :class:`~repro.core.quadhist.WeightedBoxes`, the histogram
learners' Eq. (6) model; signed weights leave QuickSel no ``distribution``.
"""

from __future__ import annotations

from typing import ClassVar

import numpy as np

from repro.core.config import QuickSelConfig
from repro.core.quadhist import WeightedBoxes
from repro.core.workload import TrainingSet
from repro.geometry.batch import intersection_volume_matrix
from repro.geometry.ranges import Box, Range, unit_box

__all__ = ["QuickSel"]


class QuickSel(WeightedBoxes):
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
    _state_prefix = "kernel"

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

    def _fit(self, training: TrainingSet) -> None:
        if not all(isinstance(q, Box) for q in training.queries):
            raise TypeError("QuickSel supports orthogonal-range (Box) queries only")
        domain = self.domain if self.domain is not None else unit_box(training.dim)
        kernels = [domain] + [q for q in training.queries if q.volume() > 0.0]
        self._set_buckets(
            np.stack([k.lows for k in kernels]), np.stack([k.highs for k in kernels])
        )
        # V_jk = Vol(G_j ∩ G_k) / (Vol(G_j) Vol(G_k)): the kernels as queries.
        volumes = self._volumes
        overlaps = intersection_volume_matrix(kernels, self._lows, self._highs, volumes)
        variance = overlaps / (volumes[:, None] * volumes[None, :])
        self._weights = self._solve_qp(
            variance, self._design(training.queries), training.selectivities
        )

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

    def raw_predict(self, query: Range) -> float:
        """Unclipped estimate — may be negative or exceed 1 (by design)."""
        self._check_fitted()
        return self._predict_one(query)
