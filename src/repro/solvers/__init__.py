"""Optimisation routines for the weight-estimation phase (Eq. 8).

Every learner in this repository fits bucket weights by solving

.. math::
    \\min_w \\; \\|A w - s\\|_2^2 \\quad
    \\text{s.t.}\\; \\sum_j w_j = 1,\\; 0 \\le w_j \\le 1,

a convex quadratic program over the probability simplex (Eq. 8 of the
paper).  :mod:`~repro.solvers.simplex_ls` offers two interchangeable
methods (penalised NNLS — the paper's choice via scipy's solver [1] — and
exact projected gradient), :mod:`~repro.solvers.linf` trains under the L∞
objective (Section 4.6), and :mod:`~repro.solvers.maxent` solves the
maximum-entropy program used by the ISOMER baseline.
"""

from repro.solvers.simplex_ls import (
    SolveAttempt,
    SolveReport,
    fit_simplex_weights,
    fit_simplex_weights_robust,
    project_to_simplex,
)
from repro.solvers.linf import fit_simplex_weights_linf
from repro.solvers.maxent import fit_maxent_weights

__all__ = [
    "fit_simplex_weights",
    "fit_simplex_weights_robust",
    "SolveAttempt",
    "SolveReport",
    "project_to_simplex",
    "fit_simplex_weights_linf",
    "fit_maxent_weights",
]
