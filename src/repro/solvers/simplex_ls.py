"""Least squares over the probability simplex (Eq. 8 of the paper).

Two interchangeable methods (:data:`SOLVERS`) solve

.. math::
    \\min_w \\|A w - s\\|_2^2 \\quad \\text{s.t.} \\quad
    \\mathbf{1}^T w = 1, \\; 0 \\le w \\le 1:

``"penalty"``
    The paper's approach: append a heavily weighted row ``√λ·1ᵀ w = √λ`` to
    the system and solve plain NNLS (scipy's compiled Lawson–Hanson — the
    solver the paper cites), then renormalise exactly.  Fast and, for
    large λ, within solver precision of the constrained optimum.
``"pgd"``
    Exact accelerated projected gradient (FISTA) with Euclidean projection
    onto the simplex — converges to the true constrained minimiser.

Both methods return a valid probability vector; ``w <= 1`` is implied by
``w >= 0`` and the sum constraint.

For serving paths that must never fail, :func:`fit_simplex_weights_robust`
wraps the single-method solvers in a **fallback ladder**

.. code-block:: text

    requested method  →  pgd  →  lstsq-project  →  uniform

with per-attempt deadlines, retry-with-backoff for transient numerical
failures, and a :class:`SolveReport` recording which rung produced the
answer.  The final rung (the uniform distribution) cannot fail, so the
robust entry point always returns a valid simplex vector.

Both entry points accept ``warm_start=``, a previous weight vector to
resume from: either method polishes it with FISTA from its simplex
projection (power-iteration Lipschitz estimate, so the solve stays
matvec-cheap).  For an incremental refit this replaces a full NNLS solve
with a handful of iterations — the basis of the cheap `update()` path,
whose accuracy cost ``docs/online_learning.md`` measures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.robustness.chaos import active as _active_chaos
from repro.robustness.errors import DataValidationError, SolverConvergenceError

__all__ = [
    "SOLVERS",
    "project_to_simplex",
    "fit_simplex_weights",
    "fit_simplex_weights_robust",
    "SolveAttempt",
    "SolveReport",
]

#: The Eq. (8) methods an estimator's ``solver=`` may name.
SOLVERS = ("penalty", "pgd")


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of ``v`` onto the probability simplex.

    The O(n log n) sorting algorithm of Held/Wolfe/Crowder (popularised by
    Duchi et al. 2008).
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"v must be 1-D, got shape {v.shape}")
    n = v.shape[0]
    sorted_desc = np.sort(v)[::-1]
    cumulative = np.cumsum(sorted_desc) - 1.0
    rho_candidates = sorted_desc - cumulative / np.arange(1, n + 1)
    rho = int(np.nonzero(rho_candidates > 0)[0][-1])
    theta = cumulative[rho] / (rho + 1)
    return np.maximum(v - theta, 0.0)


def _penalty_solution(a: np.ndarray, s: np.ndarray, penalty: float) -> np.ndarray:
    from scipy.optimize import nnls as scipy_nnls

    m, n = a.shape
    root = np.sqrt(penalty)
    a_aug = np.concatenate([a, root * np.ones((1, n))], axis=0)
    s_aug = np.concatenate([s, [root]])
    try:
        w, _ = scipy_nnls(a_aug, s_aug, maxiter=max(30 * n, 3000))
    except RuntimeError:
        # scipy >= 1.12 raises instead of returning its best iterate
        # when the iteration cap is hit on ill-conditioned systems;
        # fall back to the exact projected-gradient solve.
        return _fista(a, s, np.full(n, 1.0 / n), max_iter=3000, tol=1e-10)
    total = float(w.sum())
    if total <= 0.0:
        return np.full(n, 1.0 / n)
    return w / total


def _spectral_norm_estimate(a: np.ndarray, iters: int = 40) -> float:
    """Power-iteration upper estimate of ``||a||_2``.

    The exact spectral norm is a full SVD — O(mn·min(m,n)) — which can
    cost more than the warm solve it serves.  Power iteration needs at
    most ``iters`` matvec pairs, and stops once its estimate stops
    growing; the 5% safety margin keeps the FISTA step valid (an
    *over*-estimate of the Lipschitz constant is safe, an under-estimate
    diverges).
    """
    m, n = a.shape
    v = np.full(n, 1.0 / np.sqrt(n))
    sigma = 0.0
    for _ in range(iters):
        u = a @ v
        norm_u = float(np.linalg.norm(u))
        if norm_u == 0.0:
            return 0.0
        v = a.T @ (u / norm_u)
        estimate = float(np.linalg.norm(v))
        if estimate == 0.0:
            return 0.0
        if estimate <= sigma:
            break
        sigma = estimate
        v = v / sigma
    return 1.05 * sigma


def _fista(
    a: np.ndarray,
    s: np.ndarray,
    w0: np.ndarray,
    max_iter: int,
    tol: float,
    lipschitz: float | None = None,
) -> np.ndarray:
    # Lipschitz constant of the gradient: 2 * largest eigenvalue of A^T A.
    if min(a.shape) == 0:
        return w0
    if lipschitz is None:
        spectral = np.linalg.norm(a, ord=2)
        lipschitz = 2.0 * spectral**2
    if lipschitz <= 0.0:
        return w0
    step = 1.0 / lipschitz
    w = w0.copy()
    y = w0.copy()
    t = 1.0
    prev_obj = np.inf
    for _ in range(max_iter):
        gradient = 2.0 * (a.T @ (a @ y - s))
        w_next = project_to_simplex(y - step * gradient)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = w_next + (t - 1.0) / t_next * (w_next - w)
        w, t = w_next, t_next
        obj = float(np.sum((a @ w - s) ** 2))
        if abs(prev_obj - obj) <= tol * max(1.0, obj):
            break
        prev_obj = obj
    return w


def _warm_polish(
    a: np.ndarray, s: np.ndarray, warm: np.ndarray, max_iter: int, tol: float
) -> np.ndarray:
    """Resume from ``warm``: FISTA from its simplex projection, with a
    power-iteration Lipschitz estimate instead of the exact (SVD-cost)
    spectral norm — the whole point of the warm path is to stay cheap.

    The iteration budget is deliberately small, and callers that need
    more accuracy fall back to a cold solve (the service's residual
    budget enforces exactly that).  The stall test ``tol · max(1, obj)``
    is absolute for a training objective far below 1, so the polish
    usually stops after two iterations, well short of the cold optimum
    (``docs/online_learning.md``).
    """
    start = project_to_simplex(warm)
    sigma = _spectral_norm_estimate(a, iters=25)
    iters = max(30, min(max_iter, 100))
    # A looser stall tolerance than the cold solve's; the residual budget
    # upstream catches any genuinely stale start.
    return _fista(a, s, start, iters, max(tol, 1e-7), lipschitz=2.0 * sigma * sigma)


def _clean_warm_start(warm_start: np.ndarray | None, n: int) -> np.ndarray | None:
    """Validate a warm-start vector; returns ``None`` when unusable."""
    if warm_start is None:
        return None
    w = np.asarray(warm_start, dtype=float)
    if w.shape != (n,) or not np.all(np.isfinite(w)):
        return None
    return np.maximum(w, 0.0)


def fit_simplex_weights(
    a: np.ndarray,
    s: np.ndarray,
    method: str = "penalty",
    penalty: float = 1e4,
    max_iter: int = 2000,
    tol: float = 1e-10,
    warm_start: np.ndarray | None = None,
) -> np.ndarray:
    """Solve Eq. (8): simplex-constrained least squares.

    Parameters
    ----------
    a:
        Design matrix ``(n_queries, n_buckets)``; entry ``(i, j)`` is the
        fraction of bucket ``j`` covered by query ``i`` (histograms) or the
        indicator ``1(B_j in R_i)`` (discrete distributions).
    s:
        Observed selectivities, shape ``(n_queries,)``.
    method:
        One of :data:`SOLVERS`: ``"penalty"`` (default) or ``"pgd"``.
    warm_start:
        Optional previous weight vector (shape ``(n_buckets,)``) to
        resume from; either method polishes it with FISTA from its
        simplex projection.  Must already be remapped to the *current*
        column order — a shape mismatch raises
        :class:`DataValidationError`.

    Returns
    -------
    Weights ``w`` on the probability simplex.
    """
    a = np.asarray(a, dtype=float)
    s = np.asarray(s, dtype=float)
    if a.ndim != 2:
        raise DataValidationError(f"a must be 2-D, got shape {a.shape}")
    if s.shape != (a.shape[0],):
        raise DataValidationError(f"s must have shape ({a.shape[0]},), got {s.shape}")
    if method not in SOLVERS:
        raise ValueError(f"unknown method {method!r}; choose from {SOLVERS}")
    n = a.shape[1]
    if n == 0:
        raise DataValidationError("at least one bucket is required")
    if warm_start is not None:
        ws = np.asarray(warm_start, dtype=float)
        if ws.shape != (n,):
            raise DataValidationError(
                f"warm_start must have shape ({n},), got {ws.shape}; "
                "remap columns before warm-starting"
            )
        warm_start = _clean_warm_start(ws, n)
    if n == 1:
        return np.ones(1)

    if warm_start is not None:
        # The compiled NNLS cannot resume from a previous solution;
        # polishing the warm start with the exact projected-gradient
        # method converges in a handful of cheap matvec iterations when
        # the optimum moved only slightly — the incremental fast path.
        # Cold solves keep each method's own formulation.
        return _warm_polish(a, s, warm_start, max_iter, tol)
    if method == "penalty":
        return _penalty_solution(a, s, penalty)
    return _fista(a, s, np.full(n, 1.0 / n), max_iter, tol)


# ---------------------------------------------------------------------------
# Fallback ladder (robust entry point)
# ---------------------------------------------------------------------------


@dataclass
class SolveAttempt:
    """One rung attempt inside the fallback ladder."""

    rung: str
    ok: bool
    seconds: float
    error: str | None = None


@dataclass
class SolveReport:
    """How a robust solve was actually produced."""

    requested: str
    rung: str = ""
    fallback: bool = False
    deadline_exceeded: bool = False
    inputs_cleaned: bool = False
    warm_started: bool = False
    residual: float = float("nan")
    seconds: float = 0.0
    attempts: list[SolveAttempt] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "requested": self.requested,
            "rung": self.rung,
            "fallback": self.fallback,
            "deadline_exceeded": self.deadline_exceeded,
            "inputs_cleaned": self.inputs_cleaned,
            "warm_started": self.warm_started,
            "residual": None if np.isnan(self.residual) else round(self.residual, 6),
            "seconds": round(self.seconds, 4),
            "attempts": [
                {"rung": a.rung, "ok": a.ok, "seconds": round(a.seconds, 4), "error": a.error}
                for a in self.attempts
            ],
        }


def _validate_simplex(w: np.ndarray, n: int, tol: float = 1e-6) -> np.ndarray:
    """Check ``w`` is a usable probability vector; normalise float noise."""
    w = np.asarray(w, dtype=float)
    if w.shape != (n,):
        raise SolverConvergenceError(f"solver returned shape {w.shape}, expected ({n},)")
    if not np.all(np.isfinite(w)):
        raise SolverConvergenceError("solver returned non-finite weights")
    if np.any(w < -tol):
        raise SolverConvergenceError(f"solver returned negative weights (min {w.min():.3g})")
    total = float(w.sum())
    if not (1.0 - 1e-3) <= total <= (1.0 + 1e-3):
        raise SolverConvergenceError(f"solver weights sum to {total:.6g}, expected 1")
    w = np.maximum(w, 0.0)
    return w / w.sum()


#: Exception types treated as *transient* (retried with backoff) rather
#: than structural.  Anything else aborts the rung immediately.
_TRANSIENT = (SolverConvergenceError, np.linalg.LinAlgError, FloatingPointError, RuntimeError)


def _run_rung(rung: str, a: np.ndarray, s: np.ndarray, penalty: float,
              max_iter: int, tol: float,
              warm_start: np.ndarray | None = None) -> np.ndarray:
    n = a.shape[1]
    monkey = _active_chaos()
    if rung != "uniform" and monkey is not None and monkey.should_fail_solver(rung):
        raise SolverConvergenceError(f"chaos: injected failure in rung {rung!r}")
    if rung == "lstsq-project":
        solution, *_ = np.linalg.lstsq(a, s, rcond=None)
        return project_to_simplex(solution)
    if rung == "uniform":
        return np.full(n, 1.0 / n)
    return fit_simplex_weights(a, s, method=rung, penalty=penalty,
                               max_iter=max_iter, tol=tol, warm_start=warm_start)


def fit_simplex_weights_robust(
    a: np.ndarray,
    s: np.ndarray,
    method: str = "penalty",
    penalty: float = 1e4,
    max_iter: int = 2000,
    tol: float = 1e-10,
    deadline_seconds: float | None = None,
    retries: int = 1,
    backoff_seconds: float = 0.02,
    warm_start: np.ndarray | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Solve Eq. (8) with the fallback ladder; never raises on solver
    failure.

    The ladder is ``method → pgd → lstsq-project → uniform`` (duplicates
    removed, order kept).  Each rung is validated with
    :func:`_validate_simplex`; a failing rung is retried ``retries``
    times with exponential backoff (transient numerical failures only)
    before the ladder descends.  ``deadline_seconds`` bounds the *total*
    solve: once spent, remaining non-trivial rungs are skipped and the
    uniform rung answers.

    ``warm_start`` is best-effort: an invalid vector (wrong shape,
    non-finite entries) is silently dropped rather than failing the
    robust path — the report records whether it was actually used.

    Returns
    -------
    ``(weights, report)`` — a valid probability vector plus the
    :class:`SolveReport` describing how it was obtained.

    Raises
    ------
    DataValidationError
        Only for structurally unusable inputs (wrong shapes / no
        buckets) — never for numerical failure.
    """
    a = np.asarray(a, dtype=float)
    s = np.asarray(s, dtype=float)
    if a.ndim != 2:
        raise DataValidationError(f"a must be 2-D, got shape {a.shape}")
    if s.shape != (a.shape[0],):
        raise DataValidationError(f"s must have shape ({a.shape[0]},), got {s.shape}")
    n = a.shape[1]
    if n == 0:
        raise DataValidationError("at least one bucket is required")

    report = SolveReport(requested=method)
    warm_start = _clean_warm_start(warm_start, n)
    report.warm_started = warm_start is not None
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(s))):
        # Non-finite inputs would poison every least-squares rung; clean
        # them rather than fail (sanitization upstream should normally
        # prevent this — the report records that it did not).
        a = np.nan_to_num(a, nan=0.0, posinf=1.0, neginf=0.0)
        s = np.clip(np.nan_to_num(s, nan=0.0, posinf=1.0, neginf=0.0), 0.0, 1.0)
        report.inputs_cleaned = True

    ladder = []
    for rung in (method, "pgd", "lstsq-project", "uniform"):
        if rung not in ladder:
            ladder.append(rung)

    start = time.monotonic()
    weights: np.ndarray | None = None
    for rung in ladder:
        elapsed = time.monotonic() - start
        if (
            deadline_seconds is not None
            and elapsed >= deadline_seconds
            and rung != "uniform"
        ):
            report.deadline_exceeded = True
            report.attempts.append(
                SolveAttempt(rung=rung, ok=False, seconds=0.0, error="deadline exceeded")
            )
            continue
        max_tries = 1 + max(0, retries) if rung not in ("uniform", "lstsq-project") else 1
        for attempt_index in range(max_tries):
            t0 = time.monotonic()
            try:
                candidate = _run_rung(rung, a, s, penalty, max_iter, tol,
                                      warm_start=warm_start)
                weights = _validate_simplex(candidate, n)
                report.attempts.append(
                    SolveAttempt(rung=rung, ok=True, seconds=time.monotonic() - t0)
                )
                break
            except _TRANSIENT as exc:
                report.attempts.append(
                    SolveAttempt(
                        rung=rung, ok=False, seconds=time.monotonic() - t0, error=str(exc)
                    )
                )
                out_of_time = (
                    deadline_seconds is not None
                    and time.monotonic() - start >= deadline_seconds
                )
                if attempt_index + 1 < max_tries and not out_of_time:
                    time.sleep(backoff_seconds * (2.0**attempt_index))
        if weights is not None:
            report.rung = rung
            break

    if weights is None:  # unreachable: the uniform rung cannot fail
        weights = np.full(n, 1.0 / n)
        report.rung = "uniform"
    report.fallback = report.rung != method
    report.seconds = time.monotonic() - start
    report.residual = float(np.sqrt(np.mean((a @ weights - s) ** 2))) if a.size else 0.0
    return weights, report
