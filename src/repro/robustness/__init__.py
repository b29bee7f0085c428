"""Fault tolerance for the train→serve pipeline.

Theorem 2.1 promises accuracy on *clean* ``(query, selectivity)`` samples;
a deployed query-driven estimator sees everything else too — NaN feedback
from broken instrumentation, degenerate ranges from optimizer edge cases,
simplex solves that refuse to converge on adversarial design matrices.
This package contains the machinery that keeps the estimator answering
through all of it:

* :mod:`~repro.robustness.errors` — structured error taxonomy
  (:class:`ReproError` and friends) replacing bare ``ValueError`` /
  ``RuntimeError`` on failure paths.
* :mod:`~repro.robustness.sanitize` — training-set sanitization with
  ``raise`` / ``drop`` / ``clamp`` policies and a quarantine report.
* :mod:`~repro.robustness.breaker` — a circuit breaker guarding retrain
  loops (closed → open → half-open probe).
* :mod:`~repro.robustness.buffer` — a bounded feedback store (recency
  ring + reservoir-downsampled history).
* :mod:`~repro.robustness.chaos` — deterministic fault injection (solver
  failures, corrupt feedback, slow fits) for the ``tests/robustness``
  suite and the robustness benchmark.

The solver fallback ladder itself lives with the solvers
(:func:`repro.solvers.simplex_ls.fit_simplex_weights_robust`); this
package sits *below* ``repro.solvers`` in the layering so the ladder can
raise the structured errors and consult the chaos hooks without cycles.

See ``docs/robustness.md`` for the full failure-mode catalogue.
"""

from repro.robustness.breaker import CircuitBreaker
from repro.robustness.buffer import FeedbackBuffer
from repro.robustness.deadline import Deadline
from repro.robustness.chaos import ChaosConfig, ChaosMonkey, chaos
from repro.robustness.errors import (
    ContentTooLargeError,
    DataValidationError,
    DeadlineExceededError,
    ModelUnavailableError,
    OverloadedError,
    ReproError,
    RequestTimeoutError,
    SolverConvergenceError,
    TrainingTimeoutError,
    WorkerSupervisionError,
)
from repro.robustness.sanitize import (
    SANITIZE_POLICIES,
    SanitizationReport,
    sanitize_training_data,
)

__all__ = [
    "ReproError",
    "DataValidationError",
    "SolverConvergenceError",
    "TrainingTimeoutError",
    "ModelUnavailableError",
    "OverloadedError",
    "DeadlineExceededError",
    "ContentTooLargeError",
    "RequestTimeoutError",
    "WorkerSupervisionError",
    "SANITIZE_POLICIES",
    "SanitizationReport",
    "sanitize_training_data",
    "CircuitBreaker",
    "Deadline",
    "FeedbackBuffer",
    "ChaosConfig",
    "ChaosMonkey",
    "chaos",
]
