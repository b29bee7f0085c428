"""Structured error taxonomy for failure paths.

Every failure a caller may want to *handle* (rather than just observe in a
traceback) gets a class here.  The hierarchy doubles as an HTTP status map
for :mod:`repro.server`:

=============================  ======================================  ====
class                          meaning                                 HTTP
=============================  ======================================  ====
:class:`DataValidationError`   input rejected by sanitization          400
:class:`ModelUnavailableError` no model generation exists to serve,    409
                               or the retrain circuit breaker is open
:class:`TrainingTimeoutError`  a (re)train exceeded its deadline       503
:class:`SolverConvergenceError` a solve produced no valid simplex      500
                               vector (individual rung failure; the
                               fallback ladder usually absorbs these)
=============================  ======================================  ====

Each class also subclasses the builtin exception it historically replaced
(``ValueError`` / ``RuntimeError`` / ``TimeoutError``), so pre-existing
``except ValueError`` call sites keep working while new code can catch the
whole family with ``except ReproError``.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "DataValidationError",
    "SolverConvergenceError",
    "TrainingTimeoutError",
    "ModelUnavailableError",
    "PersistenceError",
    "ArtifactError",
    "OverloadedError",
    "DeadlineExceededError",
    "WorkerSupervisionError",
]


class ReproError(Exception):
    """Base class for all structured errors raised by this library."""

    #: Default HTTP status used by the server adapter.
    http_status: int = 500

    def to_dict(self) -> dict:
        """JSON-ready rendering (used by the HTTP error responses)."""
        return {"error": str(self), "type": type(self).__name__}


class DataValidationError(ReproError, ValueError):
    """A training pair, workload, or request failed validation."""

    http_status = 400


class SolverConvergenceError(ReproError, RuntimeError):
    """A weight solve returned no valid probability vector.

    Raised per *rung* inside the fallback ladder; escaping to user code
    means every non-trivial rung failed validation (the ladder's final
    ``uniform`` rung still returns a usable vector, so callers of
    :func:`~repro.solvers.simplex_ls.fit_simplex_weights_robust` never see
    this — only callers of the raw single-method solvers do).
    """

    http_status = 500


class TrainingTimeoutError(ReproError, TimeoutError):
    """A (re)training run exceeded its wall-clock deadline."""

    http_status = 503


class ModelUnavailableError(ReproError, RuntimeError):
    """No model generation is available to answer, or retraining is
    suspended by an open circuit breaker."""

    http_status = 409


class PersistenceError(ReproError):
    """A model save/restore operation failed (no snapshot to restore,
    snapshot directory unusable, ...)."""

    http_status = 409


class ArtifactError(PersistenceError, ValueError):
    """A model artifact is unreadable: corrupted payload, checksum
    mismatch, truncated file, or an unsupported format version."""

    http_status = 400


class OverloadedError(ReproError, RuntimeError):
    """The admission queue is full; the request was shed, not queued.

    Carries an advisory ``retry_after`` (seconds) rendered as a
    ``Retry-After`` response header by the HTTP adapter, so well-behaved
    clients back off instead of hammering an overloaded worker.
    """

    http_status = 429

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after

    @property
    def http_headers(self) -> dict:
        if self.retry_after is None:
            return {}
        # Retry-After is delta-seconds (integral); always advise >= 1s.
        return {"Retry-After": str(max(1, int(round(self.retry_after))))}


class DeadlineExceededError(ReproError, TimeoutError):
    """A request's deadline budget expired before its work started
    (while queued for admission, or before the handler could even
    start)."""

    http_status = 504


class WorkerSupervisionError(ReproError, RuntimeError):
    """The worker pool cannot satisfy a lifecycle operation (starting an
    already-started supervisor, restart storm exhausted, ...)."""

    http_status = 500
