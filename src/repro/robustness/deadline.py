"""Request deadline budgets.

A deadline is the robustness primitive the serving layers share: the
HTTP adapter stamps one on each request (``X-Deadline-Ms`` header or the
server-wide default) and checks it before dispatch, and the admission
controller refuses to queue past it.  Work that cannot start inside the
budget fails *fast* with
:class:`~repro.robustness.errors.DeadlineExceededError` (HTTP 504)
instead of making the caller — a query optimizer holding up a plan —
discover the timeout itself.

The clock is injectable so tests can expire deadlines without sleeping.
"""

from __future__ import annotations

import math
import time
from typing import Callable

from repro.robustness.errors import DataValidationError, DeadlineExceededError

__all__ = ["Deadline"]


class Deadline:
    """A monotonic-clock expiry point; ``None`` budget = unlimited.

    Immutable once constructed; cheap enough to make one per request.
    """

    __slots__ = ("_expires_at", "_clock")

    def __init__(
        self,
        budget_seconds: float | None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if budget_seconds is not None:
            budget_seconds = float(budget_seconds)
            if not math.isfinite(budget_seconds) or budget_seconds < 0:
                raise DataValidationError(
                    f"deadline budget must be a finite non-negative number "
                    f"of seconds, got {budget_seconds}"
                )
        self._clock = clock
        self._expires_at = (
            None if budget_seconds is None else clock() + budget_seconds
        )

    @classmethod
    def after_ms(
        cls, budget_ms: float | None, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        return cls(None if budget_ms is None else float(budget_ms) / 1000.0, clock)

    @property
    def unlimited(self) -> bool:
        return self._expires_at is None

    def remaining(self) -> float | None:
        """Seconds left (may be negative once expired); None = unlimited."""
        if self._expires_at is None:
            return None
        return self._expires_at - self._clock()

    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    def check(self, what: str = "request") -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        remaining = self.remaining()
        if remaining is not None and remaining <= 0.0:
            raise DeadlineExceededError(
                f"{what} deadline exceeded by {-remaining:.3f}s"
            )

    def __repr__(self) -> str:
        if self._expires_at is None:
            return "Deadline(unlimited)"
        return f"Deadline(remaining={self.remaining():.3f}s)"
