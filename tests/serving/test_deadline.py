"""Deadline budgets: the primitive the HTTP adapter and admission share."""

from __future__ import annotations

import pytest

from repro.robustness import Deadline, DeadlineExceededError
from repro.robustness.errors import DataValidationError


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


def test_unlimited_never_expires():
    deadline = Deadline(None)
    assert deadline.unlimited
    assert deadline.remaining() is None
    assert not deadline.expired()
    deadline.check()  # no-op


def test_remaining_tracks_clock():
    clock = FakeClock()
    deadline = Deadline(2.0, clock=clock)
    assert deadline.remaining() == pytest.approx(2.0)
    clock.now = 1.5
    assert deadline.remaining() == pytest.approx(0.5)
    assert not deadline.expired()
    clock.now = 2.5
    assert deadline.expired()
    assert deadline.remaining() == pytest.approx(-0.5)


def test_check_raises_with_overrun_detail():
    clock = FakeClock()
    deadline = Deadline(1.0, clock=clock)
    clock.now = 1.25
    with pytest.raises(DeadlineExceededError, match="estimate deadline exceeded"):
        deadline.check("estimate")


def test_after_ms_conversion():
    clock = FakeClock()
    deadline = Deadline.after_ms(250.0, clock=clock)
    assert deadline.remaining() == pytest.approx(0.25)
    assert Deadline.after_ms(None).unlimited


def test_invalid_budgets_rejected():
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(DataValidationError):
            Deadline(bad)
