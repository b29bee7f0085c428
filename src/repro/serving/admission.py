"""Admission control: bounded queue, load shedding, deadline budgets.

``ThreadingHTTPServer`` happily spawns one thread per connection, which
under overload means unbounded memory, unbounded latency, and a planner
waiting on answers it no longer wants.  The admission controller turns
that failure mode into explicit backpressure:

* at most ``max_concurrency`` requests execute at once;
* at most ``queue_depth`` more may *wait* for a slot — anything beyond
  the watermark is shed immediately with
  :class:`~repro.robustness.errors.OverloadedError` (HTTP 429 +
  ``Retry-After``), because a planner retries a cheap 429 far better
  than it absorbs an unbounded queue delay;
* a queued request whose :class:`~repro.robustness.Deadline` expires is
  failed with :class:`~repro.robustness.errors.DeadlineExceededError`
  (HTTP 504) *before* it ever occupies an execution slot.

Everything is a plain condition variable — no extra threads — and every
decision is metered (queue depth, inflight, sheds, deadline expiries)
with a per-worker label.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.observability import MetricsRegistry, default_registry
from repro.robustness.deadline import Deadline
from repro.robustness.errors import DeadlineExceededError, OverloadedError

__all__ = ["AdmissionController"]


class AdmissionController:
    """Semaphore-with-a-bounded-waiting-room for one worker process."""

    def __init__(
        self,
        max_concurrency: int = 8,
        queue_depth: int = 32,
        shed_retry_after_s: float = 1.0,
        worker: str = "0",
        registry: MetricsRegistry | None = None,
        clock=time.monotonic,
    ):
        if max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {max_concurrency}")
        if queue_depth < 0:
            raise ValueError(f"queue_depth must be >= 0, got {queue_depth}")
        self.max_concurrency = int(max_concurrency)
        self.queue_depth = int(queue_depth)
        self.shed_retry_after_s = float(shed_retry_after_s)
        self.worker = str(worker)
        self._clock = clock
        self._cond = threading.Condition()
        self._executing = 0
        self._waiting = 0
        registry = registry if registry is not None else default_registry()
        self._inflight_gauge = registry.gauge(
            "repro_admission_inflight",
            "Requests currently executing in this worker",
            labels=("worker",),
        )
        self._queue_gauge = registry.gauge(
            "repro_admission_queue_depth",
            "Requests waiting for an execution slot in this worker",
            labels=("worker",),
        )
        self._shed_total = registry.counter(
            "repro_requests_shed_total",
            "Requests shed with 429 because the admission queue was full",
            labels=("worker",),
        )
        self._deadline_total = registry.counter(
            "repro_deadline_expired_total",
            "Requests failed with 504 by stage where the deadline expired",
            labels=("worker", "stage"),
        )

    # -- introspection ----------------------------------------------------

    @property
    def executing(self) -> int:
        with self._cond:
            return self._executing

    @property
    def waiting(self) -> int:
        with self._cond:
            return self._waiting

    # -- the gate ----------------------------------------------------------

    @contextmanager
    def admit(self, deadline: Deadline | None = None):
        """Hold an execution slot for the ``with`` body.

        Raises :class:`OverloadedError` when the waiting room is full and
        :class:`DeadlineExceededError` when ``deadline`` expires first —
        in both cases *nothing* was executed.
        """
        deadline = deadline if deadline is not None else Deadline(None)
        self._acquire(deadline)
        try:
            yield self
        finally:
            self._release()

    def _acquire(self, deadline: Deadline) -> None:
        with self._cond:
            if deadline.expired():
                self._deadline_total.inc(worker=self.worker, stage="admission")
                raise DeadlineExceededError(
                    "request deadline expired before admission"
                )
            if self._executing < self.max_concurrency:
                self._executing += 1
                self._inflight_gauge.set(self._executing, worker=self.worker)
                return
            if self._waiting >= self.queue_depth:
                self._shed_total.inc(worker=self.worker)
                raise OverloadedError(
                    f"admission queue full ({self._waiting} waiting, "
                    f"{self._executing} executing); shedding",
                    retry_after=self.shed_retry_after_s,
                )
            self._waiting += 1
            self._queue_gauge.set(self._waiting, worker=self.worker)
            try:
                while self._executing >= self.max_concurrency:
                    remaining = deadline.remaining()
                    if remaining is not None and remaining <= 0.0:
                        self._deadline_total.inc(
                            worker=self.worker, stage="queued"
                        )
                        raise DeadlineExceededError(
                            "deadline expired while queued for admission"
                        )
                    # Bounded wait so an unlimited deadline still re-checks
                    # the slot count promptly after spurious wakeups.
                    self._cond.wait(0.5 if remaining is None else min(remaining, 0.5))
            finally:
                self._waiting -= 1
                self._queue_gauge.set(self._waiting, worker=self.worker)
            self._executing += 1
            self._inflight_gauge.set(self._executing, worker=self.worker)

    def _release(self) -> None:
        with self._cond:
            self._executing -= 1
            self._inflight_gauge.set(self._executing, worker=self.worker)
            self._cond.notify()

    def snapshot(self) -> dict:
        """JSON-ready state for heartbeats and ``/v1/status``."""
        with self._cond:
            return {
                "executing": self._executing,
                "waiting": self._waiting,
                "max_concurrency": self.max_concurrency,
                "queue_depth": self.queue_depth,
            }
