"""Micro-batching coalescer: fold concurrent lookups into one kernel call.

``predict_many`` is ~11× cheaper per query than scalar ``predict``
(``BENCH_throughput.json``), but HTTP traffic from a query optimizer
arrives as many concurrent *single* queries.  The coalescer recovers the
batch win at the serving layer by natural batching (group commit):
``/v1/estimate`` and ``/v1/predict`` requests that arrive while an
``estimate_many`` call is in flight are folded into the next one (one
cache pass, one vectorised kernel), and each caller gets back exactly
its own slice.  There is no timer, so an idle server never waits, and
the fold size follows the load.

Leader/follower scheme, no dedicated flusher thread:

* the first request to arrive while no batch is pending becomes the
  *leader*: it opens a batch, which is ready at once when no call is in
  flight, else the moment the in-flight call returns or the batch
  reaches ``max_batch``.  The leader runs the one ``estimate_many`` when
  the batch is ready, or at its own deadline if that comes first;
* later arrivals are *followers*: they append their queries and block on
  the batch's completion event, capped by their own deadline — a
  follower that times out raises
  :class:`~repro.robustness.errors.DeadlineExceededError` while the rest
  of the batch still completes.

Because the fold happens *in front of* the service's generation-keyed
prediction cache, cache semantics are untouched: every query still
counts exactly one hit or one miss per ``estimate_many`` call, and a
retrain invalidates as before.  A batch of several callers that raises
runs again one caller at a time, so one caller's bad query fails only
that caller; its queries then count once more.
"""

from __future__ import annotations

import threading
import time

from repro.observability import MetricsRegistry, default_registry
from repro.robustness.deadline import Deadline
from repro.robustness.errors import DeadlineExceededError

__all__ = ["PredictCoalescer"]


class _Batch:
    """One pending/running batch; immutable once detached."""

    __slots__ = ("queries", "starts", "done", "ready", "results", "errors", "kernel_seconds")

    def __init__(self):
        self.queries: list = []
        self.starts: list[int] = []  # each caller's first position in ``queries``
        self.done = threading.Event()
        self.ready = threading.Event()
        self.results: list | None = None
        self.errors: dict[int, BaseException] = {}  # by caller start
        self.kernel_seconds: float = 0.0


class PredictCoalescer:
    """Fold concurrent estimate/predict calls into ``estimate_many``.

    Parameters
    ----------
    estimate_many:
        The batched lookup, usually
        :meth:`repro.server.EstimatorService.estimate_many` (thread-safe,
        cache-fronted).  When it raises on a batch of several callers,
        each caller's queries run again alone, so every caller gets its
        own answer or its own error.
    max_batch:
        A pending batch this large runs at once, without waiting for the
        in-flight call to return.
    """

    def __init__(
        self,
        estimate_many,
        max_batch: int = 512,
        worker: str = "0",
        registry: MetricsRegistry | None = None,
        clock=time.monotonic,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._estimate_many = estimate_many
        self.max_batch = int(max_batch)
        self.worker = str(worker)
        self._clock = clock
        self._lock = threading.Lock()
        # Batches running or readied to run.  A pending batch only forms
        # while this is positive, so a finishing call always readies it.
        self._in_flight = 0
        self._pending: _Batch | None = None
        registry = registry if registry is not None else default_registry()
        self._batches_total = registry.counter(
            "repro_coalesced_batches_total",
            "Coalesced predict_many flushes executed",
            labels=("worker",),
        )
        self._queries_total = registry.counter(
            "repro_coalesced_queries_total",
            "Queries answered through the coalescer",
            labels=("worker",),
        )
        self._batch_size = registry.histogram(
            "repro_coalesce_batch_size",
            "Queries per coalesced flush",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
            labels=("worker",),
        )

    def submit(
        self,
        query,
        deadline: Deadline | None = None,
        stages: dict | None = None,
    ) -> float:
        """Answer one query, folded into whatever batch it joins."""
        return self.submit_many([query], deadline=deadline, stages=stages)[0]

    def submit_many(
        self,
        queries,
        deadline: Deadline | None = None,
        stages: dict | None = None,
    ) -> list[float]:
        """Answer a list of queries; blocks until the owning batch has run.

        Returns results in input order.  Raises
        :class:`DeadlineExceededError` if ``deadline`` expires before a
        follower's batch completes, or whatever ``estimate_many`` raised
        for this caller's queries (e.g. ``ModelUnavailableError`` before
        first fit).

        ``stages``, when given, receives this caller's latency breakdown:
        ``stages["kernel"]`` is the batch's one ``estimate_many`` call and
        ``stages["coalesce"]`` is the time this caller spent waiting on
        the in-flight call and its siblings (elapsed minus kernel; zero
        when the server is idle) — the attribution the per-request
        tracing exposes as ``repro_request_stage_seconds``.
        """
        queries = list(queries)
        if not queries:
            return []
        deadline = deadline if deadline is not None else Deadline(None)
        start_ts = self._clock() if stages is not None else 0.0
        with self._lock:
            batch = self._pending
            leader = batch is None
            if leader:
                batch = self._pending = _Batch()
            start = len(batch.queries)
            batch.starts.append(start)
            batch.queries.extend(queries)
            if self._in_flight == 0 or len(batch.queries) >= self.max_batch:
                self._detach(batch)
        try:
            if leader:
                self._lead(batch, deadline)
            else:
                self._follow(batch, deadline)
        finally:
            if stages is not None:
                elapsed = self._clock() - start_ts
                stages["kernel"] = batch.kernel_seconds
                stages["coalesce"] = max(0.0, elapsed - batch.kernel_seconds)
        error = batch.errors.get(start)
        if error is not None:
            raise error
        return batch.results[start : start + len(queries)]

    # -- leader/follower ---------------------------------------------------

    def _detach(self, batch: _Batch) -> None:
        """Ready the pending ``batch`` to run; caller holds ``_lock``."""
        self._pending = None
        self._in_flight += 1
        batch.ready.set()

    def _lead(self, batch: _Batch, deadline: Deadline) -> None:
        # Wait for the in-flight call to return — but never past the
        # leader's own deadline: then run beside the slow call.
        remaining = deadline.remaining()
        batch.ready.wait(None if remaining is None else max(0.0, remaining))
        with self._lock:
            if self._pending is batch:
                self._detach(batch)
        kernel_start = self._clock()
        try:
            batch.results = self._answer(batch.queries)
        except BaseException as exc:
            if isinstance(exc, Exception) and len(batch.starts) > 1:
                self._answer_each(batch)
            else:  # one caller, or an interrupt: every caller gets it
                batch.errors = dict.fromkeys(batch.starts, exc)
        finally:
            batch.kernel_seconds = self._clock() - kernel_start
            with self._lock:
                self._in_flight -= 1
                if self._pending is not None:
                    self._detach(self._pending)  # queued behind this call
            size = len(batch.queries)
            self._batches_total.inc(worker=self.worker)
            self._queries_total.inc(size, worker=self.worker)
            self._batch_size.observe(size, worker=self.worker)
            batch.done.set()

    def _answer(self, queries: list) -> list[float]:
        return [float(v) for v in self._estimate_many(queries)]

    def _answer_each(self, batch: _Batch) -> None:
        """Run each caller's slice alone: one caller's bad query must not
        fail the siblings it was folded with."""
        batch.results = [None] * len(batch.queries)
        stops = batch.starts[1:] + [len(batch.queries)]
        for start, stop in zip(batch.starts, stops):
            try:
                batch.results[start:stop] = self._answer(batch.queries[start:stop])
            except Exception as exc:
                batch.errors[start] = exc

    def _follow(self, batch: _Batch, deadline: Deadline) -> None:
        remaining = deadline.remaining()
        if remaining is None:
            batch.done.wait()
        elif remaining <= 0.0 or not batch.done.wait(remaining):
            raise DeadlineExceededError(
                "deadline expired while waiting for a coalesced flush"
            )
