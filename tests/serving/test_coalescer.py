"""Coalescer: concurrent single queries fold into one ``estimate_many``.

The concurrency-correctness contract under test: callers that queue
behind an in-flight ``estimate_many`` call each receive exactly the
answer ``estimate_many`` gives for their query, they fold into one call
that runs as soon as the in-flight one returns, an idle caller never
waits, and the service's prediction-cache accounting stays exact
(hits + misses == queries submitted).

Folding is made deterministic by gating the first ``estimate_many`` call
on an :class:`threading.Event`, so followers pile up behind it.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core import QuadHist
from repro.geometry import Box
from repro.observability import MetricsRegistry
from repro.robustness import Deadline, DeadlineExceededError
from repro.serving import PredictCoalescer
from repro.server import EstimatorService


@pytest.fixture
def trained_service(power2d_box_workload):
    train_q, train_s, _, _ = power2d_box_workload
    service = EstimatorService(
        lambda: QuadHist(tau=0.02), min_feedback=20, registry=MetricsRegistry()
    )
    for query, label in zip(train_q[:50], train_s[:50]):
        service.feedback(query, label)
    service.retrain()
    return service


class _GatedBackend:
    """Wraps ``estimate_many``; the first call blocks until ``release``."""

    def __init__(self, estimate_many):
        self._estimate_many = estimate_many
        self.gate = threading.Event()
        self.calls: list[list] = []

    def __call__(self, queries):
        self.calls.append(list(queries))
        if len(self.calls) == 1:
            assert self.gate.wait(10.0), "gate never released"
        return self._estimate_many(queries)


def _in_background(fn, *args) -> tuple[threading.Thread, dict]:
    outcome: dict = {}

    def _run():
        try:
            outcome["value"] = fn(*args)
        except BaseException as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    return thread, outcome


def _join(*threads: threading.Thread) -> None:
    for thread in threads:
        thread.join(15.0)
        assert not thread.is_alive()


def _wait_until(predicate, timeout: float = 5.0) -> None:
    ready = Deadline(timeout)
    while not predicate():
        assert not ready.expired(), "condition not reached in time"
        time.sleep(0.001)


def _pending_size(coalescer: PredictCoalescer) -> int:
    pending = coalescer._pending
    return 0 if pending is None else len(pending.queries)


def test_k_threads_overlapping_queries_get_exact_answers(
    trained_service, power2d_box_workload
):
    _, _, test_q, _ = power2d_box_workload
    k = 8
    # Overlapping on purpose: 8 threads share 4 distinct queries.
    queries = [test_q[i % 4] for i in range(k)]
    expected = trained_service.estimate_many(queries)
    hits_before = trained_service.status()["prediction_cache"]["hits"]
    misses_before = trained_service.status()["prediction_cache"]["misses"]

    registry = MetricsRegistry()
    backend = _GatedBackend(trained_service.estimate_many)
    coalescer = PredictCoalescer(backend, worker="t", registry=registry)
    # The first caller runs at once and blocks in the kernel; the other
    # k - 1 queue behind it and must fold into one call.
    first, first_outcome = _in_background(coalescer.submit, queries[0], Deadline(10.0))
    _wait_until(lambda: len(backend.calls) == 1)
    rest = [
        _in_background(coalescer.submit, queries[i], Deadline(10.0))
        for i in range(1, k)
    ]
    _wait_until(lambda: _pending_size(coalescer) == k - 1)
    backend.gate.set()
    _join(first, *(thread for thread, _ in rest))

    outcomes = [first_outcome] + [outcome for _, outcome in rest]
    assert all("error" not in outcome for outcome in outcomes)
    assert [outcome["value"] for outcome in outcomes] == pytest.approx(list(expected))
    assert [len(call) for call in backend.calls] == [1, k - 1]

    batches = registry.counter(
        "repro_coalesced_batches_total",
        "Coalesced predict_many flushes executed",
        labels=("worker",),
    ).value(worker="t")
    coalesced = registry.counter(
        "repro_coalesced_queries_total",
        "Queries answered through the coalescer",
        labels=("worker",),
    ).value(worker="t")
    assert batches == 2  # folding happened: fewer flushes than callers
    assert coalesced == k

    # Cache accounting is untouched by coalescing: every submitted query
    # still counts exactly one hit or one miss.
    cache = trained_service.status()["prediction_cache"]
    new_hits = cache["hits"] - hits_before
    new_misses = cache["misses"] - misses_before
    assert new_hits + new_misses == k


def test_idle_submit_does_not_wait():
    now = [0.0]

    def _estimate_many(queries):
        now[0] += 0.005  # the kernel is the only thing that takes time
        return [0.25] * len(queries)

    coalescer = PredictCoalescer(
        _estimate_many, registry=MetricsRegistry(), clock=lambda: now[0]
    )
    stages: dict[str, float] = {}
    assert coalescer.submit({"q": 0}, Deadline(10.0), stages=stages) == 0.25
    assert stages["coalesce"] == 0.0
    assert stages["kernel"] == pytest.approx(0.005)


def test_batch_behind_in_flight_call_runs_when_it_returns():
    backend = _GatedBackend(lambda queries: [0.5] * len(queries))
    coalescer = PredictCoalescer(backend, registry=MetricsRegistry())
    first, _ = _in_background(coalescer.submit, {"q": 0}, Deadline(30.0))
    _wait_until(lambda: len(backend.calls) == 1)
    # Generous deadlines: only the in-flight call's return can ready the
    # batch within this test's time limit.
    queued = [
        _in_background(coalescer.submit, {"q": i}, Deadline(30.0)) for i in (1, 2)
    ]
    _wait_until(lambda: _pending_size(coalescer) == 2)
    released = time.monotonic()
    backend.gate.set()
    _join(first, *(thread for thread, _ in queued))
    assert time.monotonic() - released < 5.0
    assert [outcome["value"] for _, outcome in queued] == [0.5, 0.5]
    assert backend.calls == [[{"q": 0}], [{"q": 1}, {"q": 2}]]


def test_leader_behind_hung_call_runs_at_its_deadline():
    backend = _GatedBackend(lambda queries: [0.5] * len(queries))
    coalescer = PredictCoalescer(backend, registry=MetricsRegistry())
    hung, hung_outcome = _in_background(coalescer.submit, {"q": 0}, Deadline(30.0))
    _wait_until(lambda: len(backend.calls) == 1)
    try:
        started = time.monotonic()
        assert coalescer.submit({"q": 1}, Deadline(0.1)) == 0.5
        assert time.monotonic() - started < 5.0
        assert backend.calls[1] == [{"q": 1}]
        assert hung.is_alive()  # the first call is still stuck in the kernel
    finally:
        backend.gate.set()
        _join(hung)
    assert hung_outcome["value"] == 0.5
    # Both calls released their in-flight slots: an idle submit runs
    # at once again.
    assert coalescer._in_flight == 0
    assert coalescer.submit({"q": 2}, Deadline(10.0)) == 0.5


def test_results_are_positionally_sliced_per_caller(trained_service, power2d_box_workload):
    _, _, test_q, _ = power2d_box_workload
    backend = _GatedBackend(trained_service.estimate_many)
    coalescer = PredictCoalescer(backend, registry=MetricsRegistry())
    expected = trained_service.estimate_many(test_q[:6])
    plug, _ = _in_background(coalescer.submit, test_q[6], Deadline(10.0))
    _wait_until(lambda: len(backend.calls) == 1)
    batch, batch_outcome = _in_background(
        coalescer.submit_many, test_q[:4], Deadline(10.0)
    )
    _wait_until(lambda: _pending_size(coalescer) == 4)
    single, single_outcome = _in_background(
        coalescer.submit_many, test_q[4:6], Deadline(10.0)
    )
    _wait_until(lambda: _pending_size(coalescer) == 6)
    backend.gate.set()
    _join(plug, batch, single)
    assert len(backend.calls[1]) == 6  # both callers shared one call
    assert batch_outcome["value"] == pytest.approx(list(expected[:4]))
    assert single_outcome["value"] == pytest.approx(list(expected[4:6]))


def test_empty_submission_returns_empty():
    coalescer = PredictCoalescer(lambda qs: [], registry=MetricsRegistry())
    assert coalescer.submit_many([]) == []


def test_max_batch_flushes_immediately(trained_service, power2d_box_workload):
    _, _, test_q, _ = power2d_box_workload
    backend = _GatedBackend(trained_service.estimate_many)
    coalescer = PredictCoalescer(backend, max_batch=3, registry=MetricsRegistry())
    hung, _ = _in_background(coalescer.submit, test_q[3], Deadline(30.0))
    _wait_until(lambda: len(backend.calls) == 1)
    try:
        expected = trained_service.estimate_many(test_q[:3])
        started = time.monotonic()
        # A full batch runs beside the hung call instead of queueing
        # until its 30 s deadline.
        got = coalescer.submit_many(test_q[:3], Deadline(30.0))
        assert time.monotonic() - started < 5.0
        assert got == pytest.approx(list(expected))
    finally:
        backend.gate.set()
        _join(hung)


def test_backend_error_propagates_to_every_caller():
    boom = RuntimeError("backend down")
    gate = threading.Event()
    calls: list[list] = []

    def _failing(queries):
        calls.append(list(queries))
        gate.wait(10.0)
        raise boom

    coalescer = PredictCoalescer(_failing, registry=MetricsRegistry())
    first = _in_background(coalescer.submit, {"x": 0}, Deadline(10.0))
    _wait_until(lambda: len(calls) == 1)
    queued = [
        _in_background(coalescer.submit, {"x": i}, Deadline(10.0)) for i in (1, 2)
    ]
    _wait_until(lambda: _pending_size(coalescer) == 2)
    gate.set()
    _join(*(thread for thread, _ in [first] + queued))
    outcomes = [outcome for _, outcome in [first] + queued]
    # The failed two-caller batch runs again one caller at a time.
    assert calls == [[{"x": 0}], [{"x": 1}, {"x": 2}], [{"x": 1}], [{"x": 2}]]
    assert all(outcome.get("error") is boom for outcome in outcomes)


def test_one_callers_bad_query_fails_only_that_caller(
    trained_service, power2d_box_workload
):
    """A 3-D box folded into one batch with a valid 2-D query fails only
    its own caller; the other gets its estimate."""
    _, _, test_q, _ = power2d_box_workload
    bad_query = Box([0.1, 0.1, 0.1], [0.5, 0.5, 0.5])
    expected = trained_service.estimate_many([test_q[0]])[0]
    with pytest.raises(Exception) as alone:
        trained_service.estimate_many([bad_query])
    backend = _GatedBackend(trained_service.estimate_many)
    coalescer = PredictCoalescer(backend, registry=MetricsRegistry())
    plug, plug_outcome = _in_background(coalescer.submit, test_q[1], Deadline(10.0))
    _wait_until(lambda: len(backend.calls) == 1)
    good, good_outcome = _in_background(coalescer.submit, test_q[0], Deadline(10.0))
    _wait_until(lambda: _pending_size(coalescer) == 1)
    bad, bad_outcome = _in_background(coalescer.submit, bad_query, Deadline(10.0))
    _wait_until(lambda: _pending_size(coalescer) == 2)
    backend.gate.set()
    _join(plug, good, bad)

    assert "error" not in plug_outcome
    assert good_outcome == {"value": expected}
    error = bad_outcome["error"]
    assert type(error) is alone.type and str(error) == str(alone.value)
    assert backend.calls[1:] == [[test_q[0], bad_query], [test_q[0]], [bad_query]]
    registry = trained_service.registry
    hits = registry.get("repro_prediction_cache_hits_total").value()
    misses = registry.get("repro_prediction_cache_misses_total").value()
    assert hits + misses == registry.get("repro_service_queries_total").value()


def test_follower_deadline_expires_behind_in_flight_call():
    backend = _GatedBackend(lambda queries: [0.5] * len(queries))
    coalescer = PredictCoalescer(backend, registry=MetricsRegistry())
    first, first_outcome = _in_background(coalescer.submit, {"q": 0}, Deadline(10.0))
    _wait_until(lambda: len(backend.calls) == 1)
    leader, leader_outcome = _in_background(coalescer.submit, {"q": 1}, Deadline(10.0))
    _wait_until(lambda: _pending_size(coalescer) == 1)
    # Join the leader's batch with a budget far smaller than the time the
    # in-flight call stays blocked.
    with pytest.raises(DeadlineExceededError, match="coalesced flush"):
        coalescer.submit({"q": 2}, Deadline(0.05))
    backend.gate.set()
    _join(first, leader)
    # The follower's expiry never poisons the batch: the leader still
    # ran it and got its answer.
    assert first_outcome["value"] == 0.5
    assert leader_outcome["value"] == 0.5
    assert backend.calls[1] == [{"q": 1}, {"q": 2}]


def test_many_threads_under_fast_switching_lose_no_query():
    """Stress: with the interpreter switching threads every microsecond,
    every caller still gets its own answers and the coalescer ends idle."""
    registry = MetricsRegistry()
    coalescer = PredictCoalescer(
        lambda queries: [float(q) for q in queries],
        max_batch=8,
        worker="s",
        registry=registry,
    )
    threads, per_thread, errors = 16, 40, []

    def _caller(index: int) -> None:
        try:
            for step in range(per_thread):
                query = index * 1000 + step
                got = coalescer.submit_many([query, -query], Deadline(10.0))
                assert got == [float(query), float(-query)]
        except BaseException as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=_caller, args=(i,)) for i in range(threads)]
        for worker in workers:
            worker.start()
        _join(*workers)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    answered = registry.counter(
        "repro_coalesced_queries_total",
        "Queries answered through the coalescer",
        labels=("worker",),
    ).value(worker="s")
    assert answered == threads * per_thread * 2
    assert coalescer._in_flight == 0 and coalescer._pending is None
