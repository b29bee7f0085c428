"""Graceful degradation of the estimation service (acceptance criterion
b: with retraining forced to fail, estimates keep coming from the last
good model and ``/v1/status`` reports the breaker open)."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import QuadHist
from repro.data.io import range_to_dict
from repro.geometry import Box
from repro.robustness import ChaosConfig, chaos
from repro.robustness.errors import (
    ModelUnavailableError,
    SolverConvergenceError,
    TrainingTimeoutError,
)
from repro.server import EstimatorService, serve


def _pairs(rng, n=30):
    pairs = []
    for _ in range(n):
        center = rng.random(2) * 0.6 + 0.2
        low, high = center - 0.1, center + 0.1
        q = Box(low, high)
        pairs.append((q, float(np.clip(q.volume() * 4.0, 0.0, 1.0))))
    return pairs


def _service(**kwargs):
    kwargs.setdefault("min_feedback", 10)
    return EstimatorService(lambda: QuadHist(tau=0.02), **kwargs)


def _trained_service(rng, **kwargs):
    service = _service(**kwargs)
    for query, label in _pairs(rng):
        service.feedback(query, label)
    service.retrain()
    return service


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestLastGoodModelServing:
    def test_estimate_survives_retrain_failures(self, rng):
        service = _trained_service(rng, breaker_threshold=2)
        probe = Box([0.2, 0.2], [0.7, 0.7])
        baseline = service.estimate_many([probe])

        with chaos(ChaosConfig(fit_fail_next=2)):
            for _ in range(2):
                with pytest.raises(SolverConvergenceError):
                    service.retrain()
            # Breaker is now open: further attempts are refused fast.
            with pytest.raises(ModelUnavailableError) as excinfo:
                service.retrain()
            assert "circuit breaker" in str(excinfo.value)
            # The last good generation keeps answering throughout.
            assert service.estimate_many([probe]) == pytest.approx(baseline)

        status = service.status()
        assert status["trained"] is True
        assert status["generation"] == 1
        assert status["breaker"]["state"] == "open"
        assert status["breaker"]["consecutive_failures"] == 2
        assert "chaos" in status["last_error"]

    def test_failed_retrain_leaves_model_object_untouched(self, rng):
        service = _trained_service(rng)
        model_before = service._model
        generation_before = service.status()["generation"]
        with chaos(ChaosConfig(fit_fail_next=1)):
            with pytest.raises(SolverConvergenceError):
                service.retrain()
        assert service._model is model_before  # atomic swap never started
        assert service.status()["generation"] == generation_before

    def test_successful_retrain_bumps_generation(self, rng):
        service = _trained_service(rng)
        assert service.status()["generation"] == 1
        info = service.retrain()
        assert info["generation"] == 2
        assert service.status()["breaker"]["state"] == "closed"

    def test_estimate_before_first_train_still_unavailable(self):
        service = _service()
        with pytest.raises(ModelUnavailableError):
            service.estimate_many([Box([0.1, 0.1], [0.5, 0.5])])


class TestBreakerLifecycleInService:
    def test_half_open_probe_recovers(self, rng):
        clock = FakeClock()
        service = _trained_service(
            rng, breaker_threshold=1, breaker_cooldown=10.0, _clock=clock
        )
        with chaos(ChaosConfig(fit_fail_next=1)):
            with pytest.raises(SolverConvergenceError):
                service.retrain()
        assert service.status()["breaker"]["state"] == "open"
        with pytest.raises(ModelUnavailableError):
            service.retrain()

        clock.advance(10.0)  # cooldown elapses -> half-open probe allowed
        info = service.retrain()  # healthy again: probe succeeds
        assert info["generation"] == 2
        assert service.status()["breaker"]["state"] == "closed"

    def test_failed_probe_reopens(self, rng):
        clock = FakeClock()
        service = _trained_service(
            rng, breaker_threshold=1, breaker_cooldown=10.0, _clock=clock
        )
        with chaos(ChaosConfig(fit_fail_next=3)):
            with pytest.raises(SolverConvergenceError):
                service.retrain()
            clock.advance(10.0)
            with pytest.raises(SolverConvergenceError):
                service.retrain()  # probe itself fails
        assert service.status()["breaker"]["state"] == "open"

    def test_auto_retrain_failures_never_reach_feedback(self, rng):
        service = _trained_service(rng, retrain_every=5, breaker_threshold=2)
        generation_before = service.status()["generation"]
        with chaos(ChaosConfig(fit_failure_rate=1.0)):
            for query, label in _pairs(rng, n=15):
                result = service.feedback(query, label)  # must not raise
                assert result["accepted"] is True
        status = service.status()
        assert status["generation"] == generation_before  # every auto-retrain failed
        assert status["breaker"]["state"] == "open"


class TestRetrainTimeout:
    def test_slow_fit_times_out_and_counts_as_failure(self, rng):
        service = _trained_service(rng)  # first train under no budget
        service.retrain_timeout = 0.05
        with chaos(ChaosConfig(fit_delay_seconds=0.2)):
            with pytest.raises(TrainingTimeoutError):
                service.retrain()
        status = service.status()
        assert status["generation"] == 1
        assert "TrainingTimeoutError" in status["last_error"]
        assert status["breaker"]["consecutive_failures"] == 1


class TestFeedbackQuarantine:
    def test_drop_policy_quarantines_instead_of_raising(self, rng):
        service = _trained_service(rng, sanitize_policy="drop")
        result = service.feedback(Box([0.1, 0.1], [0.5, 0.5]), float("nan"))
        assert result["accepted"] is False
        result = service.feedback(Box([0.3, 0.3], [0.3, 0.8]), 0.2)  # zero-volume
        assert result["accepted"] is False
        status = service.status()
        assert status["quarantine"]["quarantined"] == 2
        assert status["quarantine"]["reasons"] == {
            "nan_label": 1,
            "degenerate_range": 1,
        }

    def test_clamp_policy_repairs_out_of_range_feedback(self, rng):
        service = _trained_service(rng, sanitize_policy="clamp")
        result = service.feedback(Box([0.1, 0.1], [0.5, 0.5]), 1.4)
        assert result["accepted"] is True
        assert service.status()["quarantine"]["clamped"] == 1

    def test_bounded_buffer_reported_in_status(self, rng):
        service = _service(feedback_capacity=20, min_feedback=10)
        for query, label in _pairs(rng, n=50):
            service.feedback(query, label)
        status = service.status()
        assert status["buffer"]["size"] <= 20
        assert status["buffer"]["total_seen"] == 50
        assert status["buffer"]["downsampled"] is True
        service.retrain()  # retrain still works from the bounded snapshot
        assert status["feedback_total"] == 50


class TestDegradationOverHTTP:
    """Acceptance (b), end to end: breaker state is visible on /status and
    estimates keep flowing while retraining is broken."""

    @pytest.fixture
    def server(self, rng):
        service = _trained_service(rng, breaker_threshold=1)
        server = serve(service, port=0)
        yield server
        server.shutdown()

    def _url(self, server, path):
        host, port = server.server_address
        return f"http://{host}:{port}{path}"

    def _post(self, server, path, payload):
        request = urllib.request.Request(
            self._url(server, path),
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            return json.loads(response.read())

    def _get(self, server, path):
        with urllib.request.urlopen(self._url(server, path)) as response:
            return json.loads(response.read())

    def test_breaker_open_visible_on_status(self, server):
        with chaos(ChaosConfig(fit_fail_next=1)):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._post(server, "/v1/retrain", {})
            assert excinfo.value.code == 500
            body = json.loads(excinfo.value.read())
            assert body["type"] == "SolverConvergenceError"

        status = self._get(server, "/v1/status")
        assert status["breaker"]["state"] == "open"
        assert status["generation"] == 1

        # Estimates still served from the last good generation.
        query = Box([0.2, 0.2], [0.7, 0.7])
        estimate = self._post(server, "/v1/estimate", {"query": range_to_dict(query)})
        assert 0.0 <= estimate["selectivity"] <= 1.0

        # A retrain attempt while open is a structured 409, not a hang.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server, "/v1/retrain", {})
        assert excinfo.value.code == 409
        body = json.loads(excinfo.value.read())
        assert body["type"] == "ModelUnavailableError"
