"""Estimation service: programmatic API and the HTTP adapter."""

import io
import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import QuadHist
from repro.core.registry import available_estimators, make_estimator
from repro.data.io import range_to_dict
from repro.geometry import (
    Ball,
    Box,
    DiscIntersectionRange,
    Halfspace,
    SemiAlgebraicRange,
    UnionRange,
)
from repro.observability import configure_logging, parse_exposition, reset_logging
from repro.robustness import DataValidationError
from repro.server import EstimatorService, serve


def _service(**kwargs):
    return EstimatorService(lambda: QuadHist(tau=0.02), **kwargs)


@pytest.fixture
def labeled_feedback(power2d_box_workload):
    train_q, train_s, test_q, test_s = power2d_box_workload
    return list(zip(train_q, train_s)), list(zip(test_q, test_s))


class TestServiceAPI:
    def test_estimate_before_training_raises(self):
        service = _service()
        with pytest.raises(RuntimeError):
            service.estimate_many([Box([0.0, 0.0], [0.5, 0.5])])

    def test_feedback_then_retrain_then_estimate(self, labeled_feedback):
        feedback, holdout = labeled_feedback
        service = _service()
        for query, label in feedback[:50]:
            service.feedback(query, label)
        info = service.retrain()
        assert info["trained_on"] > 0
        estimates = service.estimate_many([q for q, _ in holdout[:30]])
        errors = [abs(e - s) for e, (_, s) in zip(estimates, holdout[:30])]
        assert float(np.mean(errors)) < 0.1

    def test_retrain_requires_min_feedback(self):
        service = _service(min_feedback=10)
        service.feedback(Box([0.0, 0.0], [0.5, 0.5]), 0.3)
        with pytest.raises(RuntimeError):
            service.retrain()

    def test_auto_retrain(self, labeled_feedback):
        feedback, _ = labeled_feedback
        service = _service(retrain_every=25, min_feedback=20)
        for query, label in feedback[:30]:
            service.feedback(query, label)
        assert service.status()["trained"]

    def test_status_shape(self):
        service = _service()
        status = service.status()
        assert status["trained"] is False
        assert status["feedback_total"] == 0

    def test_invalid_selectivity_rejected(self):
        service = _service()
        with pytest.raises(ValueError):
            service.feedback(Box([0.0, 0.0], [0.5, 0.5]), 1.5)

    def test_feedback_response_shape(self):
        service = _service()
        response = service.feedback(Box([0.0, 0.0], [0.5, 0.5]), 0.3)
        assert set(response) == {"accepted", "pending", "drift", "quarantined_total"}
        assert response["accepted"] is True
        assert response["pending"] == 1
        assert response["quarantined_total"] == 0

    def test_feedback_response_counts_own_append(self, labeled_feedback):
        """The response snapshot is taken in the same locked section as the
        buffer append: pending reflects this pair, pre-auto-retrain."""
        feedback, _ = labeled_feedback
        service = _service(retrain_every=25, min_feedback=20)
        for i, (query, label) in enumerate(feedback[:25], start=1):
            response = service.feedback(query, label)
            assert response["pending"] == i
        # The 25th pair triggered the auto-retrain *after* the snapshot.
        assert service.status()["trained"]
        assert service.status()["feedback_pending"] == 0

    @pytest.mark.parametrize("policy", ["drop", "clamp"])
    def test_feedback_the_model_cannot_evaluate_is_quarantined(
        self, labeled_feedback, policy
    ):
        feedback, _ = labeled_feedback
        service = _service(sanitize_policy=policy)
        for query, label in feedback[:30]:
            service.feedback(query, label)
        service.retrain()
        response = service.feedback(Ball([0.5, 0.5, 0.5], 0.2), 0.1)
        assert response["accepted"] is False
        quarantine = service.status()["quarantine"]
        assert quarantine["reasons"] == {"unservable_query": 1}
        assert quarantine["total"] == quarantine["kept"] + quarantine["quarantined"]
        assert service.status()["feedback_pending"] == 0
        service.retrain()  # nothing unservable was buffered

    @pytest.mark.parametrize("policy", ["raise", "drop"])
    def test_feedback_of_another_dimension_is_refused_before_the_first_model(
        self, labeled_feedback, policy
    ):
        feedback, _ = labeled_feedback
        service = _service(sanitize_policy=policy)
        other = Box([0.1, 0.1, 0.1], [0.5, 0.5, 0.5])
        for query, label in feedback[:30]:
            service.feedback(query, label)
        if policy == "raise":
            with pytest.raises(ValueError, match="dimension"):
                service.feedback(other, 0.1)
        else:
            assert service.feedback(other, 0.1)["accepted"] is False
        assert service.status()["feedback_pending"] == 30
        service.retrain()

    @pytest.mark.parametrize("policy", ["raise", "drop"])
    @pytest.mark.parametrize("name", available_estimators())
    def test_every_learner_refuses_feedback_of_another_dimension(
        self, labeled_feedback, name, policy
    ):
        """A 1-D box against a served 2-D model: refused (a 400 over HTTP)
        or quarantined, never buffered, so later retrains still succeed,
        also for learners that answer any query with a constant."""
        feedback, _ = labeled_feedback
        service = EstimatorService(
            lambda: make_estimator(name), sanitize_policy=policy, min_feedback=20
        )
        for query, label in feedback[:30]:
            service.feedback(query, label)
        service.retrain()
        other = Box([0.1], [0.5])
        if policy == "raise":
            with pytest.raises(DataValidationError):
                service.feedback(other, 0.1)
        else:
            assert service.feedback(other, 0.1)["accepted"] is False
            assert service.status()["quarantine"]["reasons"] == {"unservable_query": 1}
        assert service.status()["feedback_pending"] == 0
        if name != "mean":  # the constant answers every query
            with pytest.raises(ValueError):
                service.estimate_many([other])
        for query, label in feedback[30:60]:
            service.feedback(query, label)
        assert service.retrain()["generation"] == 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            _service(retrain_every=0)
        with pytest.raises(ValueError):
            _service(min_feedback=1)
        with pytest.raises(ValueError):
            _service(drift_holdout=1.5)


class TestHTTP:
    @pytest.fixture
    def server(self, labeled_feedback):
        service = _service(min_feedback=20)
        server = serve(service, port=0)
        yield server
        server.shutdown()

    def _post(self, server, path, payload):
        host, port = server.server_address
        request = urllib.request.Request(
            f"http://{host}:{port}{path}",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            return json.loads(response.read())

    def _get(self, server, path):
        host, port = server.server_address
        with urllib.request.urlopen(f"http://{host}:{port}{path}") as response:
            return json.loads(response.read())

    def test_full_http_lifecycle(self, server, labeled_feedback):
        feedback, holdout = labeled_feedback
        for query, label in feedback[:40]:
            result = self._post(
                server,
                "/v1/feedback",
                {"query": range_to_dict(query), "selectivity": float(label)},
            )
            assert "pending" in result
        trained = self._post(server, "/v1/retrain", {})
        assert trained["model_size"] >= 1
        query, truth = holdout[0]
        estimate = self._post(server, "/v1/estimate", {"query": range_to_dict(query)})
        assert 0.0 <= estimate["selectivity"] <= 1.0
        status = self._get(server, "/v1/status")
        assert status["trained"] is True

    def test_estimate_before_training_is_409(self, server, labeled_feedback):
        feedback, _ = labeled_feedback
        query, _ = feedback[0]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server, "/v1/estimate", {"query": range_to_dict(query)})
        assert excinfo.value.code == 409
        body = json.loads(excinfo.value.read())
        assert body["type"] == "ModelUnavailableError"
        assert "error" in body

    def test_malformed_request_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server, "/v1/estimate", {"query": {"type": "triangle"}})
        assert excinfo.value.code == 400

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(server, "/nope")
        assert excinfo.value.code == 404


class TestHTTPErrorPaths:
    """Every failure is a structured JSON body with the right status —
    never a hung connection or an HTML traceback page."""

    @pytest.fixture
    def server(self):
        service = _service(min_feedback=20)
        server = serve(service, port=0)
        yield server
        server.shutdown()

    def _post_raw(self, server, path, body: bytes):
        host, port = server.server_address
        request = urllib.request.Request(
            f"http://{host}:{port}{path}",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, json.loads(response.read())

    def _error_body(self, excinfo) -> dict:
        body = json.loads(excinfo.value.read())
        assert set(body) >= {"error", "type"}
        assert excinfo.value.headers["Content-Type"] == "application/json"
        return body

    def test_malformed_json_body_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post_raw(server, "/v1/estimate", b"{not json!")
        assert excinfo.value.code == 400
        body = self._error_body(excinfo)
        assert body["type"] == "DataValidationError"
        assert "malformed JSON" in body["error"]

    def test_non_object_json_body_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post_raw(server, "/v1/feedback", b"[1, 2, 3]")
        assert excinfo.value.code == 400
        assert self._error_body(excinfo)["type"] == "DataValidationError"

    def test_missing_query_key_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post_raw(server, "/v1/estimate", b"{}")
        assert excinfo.value.code == 400
        self._error_body(excinfo)

    def test_out_of_range_feedback_is_400(self, server):
        query = range_to_dict(Box([0.1, 0.1], [0.5, 0.5]))
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post_raw(
                server,
                "/v1/feedback",
                json.dumps({"query": query, "selectivity": 1.5}).encode(),
            )
        assert excinfo.value.code == 400
        body = self._error_body(excinfo)
        assert body["type"] == "DataValidationError"
        assert "[0, 1]" in body["error"]

    def test_non_numeric_feedback_is_400(self, server):
        query = range_to_dict(Box([0.1, 0.1], [0.5, 0.5]))
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post_raw(
                server,
                "/v1/feedback",
                json.dumps({"query": query, "selectivity": "lots"}).encode(),
            )
        assert excinfo.value.code == 400
        self._error_body(excinfo)

    @pytest.mark.parametrize(
        "query",
        [
            '{"type": "ball", "center": [0.5, 0.5], "radius": NaN}',
            '{"type": "halfspace", "normal": [1.0, 0.0], "offset": Infinity}',
            '{"type": "disc-intersection", "center": [0.5, 0.5], "radius": NaN}',
            '{"type": "disc-intersection", "center": [0.5, 0.5], "radius": -Infinity}',
            '{"type": "disc-intersection", "center": [0.5, 0.5], "radius": 0.1,'
            ' "max_data_radius": NaN}',
            '{"type": "disc-intersection", "center": [0.5, 0.5], "radius": 0.1,'
            ' "max_data_radius": Infinity}',
        ],
        ids=[
            "ball-nan-radius",
            "halfspace-inf-offset",
            "disc-nan-radius",
            "disc-negative-inf-radius",
            "disc-nan-data-radius",
            "disc-inf-data-radius",
        ],
    )
    def test_non_finite_query_scalar_is_400(self, server, query):
        # json.loads accepts NaN and Infinity; the range constructors must not.
        body = f'{{"query": {query}, "selectivity": 0.1}}'.encode()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post_raw(server, "/v1/feedback", body)
        assert excinfo.value.code == 400
        assert "must be finite" in self._error_body(excinfo)["error"]

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/v1/estimate", {"query": "box"}),
            ("/v1/predict", {"queries": [1]}),
            ("/v1/feedback", {"query": [0.1, 0.2], "selectivity": 0.1}),
        ],
        ids=["estimate-string", "predict-number", "feedback-list"],
    )
    def test_non_object_query_is_400(self, server, path, body):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post_raw(server, path, json.dumps(body).encode())
        assert excinfo.value.code == 400
        error = self._error_body(excinfo)
        assert error["type"] == "TypeError"
        assert "must be a JSON object" in error["error"]

    def test_unknown_post_path_is_404_json(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post_raw(server, "/train", b"{}")
        assert excinfo.value.code == 404
        assert self._error_body(excinfo)["type"] == "NotFound"

    def test_retrain_without_feedback_is_409(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post_raw(server, "/v1/retrain", b"{}")
        assert excinfo.value.code == 409
        assert self._error_body(excinfo)["type"] == "ModelUnavailableError"

    def test_status_reports_robustness_fields(self, server):
        host, port = server.server_address
        with urllib.request.urlopen(f"http://{host}:{port}/v1/status") as response:
            status = json.loads(response.read())
        assert set(status) >= {"generation", "breaker", "buffer", "quarantine"}
        assert status["breaker"]["state"] == "closed"
        assert status["generation"] == 0


_OTHER_DIMENSIONS = {
    "1d": {"type": "box", "lows": [0.1], "highs": [0.5]},
    "3d": {"type": "box", "lows": [0.1, 0.1, 0.1], "highs": [0.5, 0.5, 0.5]},
}


class TestWrongDimensionQueries:
    """A query of another dimension than the served 2-D model gets a 400
    on every route, and feedback never buffers it."""

    @pytest.fixture
    def server(self, labeled_feedback):
        feedback, _ = labeled_feedback
        service = _service(min_feedback=20)
        for query, label in feedback[:40]:
            service.feedback(query, label)
        service.retrain()
        server = serve(service, port=0)
        yield server, service
        server.shutdown()
        server.server_close()

    def _post(self, server, path, payload):
        host, port = server.server_address
        request = urllib.request.Request(
            f"http://{host}:{port}{path}",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=5) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            with exc:
                return exc.code, json.loads(exc.read())

    @pytest.mark.parametrize("route", ["estimate", "predict", "feedback"])
    @pytest.mark.parametrize("query", _OTHER_DIMENSIONS.values(), ids=_OTHER_DIMENSIONS.keys())
    def test_is_400(self, server, route, query):
        server, service = server
        payload = {
            "estimate": {"query": query},
            "predict": {"queries": [query]},
            "feedback": {"query": query, "selectivity": 0.1},
        }[route]
        status, body = self._post(server, f"/v1/{route}", payload)
        assert status == 400, body
        assert "dimension" in body["error"]
        assert service.status()["feedback_pending"] == 0

    @pytest.mark.parametrize("query", _OTHER_DIMENSIONS.values(), ids=_OTHER_DIMENSIONS.keys())
    def test_retrain_after_refused_feedback_succeeds(self, server, query):
        server, service = server
        status, _ = self._post(server, "/v1/feedback", {"query": query, "selectivity": 0.1})
        assert status == 400
        status, body = self._post(server, "/v1/retrain", {})
        assert status == 200, body
        assert body["generation"] == 2


class TestBatchEstimation:
    """estimate_many: batch path + generation-keyed prediction cache."""

    def _trained(self, labeled_feedback, **kwargs):
        feedback, holdout = labeled_feedback
        service = _service(**kwargs)
        for query, label in feedback[:50]:
            service.feedback(query, label)
        service.retrain()
        return service, holdout

    def test_before_training_raises(self):
        service = _service()
        with pytest.raises(RuntimeError):
            service.estimate_many([Box([0.0, 0.0], [0.5, 0.5])])

    def test_matches_scalar_estimate(self, labeled_feedback):
        # Uncached, so each single-query call runs its own predict_many.
        service, holdout = self._trained(labeled_feedback, prediction_cache_size=0)
        queries = [q for q, _ in holdout[:20]]
        batch = service.estimate_many(queries)
        assert len(batch) == len(queries)
        singles = [service.estimate_many([q])[0] for q in queries]
        np.testing.assert_allclose(batch, singles, atol=1e-12, rtol=0)

    def test_cache_hits_accumulate(self, labeled_feedback):
        service, holdout = self._trained(labeled_feedback)
        queries = [q for q, _ in holdout[:15]]
        first = service.estimate_many(queries)
        stats = service.status()["prediction_cache"]
        assert stats["size"] == len(queries)
        assert stats["misses"] >= len(queries)
        second = service.estimate_many(queries)
        assert second == first
        stats = service.status()["prediction_cache"]
        assert stats["hits"] >= len(queries)

    def test_cache_invalidated_by_retrain(self, labeled_feedback):
        service, holdout = self._trained(labeled_feedback)
        feedback, _ = labeled_feedback
        queries = [q for q, _ in holdout[:10]]
        service.estimate_many(queries)
        assert service.status()["prediction_cache"]["size"] == len(queries)
        for query, label in feedback[50:70]:
            service.feedback(query, label)
        service.retrain()  # new generation: stale entries must be unreachable
        assert service.status()["prediction_cache"]["size"] == 0
        before = service.status()["prediction_cache"]
        service.estimate_many(queries)
        after = service.status()["prediction_cache"]
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"] + len(queries)

    def test_cache_capacity_bounds_size(self, labeled_feedback):
        service, holdout = self._trained(labeled_feedback, prediction_cache_size=4)
        queries = [q for q, _ in holdout[:12]]
        service.estimate_many(queries)
        assert service.status()["prediction_cache"]["size"] <= 4

    def test_cache_disabled(self, labeled_feedback):
        service, holdout = self._trained(labeled_feedback, prediction_cache_size=0)
        queries = [q for q, _ in holdout[:10]]
        batch = service.estimate_many(queries)
        assert service.status()["prediction_cache"]["size"] == 0
        again = service.estimate_many(queries)
        np.testing.assert_allclose(batch, again, atol=1e-12, rtol=0)
        assert service.status()["prediction_cache"]["hits"] == 0

    def test_negative_cache_size_rejected(self):
        with pytest.raises(ValueError):
            _service(prediction_cache_size=-1)

    def test_empty_batch(self, labeled_feedback):
        service, _ = self._trained(labeled_feedback)
        assert service.estimate_many([]) == []


def _ranges_with_parameters(vector) -> list:
    """Every encodable range whose float parameters, in encoding order,
    are ``vector``: lookalikes of different families share their bytes."""
    n = len(vector)
    makers = [
        lambda: Halfspace(vector[:-1], vector[-1]),
        lambda: Ball(vector[:-1], vector[-1]),
    ]
    if n % 2 == 0:
        makers.append(lambda: Box(vector[: n // 2], vector[n // 2 :]))
    if n == 4:
        makers.append(lambda: DiscIntersectionRange(vector[:2], vector[2], vector[3]))
    ranges = []
    for make in makers:
        try:
            ranges.append(make())
        except ValueError:
            pass
    return ranges


class TestCacheKey:
    """Two queries share a prediction-cache key exactly when their sorted
    ``range_to_dict`` JSON is equal."""

    def test_keys_equal_exactly_when_json_is_equal(self):
        rng = np.random.default_rng(11)
        vectors = []
        for _ in range(40):
            n = int(rng.integers(2, 7))
            vector = rng.choice([0.0, 0.25, 0.5, 1.0], size=n)
            drawn = rng.random(n) < 0.5
            vector[drawn] = rng.random(int(drawn.sum()))
            vectors.append(vector)
            k = int(rng.integers(n))
            # -0.0 for a zero, and the 1-ulp neighbours either side.
            for twin in (-vector[k], np.nextafter(vector[k], 2.0), np.nextafter(vector[k], -2.0)):
                neighbour = vector.copy()
                neighbour[k] = twin
                vectors.append(neighbour)
        pool = [r for vector in vectors for r in _ranges_with_parameters(vector) * 2]
        keys = [EstimatorService._cache_key(7, r) for r in pool]
        encoded = [json.dumps(range_to_dict(r), sort_keys=True) for r in pool]
        assert all(key is not None for key in keys)
        shared = signed_zero = lookalikes = 0
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                assert (keys[i] == keys[j]) == (encoded[i] == encoded[j]), (pool[i], pool[j])
                shared += keys[i] == keys[j]
                lookalikes += keys[i][2] == keys[j][2] and keys[i][1] != keys[j][1]
                signed_zero += encoded[i] != encoded[j] and encoded[i].replace(
                    "-0.0", "0.0"
                ) == encoded[j].replace("-0.0", "0.0")
        assert {key[1] for key in keys} == {"box", "halfspace", "ball", "disc-intersection"}
        # Each case the key must tell apart, or must not, actually occurs.
        assert shared > 0 and lookalikes > 0 and signed_zero > 0

    def test_generation_is_part_of_the_key(self):
        box = Box([0.1, 0.2], [0.4, 0.6])
        assert EstimatorService._cache_key(1, box) != EstimatorService._cache_key(2, box)

    def test_unencodable_ranges_are_uncached(self):
        box = Box([0.1, 0.2], [0.4, 0.6])
        union = UnionRange([box, Box([0.5, 0.5], [0.9, 0.9])])
        semi = SemiAlgebraicRange(2, [lambda p: p[:, 0] - 0.5])
        for query in (union, semi):
            with pytest.raises(TypeError):
                range_to_dict(query)
            assert EstimatorService._cache_key(1, query) is None


class TestHTTPBatchPredict:
    @pytest.fixture
    def server(self, labeled_feedback):
        service = _service(min_feedback=20)
        server = serve(service, port=0)
        yield server
        server.shutdown()

    def _post(self, server, path, payload):
        host, port = server.server_address
        request = urllib.request.Request(
            f"http://{host}:{port}{path}",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            return json.loads(response.read())

    def _train(self, server, labeled_feedback):
        feedback, holdout = labeled_feedback
        for query, label in feedback[:40]:
            self._post(
                server,
                "/v1/feedback",
                {"query": range_to_dict(query), "selectivity": float(label)},
            )
        self._post(server, "/v1/retrain", {})
        return holdout

    def test_predict_endpoint(self, server, labeled_feedback):
        holdout = self._train(server, labeled_feedback)
        queries = [q for q, _ in holdout[:8]]
        result = self._post(
            server, "/v1/predict", {"queries": [range_to_dict(q) for q in queries]}
        )
        assert result["count"] == len(queries)
        assert len(result["selectivities"]) == len(queries)
        for value, (query, _) in zip(result["selectivities"], holdout[:8]):
            single = self._post(server, "/v1/estimate", {"query": range_to_dict(query)})
            assert value == pytest.approx(single["selectivity"], abs=1e-12)

    def test_predict_non_list_queries_is_400(self, server, labeled_feedback):
        self._train(server, labeled_feedback)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server, "/v1/predict", {"queries": {"type": "box"}})
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert "must be a list" in body["error"]

    def test_predict_before_training_is_409(self, server, labeled_feedback):
        feedback, _ = labeled_feedback
        queries = [range_to_dict(feedback[0][0])]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server, "/v1/predict", {"queries": queries})
        assert excinfo.value.code == 409
        body = json.loads(excinfo.value.read())
        assert body["type"] == "ModelUnavailableError"


class TestObservabilityEndpoints:
    @pytest.fixture
    def server(self):
        service = _service(min_feedback=20)
        server = serve(service, port=0)
        yield server
        server.shutdown()

    def _get_raw(self, server, path):
        host, port = server.server_address
        with urllib.request.urlopen(f"http://{host}:{port}{path}") as response:
            return response.status, response.headers, response.read()

    def test_health_reports_ok(self, server):
        status, headers, body = self._get_raw(server, "/health")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["reasons"] == []
        assert payload["breaker"] == "closed"

    def test_health_works_before_training(self, server):
        # Liveness must not depend on model state (409s are for /estimate).
        status, _, body = self._get_raw(server, "/health")
        assert status == 200 and json.loads(body)["status"] == "ok"

    def test_metrics_exposition_content_type(self, server):
        status, headers, body = self._get_raw(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        text = body.decode("utf-8")
        assert "# TYPE repro_service_requests_total counter" in text
        assert "# TYPE repro_http_requests_total counter" in text

    def test_metrics_counts_http_traffic(self, server):
        self._get_raw(server, "/health")
        try:
            self._get_raw(server, "/nope-unknown")
        except urllib.error.HTTPError:
            pass
        health = 'repro_http_requests_total{method="GET",endpoint="/health",status="2xx"}'
        # Unknown paths fold into the "other" label (bounded cardinality).
        other = 'endpoint="other",status="4xx"'
        # The handler counts a request after writing its response, so the
        # client can hold the response first: scrape until both show.
        deadline = time.monotonic() + 5.0
        while True:
            text = self._get_raw(server, "/metrics")[2].decode("utf-8")
            if (health in text and other in text) or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        assert health in text
        assert other in text


class TestAccessLog:
    def _serve(self, access_log):
        service = _service(min_feedback=20)
        server = serve(service, port=0, access_log=access_log)
        return server

    def test_enabled_emits_structured_line(self):
        stream = io.StringIO()
        configure_logging(json_mode=True, stream=stream)
        server = self._serve(access_log=True)
        try:
            host, port = server.server_address
            urllib.request.urlopen(f"http://{host}:{port}/health").read()
        finally:
            server.shutdown()
            reset_logging()
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        access = [line for line in lines if line["event"] == "http_request"]
        assert len(access) == 1
        assert access[0]["method"] == "GET"
        assert access[0]["path"] == "/health"
        assert access[0]["status"] == 200
        assert access[0]["seconds"] >= 0.0

    def test_quiet_by_default(self):
        stream = io.StringIO()
        configure_logging(json_mode=True, stream=stream)
        server = self._serve(access_log=False)
        try:
            host, port = server.server_address
            urllib.request.urlopen(f"http://{host}:{port}/health").read()
        finally:
            server.shutdown()
            reset_logging()
        assert "http_request" not in stream.getvalue()


class TestRequestTracing:
    """X-Request-Id propagation and per-stage latency decomposition in
    the single-process server (the pool path is covered by
    ``tests/serving/test_ops.py``)."""

    def _post(self, server, path, payload, headers=None):
        host, port = server.server_address
        request = urllib.request.Request(
            f"http://{host}:{port}{path}",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json", **(headers or {})},
            method="POST",
        )
        return urllib.request.urlopen(request)

    def _trained_server(self, labeled_feedback, **extras):
        from repro.observability import MetricsRegistry

        feedback, _ = labeled_feedback
        service = _service(min_feedback=20, registry=MetricsRegistry())
        for query, label in feedback[:30]:
            service.feedback(query, label)
        service.retrain()
        return serve(service, port=0, **extras), service

    def test_request_id_generated_and_echoed(self, labeled_feedback):
        from repro.data.io import range_to_dict
        from repro.server import REQUEST_ID_HEADER

        feedback, _ = labeled_feedback
        server, _ = self._trained_server(labeled_feedback)
        try:
            payload = {"query": range_to_dict(feedback[0][0])}
            with self._post(server, "/v1/estimate", payload) as response:
                generated = response.headers.get(REQUEST_ID_HEADER)
            assert generated and len(generated) == 16

            with self._post(
                server,
                "/v1/estimate",
                payload,
                headers={REQUEST_ID_HEADER: "trace-me-7"},
            ) as response:
                assert response.headers.get(REQUEST_ID_HEADER) == "trace-me-7"

            # Garbage ids (control chars, oversized) are replaced, never
            # echoed back verbatim into headers and logs.
            with self._post(
                server,
                "/v1/estimate",
                payload,
                headers={REQUEST_ID_HEADER: "x" * 500},
            ) as response:
                cleaned = response.headers.get(REQUEST_ID_HEADER)
            assert cleaned == "x" * 128
        finally:
            server.shutdown()

    def test_access_log_carries_request_id_and_stages(self, labeled_feedback):
        from repro.data.io import range_to_dict
        from repro.server import REQUEST_ID_HEADER

        feedback, _ = labeled_feedback
        stream = io.StringIO()
        configure_logging(json_mode=True, stream=stream)
        server, _ = self._trained_server(labeled_feedback, access_log=True)
        try:
            payload = {"query": range_to_dict(feedback[0][0])}
            self._post(
                server,
                "/v1/estimate",
                payload,
                headers={REQUEST_ID_HEADER: "staged-1"},
            ).close()
        finally:
            server.shutdown()
            reset_logging()
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        access = [line for line in lines if line["event"] == "http_request"]
        assert len(access) == 1
        assert access[0]["request_id"] == "staged-1"
        stages = access[0]["stages"]
        # No admission controller here, so no queue stage; the parse,
        # kernel, write and total decomposition must still be present and
        # ordered.
        assert set(stages) == {"parse", "kernel", "write", "total"}
        parts = stages["parse"] + stages["kernel"] + stages["write"]
        assert 0.0 <= parts <= stages["total"]

    def test_stage_histogram_skips_probes_and_stays_unlabelled(
        self, labeled_feedback
    ):
        from repro.data.io import range_to_dict

        feedback, _ = labeled_feedback
        server, service = self._trained_server(labeled_feedback)
        try:
            host, port = server.server_address
            payload = {"query": range_to_dict(feedback[0][0])}
            for _ in range(3):
                self._post(server, "/v1/estimate", payload).close()
            urllib.request.urlopen(f"http://{host}:{port}/health").read()
            text = (
                urllib.request.urlopen(f"http://{host}:{port}/metrics")
                .read()
                .decode()
            )
        finally:
            server.shutdown()
        hist = service.registry.get("repro_request_stage_seconds")
        assert hist.snapshot(stage="total")["count"] == 3
        assert hist.snapshot(stage="kernel")["count"] == 3
        # Single-process serving stays worker-label-free: render-time
        # injection happens only when a supervised pool sets the worker
        # label.  Check the service's own families rather than the whole
        # page — other components may legitimately *declare* a worker
        # label (e.g. supervisor restart counters).
        families, problems = parse_exposition(text)
        assert problems == []
        for family in ("repro_request_stage_seconds", "repro_service_queries_total"):
            for _, labels, _, _ in families[family]["samples"]:
                assert "worker" not in labels


class TestIncrementalUpdate:
    """The update() fast path: absorb pending feedback via partial_fit."""

    def _trained(self, labeled_feedback, n=60, **kwargs):
        from repro.observability import MetricsRegistry

        feedback, _ = labeled_feedback
        kwargs.setdefault("registry", MetricsRegistry())
        service = _service(**kwargs)
        for query, label in feedback[:n]:
            service.feedback(query, label)
        service.retrain()
        return service, feedback

    def test_update_absorbs_pending_feedback(self, labeled_feedback):
        service, feedback = self._trained(labeled_feedback)
        for query, label in feedback[60:80]:
            service.feedback(query, label)
        before = service.status()["generation"]
        result = service.update()
        assert result["incremental"] is True
        assert result["rows_appended"] == 20
        assert result["generation"] == before + 1
        assert result["update"]["warm_started"] is True
        status = service.status()
        assert status["feedback_pending"] == 0
        assert status["last_update"]["incremental"] is True

    def test_racing_updates_absorb_each_row_once(self, labeled_feedback, monkeypatch):
        """Regression: an update triggered while another is refining must
        absorb only what arrived since, not re-absorb the first batch
        into the pre-update model."""
        import threading
        import time

        service, feedback = self._trained(labeled_feedback)
        base_rows = service.status()["trained_on"]
        entered, release = threading.Event(), threading.Event()
        original = QuadHist.partial_fit

        def _gated_partial_fit(model, *args, **kwargs):
            if not entered.is_set():
                entered.set()
                assert release.wait(10.0)
            return original(model, *args, **kwargs)

        monkeypatch.setattr(QuadHist, "partial_fit", _gated_partial_fit)
        results, errors = [], []

        def _update():
            try:
                results.append(service.update())
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        for query, label in feedback[60:80]:
            service.feedback(query, label)
        first = threading.Thread(target=_update)
        first.start()
        assert entered.wait(10.0)
        for query, label in feedback[80:90]:  # arrives mid-update
            service.feedback(query, label)
        second = threading.Thread(target=_update)
        second.start()
        time.sleep(0.2)  # let the second update queue behind the first
        release.set()
        first.join(30.0)
        second.join(30.0)

        assert not errors
        assert all(result["incremental"] for result in results)
        assert sum(result["rows_appended"] for result in results) == 30
        status = service.status()
        assert status["trained_on"] == base_rows + 30
        assert status["feedback_pending"] == 0

    def test_feedback_during_retrain_stays_pending(self, labeled_feedback, monkeypatch):
        """Regression: rows posted while a full retrain is fitting are not
        in its training set, so they stay pending for the next advance."""
        import threading

        service, feedback = self._trained(labeled_feedback)
        entered, release = threading.Event(), threading.Event()
        original = QuadHist._fit

        def _gated_fit(model, *args, **kwargs):
            if not entered.is_set():
                entered.set()
                assert release.wait(10.0)
            return original(model, *args, **kwargs)

        monkeypatch.setattr(QuadHist, "_fit", _gated_fit)
        results, errors = [], []

        def _retrain():
            try:
                results.append(service.retrain())
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        for query, label in feedback[60:80]:
            service.feedback(query, label)
        worker = threading.Thread(target=_retrain)
        worker.start()
        assert entered.wait(10.0)
        for query, label in feedback[80:90]:  # arrives mid-retrain
            service.feedback(query, label)
        release.set()
        worker.join(30.0)

        assert not worker.is_alive()
        assert not errors and len(results) == 1
        assert service.status()["feedback_pending"] == 10
        result = service.update()
        assert result["incremental"] is True
        assert result["rows_appended"] == 10

    def test_concurrent_feedback_and_updates_absorb_each_row_once(
        self, labeled_feedback
    ):
        """Stress: feedback threads race update threads under a short
        switch interval; every row is absorbed by exactly one generation."""
        import sys
        import threading
        import time

        from repro.robustness.errors import ModelUnavailableError

        service, feedback = self._trained(labeled_feedback)
        base_rows = service.status()["trained_on"]
        rows = feedback[60:100]
        absorbed, errors = [], []
        stop = threading.Event()

        def _feed(chunk):
            try:
                for query, label in chunk:
                    service.feedback(query, label)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        def _update():
            while not stop.is_set():
                try:
                    absorbed.append(service.update()["rows_appended"])
                except ModelUnavailableError:
                    time.sleep(0.001)  # nothing pending yet
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append(exc)
                    return

        feeders = [threading.Thread(target=_feed, args=(rows[i::4],)) for i in range(4)]
        updaters = [threading.Thread(target=_update) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in feeders + updaters:
                thread.start()
            for thread in feeders:
                thread.join(30.0)
            stop.set()
            for thread in updaters:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)

        assert not any(thread.is_alive() for thread in feeders + updaters)
        assert not errors
        if service.status()["feedback_pending"]:
            absorbed.append(service.update()["rows_appended"])
        assert sum(absorbed) == len(rows)
        status = service.status()
        assert status["feedback_pending"] == 0
        assert status["trained_on"] == base_rows + len(rows)

    def test_update_without_pending_raises(self, labeled_feedback):
        service, _ = self._trained(labeled_feedback)
        with pytest.raises(RuntimeError):
            service.update()

    def test_update_invalidates_prediction_cache(self, labeled_feedback):
        """Regression: a stale cached prediction must never be served after
        an incremental update — the LRU is generation-keyed and cleared."""
        service, feedback = self._trained(labeled_feedback)
        _, holdout = labeled_feedback
        queries = [q for q, _ in holdout[:10]]
        service.estimate_many(queries)
        service.estimate_many(queries)  # all hits now
        cache = service.status()["prediction_cache"]
        assert cache["hits"] >= len(queries) and cache["size"] >= len(queries)
        for query, label in feedback[60:90]:
            service.feedback(query, label)
        service.update()
        assert service.status()["prediction_cache"]["size"] == 0
        hits_before = service.status()["prediction_cache"]["hits"]
        misses_before = service.status()["prediction_cache"]["misses"]
        service.estimate_many(queries)
        cache = service.status()["prediction_cache"]
        # Every post-update lookup missed: nothing stale was served.
        assert cache["hits"] == hits_before
        assert cache["misses"] == misses_before + len(queries)

    def test_update_without_model_falls_back_to_retrain(self, labeled_feedback):
        from repro.observability import MetricsRegistry

        feedback, _ = labeled_feedback
        service = _service(min_feedback=20, registry=MetricsRegistry())
        for query, label in feedback[:30]:
            service.feedback(query, label)
        result = service.update()
        assert result["incremental"] is False
        assert result["fallback"] == "no_model"
        assert service.status()["trained"] is True

    def test_update_without_partial_fit_falls_back(self, labeled_feedback):
        from repro.core import GaussianMixtureHist
        from repro.observability import MetricsRegistry
        from repro.server import EstimatorService

        feedback, _ = labeled_feedback
        service = EstimatorService(
            lambda: GaussianMixtureHist(components=4),
            min_feedback=20,
            registry=MetricsRegistry(),
        )
        for query, label in feedback[:30]:
            service.feedback(query, label)
        service.retrain()
        for query, label in feedback[30:40]:
            service.feedback(query, label)
        result = service.update()
        assert result["incremental"] is False
        assert result["fallback"] == "unsupported"

    def test_residual_budget_falls_back(self, labeled_feedback):
        service, feedback = self._trained(
            labeled_feedback, update_residual_budget=1e-12
        )
        for query, label in feedback[60:80]:
            service.feedback(query, label)
        result = service.update()
        assert result["incremental"] is False
        assert result["fallback"] == "residual_budget"

    def test_evicted_batch_falls_back(self, labeled_feedback):
        """Pending feedback that aged out of the recency ring cannot be
        replayed exactly — the service refits on the union instead."""
        service, feedback = self._trained(
            labeled_feedback, min_feedback=10, feedback_capacity=20
        )
        for query, label in feedback[60:75]:  # 15 pending > ring of 10
            service.feedback(query, label)
        result = service.update()
        assert result["incremental"] is False
        assert result["fallback"] == "batch_evicted"

    def test_auto_update_with_incremental_flag(self, labeled_feedback):
        from repro.observability import MetricsRegistry

        feedback, _ = labeled_feedback
        service = _service(
            retrain_every=25,
            min_feedback=20,
            incremental_updates=True,
            registry=MetricsRegistry(),
        )
        for query, label in feedback[:30]:
            service.feedback(query, label)
        # First auto-train had no model: update fell back to a full fit.
        assert service.status()["trained"] is True
        assert service.status()["last_update"]["fallback"] == "no_model"
        for query, label in feedback[30:60]:
            service.feedback(query, label)
        status = service.status()
        assert status["last_update"]["incremental"] is True
        assert status["generation"] == 2

    def test_update_metrics_move(self, labeled_feedback):
        service, feedback = self._trained(labeled_feedback)
        for query, label in feedback[60:80]:
            service.feedback(query, label)
        service.update()
        registry = service.registry
        assert registry.get("repro_update_total").value(outcome="success") == 1
        assert (
            registry.get("repro_update_rows_appended_total").value() == 20
        )
        assert registry.get("repro_update_seconds").snapshot()["count"] == 1

    def test_http_update_endpoint(self, labeled_feedback):
        from repro.observability import MetricsRegistry

        feedback, _ = labeled_feedback
        service = _service(min_feedback=20, registry=MetricsRegistry())
        server = serve(service, port=0)
        try:
            host, port = server.server_address
            for query, label in feedback[:40]:
                service.feedback(query, label)
            service.retrain()
            for query, label in feedback[40:55]:
                service.feedback(query, label)
            request = urllib.request.Request(
                f"http://{host}:{port}/v1/update",
                data=b"{}",
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request) as response:
                body = json.loads(response.read())
        finally:
            server.shutdown()
        assert body["incremental"] is True
        assert body["rows_appended"] == 15
        assert body["generation"] == 2

    def test_delta_snapshot_carries_incremental_metadata(
        self, labeled_feedback, tmp_path
    ):
        from repro.observability import MetricsRegistry
        from repro.persistence.artifact import load_manifest

        service, feedback = self._trained(
            labeled_feedback, snapshot_dir=str(tmp_path)
        )
        for query, label in feedback[60:80]:
            service.feedback(query, label)
        service.update()
        store = service.snapshot_store
        assert store.latest_generation() == 2
        manifest = load_manifest(store.path_for(2))
        fit = manifest["fit"]
        assert fit["incremental"] is True
        assert fit["base_generation"] == 1
        assert fit["rows_appended"] == 20
