"""EstimatorService persistence: warm restarts, snapshot/restore API,
and the versioned HTTP surface."""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.registry import make_estimator
from repro.observability import MetricsRegistry
from repro.persistence import SnapshotStore, save_model
from repro.robustness.errors import PersistenceError
from repro.server import EstimatorService, serve


@pytest.fixture
def workload(power2d_box_workload):
    train_q, train_s, test_q, _ = power2d_box_workload
    return train_q, train_s, test_q


def _service(snapshot_dir=None, **kwargs):
    kwargs.setdefault("registry", MetricsRegistry())
    return EstimatorService(
        lambda: make_estimator("ptshist", train_size=100),
        min_feedback=20,
        snapshot_dir=str(snapshot_dir) if snapshot_dir is not None else None,
        **kwargs,
    )


def _feed(service, queries, labels):
    for query, label in zip(queries, labels):
        service.feedback(query, float(label))


# -- service lifecycle ---------------------------------------------------


def test_retrain_persists_generation(tmp_path, workload):
    train_q, train_s, _ = workload
    service = _service(tmp_path)
    _feed(service, train_q, train_s)
    service.retrain()
    store = SnapshotStore(tmp_path)
    assert store.generations() == [1]
    status = service.status()
    assert status["snapshot"]["generation"] == 1
    assert status["snapshot_dir"] == str(tmp_path)


def test_restart_restores_without_refit(tmp_path, workload):
    """The acceptance criterion: a restarted service serves the prior
    generation immediately, with bitwise-identical predictions."""
    train_q, train_s, test_q = workload
    first = _service(tmp_path)
    _feed(first, train_q, train_s)
    first.retrain()
    before = first.estimate_many(test_q)

    calls = []

    def counting_factory():
        calls.append(1)
        return make_estimator("ptshist", train_size=100)

    second = EstimatorService(
        counting_factory,
        min_feedback=20,
        snapshot_dir=str(tmp_path),
        registry=MetricsRegistry(),
    )
    status = second.status()
    assert status["trained"] is True
    assert status["generation"] == 1
    assert status["restored_from"] == str(SnapshotStore(tmp_path).path_for(1))
    assert calls == []  # restored, not refitted
    assert second.estimate_many(test_q) == before


def test_restart_with_empty_dir_cold_starts(tmp_path):
    service = _service(tmp_path / "fresh")
    status = service.status()
    assert status["trained"] is False
    assert status["restored_from"] is None


def test_restart_with_corrupt_snapshots_cold_starts(tmp_path):
    (tmp_path / "gen-00000001.rma").write_bytes(b"junk")
    service = _service(tmp_path)
    assert service.status()["trained"] is False


def test_snapshot_and_restore_api(tmp_path, workload):
    train_q, train_s, test_q = workload
    service = _service(tmp_path, snapshot_keep=None)
    _feed(service, train_q, train_s)
    service.retrain()

    result = service.snapshot()
    assert result["generation"] == 1
    before = service.estimate_many(test_q)

    restored = service.restore()
    assert restored["generation"] == 2  # restore installs a new generation
    assert restored["estimator"] == "ptshist"
    assert service.estimate_many(test_q) == before


def test_restore_explicit_path(tmp_path, workload):
    train_q, train_s, test_q = workload
    estimator = make_estimator("quadhist", train_size=len(train_q))
    estimator.fit(train_q, train_s)
    path = tmp_path / "external.rma"
    save_model(estimator, path, training=(train_q, train_s))

    service = _service()  # no snapshot_dir: explicit-path restore still works
    result = service.restore(str(path))
    assert result["restored_from"] == str(path)
    assert service.status()["trained_on"] == len(train_q)
    np.testing.assert_array_equal(
        service.estimate_many(test_q), estimator.predict_many(test_q)
    )


def test_snapshot_without_dir_rejected(workload):
    service = _service()
    with pytest.raises(PersistenceError, match="snapshot directory"):
        service.snapshot()
    with pytest.raises(PersistenceError, match="snapshot directory"):
        service.restore()


def test_persist_failure_never_fails_retrain(tmp_path, workload, monkeypatch):
    train_q, train_s, _ = workload
    service = _service(tmp_path)
    _feed(service, train_q, train_s)
    monkeypatch.setattr(
        SnapshotStore, "save", lambda *a, **k: (_ for _ in ()).throw(OSError("full"))
    )
    result = service.retrain()  # must succeed despite the broken store
    assert result["generation"] == 1
    assert service.status()["trained"] is True
    text = service.registry.render()
    assert 'repro_snapshot_total{outcome="failure"} 1' in text


def test_snapshot_metrics_exported(tmp_path, workload):
    train_q, train_s, _ = workload
    service = _service(tmp_path)
    _feed(service, train_q, train_s)
    service.retrain()
    service.status()  # refreshes the age gauge
    text = service.registry.render()
    assert 'repro_snapshot_total{outcome="success"} 1' in text
    assert "repro_snapshot_generation 1" in text
    assert "repro_snapshot_age_seconds" in text


# -- versioned HTTP surface ----------------------------------------------


@pytest.fixture
def http(tmp_path, workload):
    train_q, train_s, _ = workload
    service = _service(tmp_path)
    _feed(service, train_q, train_s)
    service.retrain()
    server = serve(service)
    host, port = server.server_address
    base = f"http://{host}:{port}"

    def request(path, method="GET", body=None):
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(base + path, data=data, method=method)
        try:
            with urllib.request.urlopen(req, timeout=10) as response:
                return response.status, dict(response.headers), json.loads(
                    response.read()
                )
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers), json.loads(exc.read())

    yield request, service
    server.shutdown()


def _box_payload(query):
    from repro.data.io import range_to_dict

    return range_to_dict(query)


def test_v1_paths_serve(http, workload):
    request, _ = http
    _, _, test_q = workload
    status, headers, body = request("/v1/status")
    assert status == 200 and body["trained"] is True
    assert "Deprecation" not in headers

    status, headers, body = request(
        "/v1/estimate", "POST", {"query": _box_payload(test_q[0])}
    )
    assert status == 200 and 0.0 <= body["selectivity"] <= 1.0
    assert "Deprecation" not in headers

    status, _, body = request(
        "/v1/predict", "POST", {"queries": [_box_payload(q) for q in test_q[:4]]}
    )
    assert status == 200 and body["count"] == 4


def test_unversioned_estimate_is_404_other(http, workload):
    request, service = http
    _, _, test_q = workload
    status, _, body = request("/estimate", "POST", {"query": _box_payload(test_q[0])})
    assert status == 404 and body["type"] == "NotFound"
    requests = service.registry.get("repro_http_requests_total")
    # The handler counts a request after writing its response, so the
    # client can hold the response first: wait for the count.
    deadline = time.monotonic() + 5.0
    while (
        requests.value(method="POST", endpoint="other", status="4xx") < 1
        and time.monotonic() < deadline
    ):
        time.sleep(0.001)
    assert requests.value(method="POST", endpoint="other", status="4xx") == 1
    assert requests.value(method="POST", endpoint="/v1/estimate", status="2xx") == 0


def test_health_and_metrics_unversioned(http):
    request, _ = http
    status, headers, body = request("/health")
    assert status == 200 and body["status"] == "ok"
    assert "Deprecation" not in headers


def test_v1_snapshot_and_restore_endpoints(http):
    request, service = http
    status, _, body = request("/v1/snapshot", "POST", {})
    assert status == 200 and body["generation"] == 1

    status, _, body = request("/v1/restore", "POST", {})
    assert status == 200 and body["generation"] == 2
    assert service.status()["generation"] == 2

    status, _, body = request("/v1/restore", "POST", {"path": "/nope.rma"})
    assert status == 409 and body["type"] == "PersistenceError"

    status, _, body = request("/v1/restore", "POST", {"path": 5})
    assert status == 400 and body["type"] == "DataValidationError"


def test_v1_unknown_path_404(http):
    request, _ = http
    status, _, body = request("/v1/nope", "POST", {})
    assert status == 404 and body["type"] == "NotFound"
