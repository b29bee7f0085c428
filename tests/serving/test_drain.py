"""The drain waits for the requests in flight, and only for them."""

from __future__ import annotations

import http.client
import json
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core import QuadHist
from repro.data.io import range_to_dict
from repro.observability import MetricsRegistry
from repro.server import EstimatorService, serve
from repro.serving import drain_server

_JSON = {"Content-Type": "application/json"}


@pytest.fixture
def held(power2d_box_workload):
    """A trained service behind ``serve()`` whose ``estimate_many`` signals
    ``entered`` and then waits for ``release``."""
    train_q, train_s, _, _ = power2d_box_workload
    service = EstimatorService(lambda: QuadHist(tau=0.02), registry=MetricsRegistry())
    for query, label in zip(train_q[:40], train_s[:40]):
        service.feedback(query, label)
    service.retrain()
    query = train_q[50]
    expected = service.estimate_many([query])[0]
    entered, release = threading.Event(), threading.Event()
    estimate_many = service.estimate_many

    def held_estimate_many(queries, *args, **kwargs):
        entered.set()
        release.wait(10.0)
        return estimate_many(queries, *args, **kwargs)

    service.estimate_many = held_estimate_many  # the routes look it up per request
    server = serve(service, port=0)
    yield SimpleNamespace(
        server=server,
        service=service,
        query=query,
        expected=expected,
        entered=entered,
        release=release,
    )
    release.set()
    server.shutdown()
    server.server_close()


def _estimate(conn, query) -> tuple[int, bytes]:
    body = json.dumps({"query": range_to_dict(query)}).encode()
    conn.request("POST", "/v1/estimate", body=body, headers=_JSON)
    response = conn.getresponse()
    return response.status, response.read()


def _estimate_in_thread(address, query):
    result: dict = {}

    def run():
        conn = http.client.HTTPConnection(*address, timeout=15.0)
        try:
            result["status"], result["body"] = _estimate(conn, query)
        finally:
            conn.close()

    thread = threading.Thread(target=run)
    thread.start()
    return thread, result


def test_drain_waits_for_the_request_in_flight(held):
    client, result = _estimate_in_thread(held.server.server_address[:2], held.query)
    assert held.entered.wait(5.0)
    drainer = threading.Thread(target=drain_server, args=(held.server,))
    drainer.start()
    # shutdown() returns within one accept-loop poll (0.5 s): a drain
    # that did not wait for the held request would be over by now.
    drainer.join(1.0)
    assert drainer.is_alive(), "the drain returned with a request in flight"
    held.release.set()
    drainer.join(10.0)
    assert not drainer.is_alive()
    # Counted before the drain returned, so a final heartbeat includes it.
    requests = held.service.registry.get("repro_http_requests_total")
    assert requests.value(method="POST", endpoint="/v1/estimate", status="2xx") == 1
    client.join(10.0)
    assert not client.is_alive()
    assert result["status"] == 200
    assert json.loads(result["body"])["selectivity"] == held.expected


def test_drain_gives_up_after_its_timeout(held):
    client, result = _estimate_in_thread(held.server.server_address[:2], held.query)
    assert held.entered.wait(5.0)
    start = time.monotonic()
    assert drain_server(held.server, timeout=0.2) is False
    assert time.monotonic() - start < 5.0
    # The request outlives the drain that gave up on it and still answers.
    held.release.set()
    client.join(10.0)
    assert not client.is_alive()
    assert result["status"] == 200


def test_an_idle_kept_alive_connection_does_not_hold_the_drain(held):
    held.release.set()
    conn = http.client.HTTPConnection(*held.server.server_address[:2], timeout=15.0)
    try:
        assert _estimate(conn, held.query)[0] == 200
        # The connection stays open and its handler thread idles in
        # readline; the drain must not wait for the client to hang up.
        start = time.monotonic()
        assert drain_server(held.server, timeout=10.0) is True
        assert time.monotonic() - start < 5.0
    finally:
        conn.close()
