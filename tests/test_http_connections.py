"""Persistent HTTP/1.1 connections: reuse, TCP_NODELAY, and the
responses that must close their connection."""

import contextlib
import http.client
import json
import socket
import statistics
import threading
import time
import urllib.request
from types import SimpleNamespace

import pytest

import repro.server as server_module
from repro.core import QuadHist
from repro.data.io import range_to_dict
from repro.observability import MetricsRegistry
from repro.robustness.errors import DeadlineExceededError, OverloadedError
from repro.server import DEADLINE_HEADER, EstimatorService, serve

_JSON = {"Content-Type": "application/json"}


class _ArmedAdmission:
    """Admits every request, except that an armed error is raised once."""

    def __init__(self):
        self.error = None

    @contextlib.contextmanager
    def admit(self, deadline=None):
        error, self.error = self.error, None
        if error is not None:
            raise error
        yield self


@pytest.fixture
def served(power2d_box_workload, tmp_path):
    """A trained service behind ``serve()`` with a drain flag and an
    armable admission controller."""
    train_q, train_s, _, _ = power2d_box_workload
    feedback = list(zip(train_q, train_s))
    service = EstimatorService(
        lambda: QuadHist(tau=0.02),
        min_feedback=20,
        incremental_updates=True,
        snapshot_dir=str(tmp_path),
        registry=MetricsRegistry(),
    )
    for query, label in feedback[:40]:
        service.feedback(query, label)
    service.retrain()
    draining = threading.Event()
    admission = _ArmedAdmission()
    server = serve(service, port=0, draining=draining, admission=admission)
    yield SimpleNamespace(
        server=server,
        service=service,
        feedback=feedback,
        draining=draining,
        admission=admission,
        address=server.server_address[:2],
    )
    server.shutdown()
    server.server_close()


def _estimate_body(query) -> bytes:
    return json.dumps({"query": range_to_dict(query)}).encode()


def _exchange(conn, method, path, body=None, headers=None, **kwargs):
    conn.request(method, path, body=body, headers={**_JSON, **(headers or {})}, **kwargs)
    response = conn.getresponse()
    return response.status, response.read(), response


def _connections(service) -> float:
    return service.registry.get("repro_http_connections_total").value()


# Each case sends one request whose body the handler does not read in
# full (or that reaches a draining worker) and returns the status it
# must get.  Without ``Connection: close`` on that response, the unread
# bytes would be parsed as the next request line.


def _not_found(conn, s):
    return _exchange(conn, "POST", "/v1/nope", _estimate_body(s.feedback[0][0])), 404


def _draining(conn, s):
    s.draining.set()
    try:
        return _exchange(conn, "POST", "/v1/estimate", _estimate_body(s.feedback[0][0])), 503
    finally:
        s.draining.clear()


def _bad_deadline(conn, s):
    body = _estimate_body(s.feedback[0][0])
    return _exchange(conn, "POST", "/v1/estimate", body, {DEADLINE_HEADER: "soon"}), 400


def _expired_deadline(conn, s):
    body = _estimate_body(s.feedback[0][0])
    return _exchange(conn, "POST", "/v1/estimate", body, {DEADLINE_HEADER: "0"}), 504


def _shed(conn, s):
    s.admission.error = OverloadedError("queue full", retry_after=1.0)
    return _exchange(conn, "POST", "/v1/estimate", _estimate_body(s.feedback[0][0])), 429


def _queue_deadline(conn, s):
    s.admission.error = DeadlineExceededError("deadline expired while queued")
    return _exchange(conn, "POST", "/v1/estimate", _estimate_body(s.feedback[0][0])), 504


def _bad_content_length(conn, s):
    body = _estimate_body(s.feedback[0][0])
    return _exchange(conn, "POST", "/v1/estimate", body, {"Content-Length": "many"}), 400


def _negative_content_length(conn, s):
    body = _estimate_body(s.feedback[0][0])
    return _exchange(conn, "POST", "/v1/estimate", body, {"Content-Length": "-1"}), 400


def _chunked(conn, s):
    body = iter([_estimate_body(s.feedback[0][0])])
    return _exchange(conn, "POST", "/v1/estimate", body, encode_chunked=True), 400


def _retrain(conn, s):
    return _exchange(conn, "POST", "/v1/retrain", b'{"ignored": true}'), 200


def _update(conn, s):
    for query, label in s.feedback[40:50]:
        s.service.feedback(query, label)
    return _exchange(conn, "POST", "/v1/update", b'{"ignored": true}'), 200


def _snapshot(conn, s):
    return _exchange(conn, "POST", "/v1/snapshot", b'{"ignored": true}'), 200


@pytest.mark.parametrize(
    "case",
    [
        _not_found,
        _draining,
        _bad_deadline,
        _expired_deadline,
        _shed,
        _queue_deadline,
        _bad_content_length,
        _negative_content_length,
        _chunked,
        _retrain,
        _update,
        _snapshot,
    ],
    ids=lambda case: case.__name__.strip("_"),
)
def test_unread_body_closes_the_connection(served, case):
    conn = http.client.HTTPConnection(*served.address, timeout=5.0)
    try:
        (status, body, response), expected = case(conn, served)
        assert status == expected, body
        assert response.getheader("Connection") == "close"

        # The next request on the same client connection reconnects and
        # gets its own answer, not a parse of the leftover bytes.
        query = served.feedback[60][0]
        status, body, _ = _exchange(conn, "POST", "/v1/estimate", _estimate_body(query))
        assert status == 200, body
        assert json.loads(body)["selectivity"] == served.service.estimate_many([query])[0]
    finally:
        conn.close()


def test_one_connection_serves_many_requests(served):
    """50 estimates on one client connection open one server connection,
    and TCP_NODELAY keeps each round trip far below the ~40 ms a
    delayed ACK would add to a response sent in two writes."""
    before = _connections(served.service)
    conn = http.client.HTTPConnection(*served.address, timeout=5.0)
    round_trips = []
    try:
        for query, _ in served.feedback[:50]:
            start = time.perf_counter()
            status, body, response = _exchange(
                conn, "POST", "/v1/estimate", _estimate_body(query)
            )
            round_trips.append(time.perf_counter() - start)
            assert status == 200, body
            assert response.getheader("Connection") is None
    finally:
        conn.close()
    assert _connections(served.service) - before == 1
    assert statistics.median(round_trips) < 0.020


def test_connection_close_clients_get_a_connection_each(served):
    host, port = served.address
    before = _connections(served.service)
    for query, _ in served.feedback[:3]:
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/estimate", data=_estimate_body(query), headers=_JSON
        )
        with urllib.request.urlopen(request, timeout=5.0) as response:
            assert response.status == 200
            assert response.headers["Connection"] == "close"
            response.read()
    assert _connections(served.service) - before == 3


def test_chunked_body_is_rejected_not_ignored(served):
    """A chunked body was read as ``{}``: a restore naming a missing
    artifact installed the latest snapshot instead."""
    conn = http.client.HTTPConnection(*served.address, timeout=5.0)
    try:
        body = iter([json.dumps({"path": "/no/such/artifact.rma"}).encode()])
        status, body, response = _exchange(
            conn, "POST", "/v1/restore", body, encode_chunked=True
        )
    finally:
        conn.close()
    assert status == 400, body
    assert json.loads(body)["type"] == "DataValidationError"
    assert response.getheader("Connection") == "close"


def _read_response(sock) -> tuple[int, bytes]:
    """Read one response with a Content-Length body from a raw socket."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, "connection closed before the response head"
        data += chunk
    head, body = data.split(b"\r\n\r\n", 1)
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    while len(body) < int(headers["Content-Length"]):
        chunk = sock.recv(65536)
        assert chunk, "connection closed inside the response body"
        body += chunk
    return int(lines[0].split()[1]), body


def test_refused_body_can_still_be_sent_after_the_response(served):
    """The server answers a chunked request from its head and closes in
    stages: it reads and discards the body the client is still streaming,
    so those writes succeed instead of meeting a reset."""
    with socket.create_connection(served.address, timeout=5.0) as sock:
        sock.sendall(
            b"POST /v1/estimate HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n"
        )
        status, body = _read_response(sock)
        assert status == 400, body
        assert json.loads(body)["type"] == "DataValidationError"
        chunk = _estimate_body(served.feedback[0][0])
        sock.sendall(b"%x\r\n%s\r\n" % (len(chunk), chunk))
        time.sleep(0.05)  # a closed socket answers the first write with a reset
        sock.sendall(b"0\r\n\r\n")
        assert sock.recv(1) == b""  # the server's half-close, after the response


def test_idle_connection_is_closed(served, monkeypatch):
    """A kept-alive connection idle past IDLE_TIMEOUT_S is closed by the
    server, and its handler thread exits."""
    monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.2)
    monkeypatch.setattr(server_module, "CLOSE_LINGER_S", 0.2)
    server = serve(served.service, port=0)
    try:
        before = set(threading.enumerate())
        with socket.create_connection(server.server_address[:2], timeout=5.0) as sock:
            sock.sendall(b"GET /health HTTP/1.1\r\nHost: test\r\n\r\n")
            status, _ = _read_response(sock)
            assert status == 200
            (handler,) = [
                t
                for t in set(threading.enumerate()) - before
                if "process_request_thread" in t.name
            ]
            time.sleep(0.6)
            sock.settimeout(0.5)
            assert sock.recv(1) == b""  # closed, not merely silent
            handler.join(timeout=0.5)
            assert not handler.is_alive()
    finally:
        server.shutdown()
        server.server_close()


def test_oversize_body_is_refused_before_it_is_read(served):
    """A declared body over MAX_BODY_BYTES gets 413 from the request
    head alone, and the connection closes: the client sends no body."""
    length = server_module.MAX_BODY_BYTES + 1
    with socket.create_connection(served.address, timeout=5.0) as sock:
        sock.sendall(
            b"POST /v1/estimate HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n" % length
        )
        status, body = _read_response(sock)
        assert status == 413, body
        assert json.loads(body)["type"] == "ContentTooLargeError"
        assert sock.recv(1) == b""


def test_stalled_body_gets_408_and_a_closed_connection(served, monkeypatch):
    """A body that stops arriving is answered 408, not 500, once the
    connection's read timeout passes, and the connection closes."""
    monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.3)
    monkeypatch.setattr(server_module, "CLOSE_LINGER_S", 0.2)
    server = serve(served.service, port=0)
    try:
        with socket.create_connection(server.server_address[:2], timeout=5.0) as sock:
            sock.sendall(
                b"POST /v1/estimate HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\nContent-Length: 1000\r\n\r\n"
                b'{"query": '
            )
            start = time.perf_counter()
            status, body = _read_response(sock)
            assert status == 408, body
            assert json.loads(body)["type"] == "RequestTimeoutError"
            assert time.perf_counter() - start < 3.0
            assert sock.recv(1) == b""
    finally:
        server.shutdown()
        server.server_close()


def test_a_held_read_does_not_hold_another(power2d_box_workload):
    """Each read makes its own ``estimate_many`` call: while one estimate
    is held inside its call, an estimate on another connection answers
    with the in-process value."""
    train_q, train_s, _, _ = power2d_box_workload
    service = EstimatorService(lambda: QuadHist(tau=0.02), registry=MetricsRegistry())
    for query, label in zip(train_q[:40], train_s[:40]):
        service.feedback(query, label)
    service.retrain()
    held_query, other_query = train_q[50], train_q[51]
    expected = service.estimate_many([other_query])[0]
    entered, release = threading.Event(), threading.Event()
    estimate_many = service.estimate_many

    def hold_the_first_call(queries):
        if not entered.is_set():
            entered.set()
            release.wait(10.0)
        return estimate_many(queries)

    service.estimate_many = hold_the_first_call  # before serve(): nothing bound at start-up misses it
    server = serve(service, port=0)
    address = server.server_address[:2]
    held: dict = {}

    def send_held():
        conn = http.client.HTTPConnection(*address, timeout=15.0)
        try:
            held["status"], held["body"], _ = _exchange(
                conn, "POST", "/v1/estimate", _estimate_body(held_query)
            )
        finally:
            conn.close()

    client = threading.Thread(target=send_held)
    client.start()
    try:
        assert entered.wait(5.0)
        conn = http.client.HTTPConnection(*address, timeout=3.0)
        try:
            status, body, _ = _exchange(conn, "POST", "/v1/estimate", _estimate_body(other_query))
        finally:
            conn.close()
        assert status == 200, body
        assert json.loads(body)["selectivity"] == expected
        assert client.is_alive() and "status" not in held  # still inside its call
    finally:
        release.set()
        client.join(10.0)
        server.shutdown()
        server.server_close()
    assert held["status"] == 200, held["body"]
    assert json.loads(held["body"])["selectivity"] == estimate_many([held_query])[0]
