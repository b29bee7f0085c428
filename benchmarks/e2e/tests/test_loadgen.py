import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest

from benchmarks.e2e.loadgen import drive, send_all

STALL_S = 0.3


class _StallingHandler(BaseHTTPRequestHandler):
    """Answers at once, except request body b"stall", which takes STALL_S."""

    def do_POST(self):  # noqa: N802 - stdlib handler contract
        body = self.rfile.read(int(self.headers["Content-Length"]))
        if body == b"stall":
            time.sleep(STALL_S)
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler)
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield httpd.server_address
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def _requests(bodies):
    return [SimpleNamespace(path="/x", body=b) for b in bodies]


def test_open_loop_times_from_the_due_time_across_a_stall(server):
    rate = 20.0  # one request due every 50 ms
    requests = _requests([b"a", b"stall"] + [b"b"] * 8)
    start = time.perf_counter() + 0.05
    samples = drive(server, requests, start, seconds=0.5, rate=rate, connections=1)
    assert [s.index for s in samples] == list(range(10))
    assert all(s.status == 200 and s.body == r.body for s, r in zip(samples, requests))
    for s in samples:
        assert s.due == pytest.approx(start + s.index / rate)
        assert s.sent >= s.due
    stalled = samples[1]
    assert stalled.latency >= STALL_S
    # The next request was due 50 ms after the stalled one but could only
    # go out after it: its latency counts that wait, its service time not.
    after = samples[2]
    assert after.late >= STALL_S - 0.05 - 0.01
    assert after.latency >= after.late
    assert after.done - after.sent < 0.1


def test_open_loop_sends_each_request_at_most_once(server):
    samples = drive(server, _requests([b"a"] * 3), time.perf_counter(), seconds=1.0, rate=100.0)
    assert sorted(s.index for s in samples) == [0, 1, 2]


def test_closed_loop_cycles_and_times_from_the_send(server):
    samples = drive(server, _requests([b"a", b"b"]), time.perf_counter(), seconds=0.2)
    assert len(samples) > 2
    assert all(s.due == s.sent for s in samples)
    assert [s.body for s in samples[:4]] == [b"a", b"b", b"a", b"b"]


def test_connection_limit_and_failures_are_reported(server):
    with pytest.raises(ValueError):
        drive(server, _requests([b"a"]), time.perf_counter(), 0.1, connections=3)
    host, port = server
    # A closed port: the request fails without a response.
    probe = ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler)
    closed = probe.server_address
    probe.server_close()
    [sample] = send_all(closed, _requests([b"a"]), timeout=1.0)
    assert sample.status == 0 and sample.error
    [ok] = send_all((host, port), _requests([b"a"]))
    assert ok.status == 200
