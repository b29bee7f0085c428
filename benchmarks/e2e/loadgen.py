"""The load generator: one process, at most two threads and two connections.

An open loop sends request ``i`` when it is due, at ``start + i / rate``,
whether or not earlier requests have finished, and its latency runs from
that due time: a stall also delays every request queued behind it.  A
closed loop sends a connection's next request as soon as its previous one
returns.  Both loops share one request counter, so with two threads the
requests go out in list order.
"""

from __future__ import annotations

import http.client
import itertools
import threading
import time
from dataclasses import dataclass

MAX_CONNECTIONS = 2
_HEADERS = {"Content-Type": "application/json"}


@dataclass
class Sample:
    index: int  # position in the request list
    due: float  # open loop: scheduled send time; closed loop: the send time
    sent: float
    done: float
    status: int  # 0 when no response arrived
    body: bytes
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


def _send(conn, index: int, request, due: float | None) -> Sample:
    sent = time.perf_counter()
    try:
        conn.request("POST", request.path, body=request.body, headers=_HEADERS)
        response = conn.getresponse()
        body = response.read()
        status, error = response.status, None
    except (OSError, http.client.HTTPException) as exc:
        conn.close()
        status, body, error = 0, b"", f"{type(exc).__name__}: {exc}"
    done = time.perf_counter()
    return Sample(index, sent if due is None else due, sent, done, status, body, error)


def send_all(address: tuple[str, int], requests: list, timeout: float = 10.0) -> list[Sample]:
    """Send each request once, one after another, on one connection."""
    conn = http.client.HTTPConnection(*address, timeout=timeout)
    try:
        return [_send(conn, i, request, None) for i, request in enumerate(requests)]
    finally:
        conn.close()


def drive(
    address: tuple[str, int],
    requests: list,
    start: float,
    seconds: float,
    rate: float | None = None,
    connections: int = MAX_CONNECTIONS,
    lane=None,
    timeout: float = 10.0,
) -> list[Sample]:
    """Send ``requests`` (objects with ``path`` and ``body``) from ``start``
    (a ``time.perf_counter`` value) for ``seconds``.

    With ``rate`` the loop is open and sends each request at most once;
    without it the loop is closed and cycles through the list.  ``lane``,
    for an open loop, maps each request to the connection that must send
    it; otherwise every connection takes the next request in turn.
    Returns one :class:`Sample` per request sent, in send order.
    """
    if not 1 <= connections <= MAX_CONNECTIONS:
        raise ValueError(f"connections must be in [1, {MAX_CONNECTIONS}], got {connections}")
    if not requests:
        raise ValueError("no requests to send")
    if lane is not None and rate is None:
        raise ValueError("lanes need an open loop")
    end = start + seconds
    shared = itertools.count()
    samples: list[Sample] = []

    def loop(k: int) -> None:
        if lane is None:
            counter = shared
        else:
            counter = iter([i for i, r in enumerate(requests) if lane(r) == k] + [len(requests)])
        conn = http.client.HTTPConnection(*address, timeout=timeout)
        try:
            while True:
                index = next(counter)
                if rate is not None:
                    due = start + index / rate
                    if index >= len(requests) or due >= end:
                        return
                else:
                    due = None
                    if time.perf_counter() >= end:
                        return
                delay = (due if due is not None else start) - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                samples.append(_send(conn, index, requests[index % len(requests)], due))
        finally:
            conn.close()

    threads = [
        threading.Thread(target=loop, args=(k,), name=f"loadgen-{k}")
        for k in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples.sort(key=lambda s: s.index)
    return samples
