"""Reading the worker from outside: ``/metrics``, ``/v1/status``, ``/proc``."""

from __future__ import annotations

import http.client
import json
import os

from repro.observability.expolint import parse_exposition


def http_get(address: tuple[str, int], path: str, timeout: float = 10.0) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(*address, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def status(address: tuple[str, int]) -> dict:
    code, body = http_get(address, "/v1/status")
    if code != 200:
        raise RuntimeError(f"/v1/status answered {code}")
    return json.loads(body)


def parse_metrics(text: str) -> dict:
    """Families of an exposition page; a malformed page is an error."""
    families, problems = parse_exposition(text)
    if problems:
        raise ValueError("malformed /metrics page: " + "; ".join(problems[:5]))
    return families


def scrape(address: tuple[str, int]) -> dict:
    code, body = http_get(address, "/metrics")
    if code != 200:
        raise RuntimeError(f"/metrics answered {code}")
    return parse_metrics(body.decode("utf-8"))


def total(families: dict, sample: str, **labels: str) -> float:
    """Sum of every ``sample`` series whose labels include ``labels``."""
    return sum(
        value
        for family in families.values()
        for name, series_labels, value, _ in family["samples"]
        if name == sample and all(series_labels.get(k) == v for k, v in labels.items())
    )


def delta(after: dict, before: dict, sample: str, **labels: str) -> float:
    return total(after, sample, **labels) - total(before, sample, **labels)


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # The command name may hold spaces; the fields after it do not.
        fields = handle.read().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15 of the line, 12 and 13 after ")".
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
