"""Percentiles with the sample-count rule, and run-to-run spread."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that one sample more or less moves it.
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linearly interpolated ``p``-th percentile (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = (len(xs) - 1) * p / 100.0
    lo, hi = math.floor(rank), math.ceil(rank)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def supported(n: int, p: float) -> bool:
    """True when ``n`` samples leave at least :data:`MIN_BEYOND` beyond ``p``."""
    return n * (100.0 - p) / 100.0 >= MIN_BEYOND


def latency_summary(samples, percentiles=(50.0, 90.0, 99.0)) -> dict:
    """``{"n": n, "p50": ..., ...}``; an unsupported percentile is None."""
    n = len(samples)
    out: dict = {"n": n}
    for p in percentiles:
        key = f"p{p:g}"
        out[key] = percentile(samples, p) if n and supported(n, p) else None
    return out


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median (0 when it is 0)."""
    q1, med, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(med) if med else math.inf
