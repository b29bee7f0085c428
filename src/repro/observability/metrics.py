"""Thread-safe metrics primitives and a Prometheus-text registry.

Three metric kinds cover everything the serving stack needs to expose:

* :class:`Counter` — monotonically increasing totals (requests, cache
  hits, solver-ladder rungs chosen).
* :class:`Gauge` — last-written values (model generation, breaker state,
  drift statistic).
* :class:`Histogram` — fixed-bucket latency distributions with
  cumulative Prometheus buckets.

All three support a fixed set of label *names* declared at creation;
label *values* materialise series lazily on first use.  A
:class:`MetricsRegistry` owns a namespace of metrics and hands out
get-or-create handles, so independently imported modules share one
series per name.

Every exposition page is written the same way: :func:`snapshot_registry`
copies one or more registries into a plain, picklable snapshot, and
:func:`render_exposition` writes a snapshot in the Prometheus text
exposition format (version 0.0.4), one :func:`render_family` per metric
name.  The worker's ``GET /metrics``, :meth:`MetricsRegistry.render` and
the fleet page of :mod:`repro.observability.aggregate` all go through
these two functions; the heartbeat carries the same snapshot.

Instrumentation is process-global by default (:func:`default_registry`)
and can be disabled wholesale with :func:`set_enabled` — the benchmark
``benchmarks/bench_observability.py`` uses that switch to price the
overhead of the instrumented hot paths.  Disabled metrics skip the
lock and the dict write; timers still measure (callers may rely on the
duration) but record nothing.
"""

from __future__ import annotations

import math
import re
import threading
import time
from typing import Iterable, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "default_registry",
    "set_enabled",
    "enabled",
    "set_worker_label",
    "worker_label",
    "snapshot_registry",
    "render_exposition",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets (seconds): sub-millisecond kernels through
#: multi-second retrains.  Upper bounds are inclusive, Prometheus-style.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_ENABLED = True


def set_enabled(flag: bool) -> bool:
    """Globally enable/disable metric recording; returns the old value."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    return previous


def enabled() -> bool:
    """Is metric recording currently enabled?"""
    return _ENABLED


_WORKER_LABEL: str | None = None


def set_worker_label(label: str | None) -> str | None:
    """Attribute every exposed series in this process to one worker.

    Supervised pool workers call this with their ``REPRO_WORKER_ID`` so
    even a direct scrape through the kernel-balanced shared socket is
    attributable to a slot.  The label is injected at *render* time (the
    ``worker`` argument of :func:`render_exposition`) — observation hot
    paths pay nothing — and metrics that already declare a ``worker``
    label are left untouched.  Single-process serving never sets it,
    keeping existing dashboards and tests label-free.

    Returns the previous value (``None`` when unset) for restore.
    """
    global _WORKER_LABEL
    previous = _WORKER_LABEL
    _WORKER_LABEL = None if label is None else str(label)
    return previous


def worker_label() -> str | None:
    """The process-wide worker attribution label (``None`` when unset)."""
    return _WORKER_LABEL


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(names: Sequence[str], values: Sequence[str | None]) -> str:
    """``{name="value",...}``; a ``None`` value leaves its label out."""
    pairs = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
        if value is not None
    )
    return "{" + pairs + "}" if pairs else ""


class _Metric:
    """Shared bookkeeping: name/help validation, label keying, locking."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        label_names = tuple(label_names)
        for label in label_names:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name {label!r} for metric {name!r}")
        if len(set(label_names)) != len(label_names):
            raise ValueError(f"duplicate label names {label_names} for metric {name!r}")
        self.name = name
        self.help = help
        self.label_names = label_names
        self._lock = threading.Lock()
        self._series: dict[tuple[str, ...], object] = {}

    def _key(self, labels: dict) -> tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def series(self) -> list[tuple[tuple[str, ...], object]]:
        """Stable snapshot of ``(label_values, state)`` pairs."""
        with self._lock:
            return sorted(self._series.items())

    def reset_values(self) -> None:
        """Zero every series in place; the metric stays registered.

        Cached handles remain valid — only the recorded values are
        dropped.  Forked pool workers reset the inherited process-global
        registry so a new incarnation reports only its own work (see
        :meth:`MetricsRegistry.reset`).
        """
        with self._lock:
            self._series.clear()
            self._seed()

    def _seed(self) -> None:
        """Re-create any series exposed before the first event."""


class Counter(_Metric):
    """Monotonically increasing total (optionally labelled)."""

    kind = "counter"

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()):
        super().__init__(name, help, label_names)
        self._seed()

    def _seed(self) -> None:
        if not self.label_names:
            self._series[()] = 0.0  # expose 0 before the first event

    def inc(self, amount: float = 1.0, **labels) -> None:
        if not _ENABLED:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._series.get(key, 0.0))


class Gauge(_Metric):
    """Last-written value; can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()):
        super().__init__(name, help, label_names)
        self._seed()

    def _seed(self) -> None:
        if not self.label_names:
            self._series[()] = 0.0

    def set(self, value: float, **labels) -> None:
        if not _ENABLED:
            return
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        if not _ENABLED:
            return
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._series.get(key, 0.0))


class _HistogramState:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.counts = [0] * (n_buckets + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0


class _Timer:
    """Context manager recording elapsed wall time into a histogram.

    Always measures (``self.seconds`` is valid either way); records only
    when instrumentation is enabled at *exit* time.
    """

    __slots__ = ("_histogram", "_labels", "_start", "seconds")

    def __init__(self, histogram: "Histogram", labels: dict):
        self._histogram = histogram
        self._labels = labels
        self.seconds = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._start
        self._histogram.observe(self.seconds, **self._labels)


class Histogram(_Metric):
    """Fixed-bucket distribution with cumulative Prometheus exposition."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str] = (),
        buckets: Iterable[float] | None = None,
    ):
        super().__init__(name, help, label_names)
        if "le" in self.label_names:
            raise ValueError("'le' is reserved for histogram buckets")
        if buckets is None:
            buckets = DEFAULT_BUCKETS
        edges = tuple(sorted(float(b) for b in buckets))
        if not edges:
            raise ValueError("histogram needs at least one bucket")
        if len(set(edges)) != len(edges):
            raise ValueError(f"duplicate bucket bounds {edges}")
        if any(not math.isfinite(b) for b in edges):
            raise ValueError("bucket bounds must be finite (+Inf is implicit)")
        self.buckets = edges
        self._seed()

    def _seed(self) -> None:
        if not self.label_names:
            self._series[()] = _HistogramState(len(self.buckets))

    def observe(self, value: float, **labels) -> None:
        if not _ENABLED:
            return
        value = float(value)
        key = self._key(labels)
        with self._lock:
            state = self._series.get(key)
            if state is None:
                state = self._series[key] = _HistogramState(len(self.buckets))
            index = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    index = i
                    break
            state.counts[index] += 1
            state.sum += value
            state.count += 1

    def time(self, **labels) -> _Timer:
        """``with histogram.time():`` — record the block's wall time."""
        return _Timer(self, labels)

    def snapshot(self, **labels) -> dict:
        """JSON-ready summary of one series: count, sum and mean."""
        key = self._key(labels)
        with self._lock:
            state = self._series.get(key)
            if state is None or state.count == 0:
                return {"count": 0, "sum": 0.0, "mean": None}
            total, acc = state.count, state.sum
        return {"count": total, "sum": acc, "mean": acc / total}


class MetricsRegistry:
    """A namespace of metrics with get-or-create handles and exposition."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    # -- get-or-create handles -------------------------------------------

    def counter(self, name: str, help: str, labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str, labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        buckets: Iterable[float] | None = None,
    ) -> Histogram:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is None:
                metric = Histogram(name, help, labels, buckets=buckets)
                self._metrics[name] = metric
                return metric
        self._check_compatible(existing, Histogram, name, labels)
        return existing

    def reset(self) -> None:
        """Zero every registered metric in place.

        Metric objects (and therefore every handle modules have cached)
        stay registered — only their recorded values are dropped.  A
        forked pool worker calls this on the inherited process-global
        registry before serving: whatever the parent recorded (warmup
        traffic, an earlier incarnation, a test harness) must not be
        re-reported by the new process, or fleet aggregation would count
        it once per worker.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset_values()

    def _get_or_create(self, cls, name: str, help: str, labels: Sequence[str]):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is None:
                metric = cls(name, help, labels)
                self._metrics[name] = metric
                return metric
        self._check_compatible(existing, cls, name, labels)
        return existing

    @staticmethod
    def _check_compatible(existing, cls, name: str, labels: Sequence[str]) -> None:
        if not isinstance(existing, cls):
            raise ValueError(
                f"metric {name!r} already registered as {existing.kind}, "
                f"requested {cls.kind}"
            )
        if existing.label_names != tuple(labels):
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{existing.label_names}, requested {tuple(labels)}"
            )

    # -- inspection / exposition -----------------------------------------

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def collect(self) -> list[_Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def render(self) -> str:
        """Prometheus text exposition (version 0.0.4) of every metric."""
        return render_exposition(snapshot_registry(self), worker_label())


_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-global registry used by module-level instrumentation."""
    return _DEFAULT_REGISTRY


def snapshot_registry(*registries: MetricsRegistry) -> dict:
    """Compact, picklable snapshot of every series in ``registries``.

    The first registry that declares a metric name wins it, whatever the
    kind: a page carries each family once, and a service's own series
    are the authoritative ones.  Shape (plain Python scalars, lists and
    tuples)::

        {
          "counters":   {name: {"help": ..., "labels": (...),
                                "series": {key_tuple: value}}},
          "gauges":     {... same ...},
          "histograms": {name: {"help": ..., "labels": (...),
                                "buckets": (...),
                                "series": {key_tuple: (counts, sum, count)}}},
        }

    Series appear in label-value order, which is the order
    :func:`render_exposition` writes them in.
    """
    snap: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    taken: set[str] = set()
    for registry in registries:
        for metric in registry.collect():
            if metric.name in taken:
                continue
            taken.add(metric.name)
            entry: dict = {"help": metric.help, "labels": metric.label_names}
            if isinstance(metric, Histogram):
                entry["buckets"] = metric.buckets
                entry["series"] = {
                    key: (list(state.counts), state.sum, state.count)
                    for key, state in metric.series()
                }
            else:
                entry["series"] = {key: float(value) for key, value in metric.series()}
            snap[metric.kind + "s"][metric.name] = entry
    return snap


def render_family(name: str, kind: str, entry: dict, worker: str | None = None) -> list[str]:
    """HELP, TYPE and sample lines of one snapshot entry.

    ``worker`` labels every series unless the family declares a
    ``worker`` label of its own.  Histogram series are written as
    cumulative ``_bucket`` lines, then ``_sum`` and ``_count``.
    """
    names = tuple(entry["labels"])
    prefix: tuple = ()
    if worker is not None and "worker" not in names:
        names, prefix = ("worker",) + names, (worker,)
    lines = [f"# HELP {name} {_escape_help(entry['help'])}", f"# TYPE {name} {kind}"]
    if kind != "histogram":
        for key, value in entry["series"].items():
            labels = _format_labels(names, prefix + tuple(key))
            lines.append(f"{name}{labels} {_format_value(float(value))}")
        return lines
    bounds = [_format_value(bound) for bound in entry["buckets"]]
    for key, (counts, acc, total) in entry["series"].items():
        key = prefix + tuple(key)
        cumulative = 0
        for bound, count in zip(bounds, counts):
            cumulative += count
            lines.append(
                f"{name}_bucket{_format_labels(names + ('le',), key + (bound,))} {cumulative}"
            )
        lines.append(f"{name}_bucket{_format_labels(names + ('le',), key + ('+Inf',))} {total}")
        plain = _format_labels(names, key)
        lines.append(f"{name}_sum{plain} {_format_value(acc)}")
        lines.append(f"{name}_count{plain} {total}")
    return lines


def render_exposition(snapshot: dict, worker: str | None = None) -> str:
    """Prometheus text exposition (version 0.0.4) of a snapshot.

    Families are written in name order; ``worker`` is the value
    :func:`set_worker_label` holds (see :func:`render_family`).
    """
    kinds = (("counters", "counter"), ("gauges", "gauge"), ("histograms", "histogram"))
    families = sorted(
        (name, kind, entry)
        for plural, kind in kinds
        for name, entry in snapshot[plural].items()
    )
    lines = [
        line
        for name, kind, entry in families
        for line in render_family(name, kind, entry, worker)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
