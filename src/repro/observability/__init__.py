"""Observability: metrics, tracing spans, and structured logs.

The serving stack (PR 1's robustness layer, PR 2's batch kernels) kept
its health visible only through ``/status`` snapshots and ad-hoc
timers.  This package makes the whole train→serve pipeline measurable
continuously — the operational requirement behind every query-driven
estimator's feedback loop:

* :mod:`~repro.observability.metrics` — thread-safe counters, gauges and
  fixed-bucket histograms in a :class:`MetricsRegistry`;
  :func:`snapshot_registry` copies registries into one snapshot and
  :func:`render_exposition` writes any snapshot in the Prometheus text
  exposition format.  ``GET /metrics``, the heartbeat and the fleet page
  all use this one snapshot format and this one renderer.
* :mod:`~repro.observability.aggregate` — the supervisor's
  :class:`FleetAggregator`, which merges worker snapshots.
* :mod:`~repro.observability.tracing` — nestable wall-time spans
  (``with span("fit/solve"):``) forming per-operation trees, bridged
  into the ``repro_span_seconds`` histogram and (optionally) emitted as
  structured JSON log lines.
* :mod:`~repro.observability.logs` — the structured logger behind
  ``repro serve --log-json`` and the opt-in HTTP access log.

Layering: this package sits at the very bottom of ``repro`` (stdlib
only) so every other layer — geometry kernels, solvers, estimators,
the service — can instrument itself without import cycles.  All
instrumentation routes through :func:`default_registry` and can be
switched off globally with :func:`set_enabled`; the committed
``benchmarks/results/BENCH_observability.json`` pins the enabled-mode
overhead of the hot ``predict_many`` path below 5%.

See ``docs/observability.md`` for the metric catalogue and the span
naming convention.
"""

from repro.observability.aggregate import FleetAggregator, merge_snapshots
from repro.observability.expolint import lint_exposition, parse_exposition
from repro.observability.logs import (
    JsonFormatter,
    KeyValueFormatter,
    bind_request_id,
    configure_logging,
    current_request_id,
    get_logger,
    log_event,
    reset_logging,
)
from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    enabled,
    render_exposition,
    set_enabled,
    set_worker_label,
    snapshot_registry,
    worker_label,
)
from repro.observability.tracing import (
    Span,
    add_span_observer,
    current_span,
    last_trace,
    remove_span_observer,
    set_trace_logging,
    span,
    trace_logging_enabled,
)

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
    "FleetAggregator",
    "snapshot_registry",
    "render_exposition",
    "merge_snapshots",
    "lint_exposition",
    "parse_exposition",
    "bind_request_id",
    "current_request_id",
    "Span",
    "span",
    "current_span",
    "last_trace",
    "add_span_observer",
    "remove_span_observer",
    "set_trace_logging",
    "trace_logging_enabled",
    "JsonFormatter",
    "KeyValueFormatter",
    "configure_logging",
    "reset_logging",
    "get_logger",
    "log_event",
]
