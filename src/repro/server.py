"""A fault-tolerant selectivity-estimation service (stdlib HTTP only).

The deployment shape for a query-driven estimator: a database's optimizer
asks a sidecar service for estimates, and streams back true selectivities
observed during execution as feedback.  The service accumulates feedback,
retrains on demand (or automatically every ``retrain_every`` feedbacks),
and tracks workload drift with :class:`repro.eval.drift.DriftDetector`.

Because the feedback loop runs unattended, every failure mode degrades
instead of crashing (see ``docs/robustness.md``):

* **Last-good-model serving** — a failed retrain never touches the
  currently served model; each successful retrain atomically installs a
  new *generation*.
* **Circuit breaker** — after ``breaker_threshold`` consecutive retrain
  failures the breaker opens and retraining is suspended for
  ``breaker_cooldown`` seconds, then probed half-open.  Estimates keep
  flowing from the last good generation throughout.
* **Input sanitization** — feedback is screened under a configurable
  policy (``raise`` / ``drop`` / ``clamp``); quarantine counts are
  surfaced, not swallowed.
* **Bounded feedback buffer** — a recency ring plus reservoir-sampled
  history (:class:`repro.robustness.FeedbackBuffer`), so memory is
  bounded over month-long runs.

And because it runs unattended, it is also *instrumented* end to end
(see ``docs/observability.md``): every API call and HTTP request feeds
counters and latency histograms in a
:class:`~repro.observability.MetricsRegistry`, retrains run under
tracing spans, and the registry is exported in Prometheus text format.

The service also has a durable *lifecycle* when constructed with
``snapshot_dir=...``: every successful retrain persists the new
generation as a versioned artifact (atomic tmp+rename, see
:mod:`repro.persistence`), startup restores the last-good generation
instead of cold-fitting, and ``snapshot()`` / ``restore()`` expose the
same operations on demand.  See ``docs/persistence.md``.

Retrains, incremental updates and restores all install their model
through one method, so every new generation resets the same state;
feedback that arrives while a generation builds stays pending.

Endpoints (JSON in/out; ranges use the tagged encoding of
:mod:`repro.data.io`).  The API lives under ``/v1/``; any other path
answers 404:

* ``POST /v1/estimate``  ``{"query": {...}}`` → ``{"selectivity": 0.42}``
* ``POST /v1/predict``   ``{"queries": [{...}, ...]}`` →
  ``{"selectivities": [0.42, ...], "count": 2}`` — the batch path: one
  vectorised ``predict_many`` call for all cache misses, results cached
  in a generation-keyed LRU so repeated optimizer probes are free.
* ``POST /v1/feedback``  ``{"query": {...}, "selectivity": 0.37}`` →
  ``{"accepted": true, "pending": 12, "drift": false}``
* ``POST /v1/retrain``   → ``{"trained_on": 200, "model_size": 800, ...}``
* ``POST /v1/update``    → ``{"incremental": true, "rows_appended": 25,
  ...}`` — the incremental fast path: absorb only the pending feedback
  via ``partial_fit`` (warm-started solve, appended design rows), with a
  full retrain as automatic fallback (see ``docs/online_learning.md``).
* ``POST /v1/snapshot``  → ``{"path": ..., "generation": 3, ...}`` —
  persist the serving generation to the snapshot directory now.
* ``POST /v1/restore``   ``{"path": optional}`` → install a persisted
  artifact as a new serving generation (latest snapshot by default).
* ``GET  /v1/status``    → model / generation / breaker / snapshot summary
* ``GET  /health``       → liveness + degradation probe, always HTTP 200
  while the process is up; the body distinguishes ``{"status": "ok"}``
  from ``{"status": "degraded", "reasons": [...]}`` (open retrain
  breaker, serving generation stale behind the shared snapshot store) so
  load balancers and the :mod:`repro.serving` supervisor can tell
  alive-but-unhealthy from healthy.  Unversioned on purpose (probes
  should not chase API versions).
* ``GET  /metrics``      → Prometheus text exposition of every metric
  (service, HTTP, solver-ladder and kernel layers); unversioned, as
  scrape configs expect.

Errors come back as structured JSON bodies ``{"error": ..., "type": ...}``
with the status from the :mod:`repro.robustness.errors` taxonomy — never
a traceback page or a hung connection.

Programmatic use goes through :class:`EstimatorService` directly; the HTTP
layer (:func:`serve`) is a thin adapter over it: one route table maps
each ``(method, path)`` to its handler and says whether admission
control applies.  Access logging is
opt-in (``serve(..., access_log=True)``) and routes through the
structured logger (``repro.http.access``) instead of the stdlib's bare
stderr lines, so ``repro serve --log-json`` yields one JSON object per
request.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import json
import logging
import socket
import struct
import threading
import time
import uuid
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from repro.core.estimator import SelectivityEstimator
from repro.data.io import range_from_dict
from repro.eval.drift import DriftDetector
from repro.geometry.ranges import Ball, Box, DiscIntersectionRange, Halfspace, Range
from repro.observability import (
    MetricsRegistry,
    bind_request_id,
    default_registry,
    get_logger,
    log_event,
    render_exposition,
    snapshot_registry,
    worker_label,
)
from repro.observability.tracing import span
from repro.persistence.artifact import load_manifest, load_model
from repro.persistence.snapshots import SnapshotStore
from repro.robustness import CircuitBreaker, FeedbackBuffer
from repro.robustness.chaos import active as _active_chaos
from repro.robustness.deadline import Deadline
from repro.robustness.errors import (
    ContentTooLargeError,
    DataValidationError,
    ModelUnavailableError,
    PersistenceError,
    ReproError,
    RequestTimeoutError,
    SolverConvergenceError,
    TrainingTimeoutError,
)
from repro.robustness.sanitize import (
    SANITIZE_POLICIES,
    SanitizationReport,
    sanitize_training_data,
)

__all__ = [
    "EstimatorService",
    "make_server",
    "serve",
    "DEADLINE_HEADER",
    "REQUEST_ID_HEADER",
]

_BREAKER_CODES = {"closed": 0.0, "half_open": 1.0, "open": 2.0}
# Cache-key packing of a range's scalar parameters.
_DOUBLE = struct.Struct("d")
_DOUBLES = struct.Struct("2d")


class _ServiceMetrics:
    """Get-or-create handles for every service-layer metric.

    Bound to one registry; two services sharing a registry share series
    (Prometheus-style process totals).  Names and meanings are catalogued
    in ``docs/observability.md``.
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        counter, gauge, histogram = registry.counter, registry.gauge, registry.histogram
        self.requests = counter(
            "repro_service_requests_total",
            "Service API calls by method",
            labels=("method",),
        )
        self.errors = counter(
            "repro_service_errors_total",
            "Service API calls that raised, by method and error type",
            labels=("method", "type"),
        )
        self.request_seconds = histogram(
            "repro_service_request_seconds",
            "Service API call latency in seconds",
            labels=("method",),
        )
        self.queries = counter(
            "repro_service_queries_total",
            "Individual queries received via estimate_many",
        )
        self.cache_hits = counter(
            "repro_prediction_cache_hits_total",
            "Prediction-cache hits on the batch estimation path",
        )
        self.cache_misses = counter(
            "repro_prediction_cache_misses_total",
            "Prediction-cache misses on the batch estimation path",
        )
        self.feedback_accepted = counter(
            "repro_feedback_accepted_total",
            "Feedback pairs accepted into the buffer",
        )
        self.feedback_quarantined = counter(
            "repro_feedback_quarantined_total",
            "Feedback pairs rejected/quarantined by sanitization",
        )
        self.retrain = counter(
            "repro_retrain_total",
            "Completed retrain attempts by outcome",
            labels=("outcome",),
        )
        self.retrain_seconds = histogram(
            "repro_retrain_seconds",
            "Wall time of successful retrains in seconds",
        )
        self.update = counter(
            "repro_update_total",
            "Incremental update attempts by outcome",
            labels=("outcome",),
        )
        self.update_seconds = histogram(
            "repro_update_seconds",
            "Wall time of successful incremental updates in seconds",
        )
        self.update_rows = counter(
            "repro_update_rows_appended_total",
            "Design-matrix rows appended by incremental updates",
        )
        self.update_splits = counter(
            "repro_update_leaves_split_total",
            "Partition leaves/buckets added by incremental updates",
        )
        self.update_fallback = counter(
            "repro_update_fallback_total",
            "Incremental updates that fell back to a full retrain, by reason",
            labels=("reason",),
        )
        self.generation = gauge(
            "repro_model_generation", "Currently served model generation"
        )
        self.model_size = gauge(
            "repro_model_size", "Buckets/components of the serving model"
        )
        self.pending = gauge(
            "repro_feedback_pending", "Feedback accepted since the last retrain"
        )
        self.drift_alarm = gauge(
            "repro_drift_alarm", "1 while the workload-drift alarm is latched"
        )
        self.drift_statistic = gauge(
            "repro_drift_statistic", "Current CUSUM drift statistic"
        )
        self.breaker_state = gauge(
            "repro_breaker_state",
            "Circuit-breaker state (0 closed, 1 half-open, 2 open)",
        )
        self.snapshots = counter(
            "repro_snapshot_total",
            "Snapshot persist attempts by outcome",
            labels=("outcome",),
        )
        self.snapshot_generation = gauge(
            "repro_snapshot_generation",
            "Generation of the newest persisted snapshot (0 = none)",
        )
        self.snapshot_timestamp = gauge(
            "repro_snapshot_timestamp_seconds",
            "Unix time the newest snapshot was written (0 = none)",
        )
        self.snapshot_age = gauge(
            "repro_snapshot_age_seconds",
            "Seconds since the newest snapshot was written (0 = none)",
        )


def _metered(method: str):
    """Count, time and error-count calls under ``method`` in the
    ``repro_service_*`` families."""

    def decorate(fn):
        @functools.wraps(fn)
        def metered(self, *args, **kwargs):
            metrics = self._metrics
            metrics.requests.inc(method=method)
            try:
                with metrics.request_seconds.time(method=method):
                    return fn(self, *args, **kwargs)
            except Exception as exc:
                metrics.errors.inc(method=method, type=type(exc).__name__)
                raise

        return metered

    return decorate


def _update_obstacle(model, pending: int, batch) -> str | None:
    """Why an update must fall back to a full retrain, or None.

    Raises :class:`ModelUnavailableError` when there is nothing to absorb.
    """
    if model is None:
        return "no_model"
    if not hasattr(model, "partial_fit"):
        return "unsupported"
    if pending == 0:
        raise ModelUnavailableError("no pending feedback to absorb")
    if batch is None:
        # The batch aged out of the recency ring into the downsampled
        # reservoir; the exact delta is gone, so refit on the union.
        return "batch_evicted"
    return None


class EstimatorService:
    """Thread-safe wrapper: estimate / collect feedback / retrain / drift.

    Parameters
    ----------
    estimator_factory:
        Zero-argument callable returning a fresh estimator; called on
        every (re)train so state never leaks between generations.
    retrain_every:
        Automatically retrain after this many new feedbacks (None = only
        on explicit ``retrain()``).  Auto-retrain failures are absorbed
        by the circuit breaker; they never propagate to ``feedback()``.
    min_feedback:
        Minimum accumulated feedback before the first training.
    drift_holdout:
        Fraction of feedback (most recent) held out to baseline the drift
        detector after each retrain.
    sanitize_policy:
        ``"raise"`` (default, strict — invalid feedback raises
        :class:`DataValidationError`), ``"drop"`` (quarantine and keep
        serving) or ``"clamp"`` (repair what is repairable, quarantine
        the rest).
    feedback_capacity:
        Bound on retained feedback pairs (None = unbounded).  See
        :class:`repro.robustness.FeedbackBuffer`.
    breaker_threshold / breaker_cooldown:
        Consecutive retrain failures that open the circuit breaker, and
        the open-state cooldown in seconds before a half-open probe.
    retrain_timeout:
        Wall-clock budget for one retrain in seconds (None = unlimited);
        exceeding it counts as a retrain failure
        (:class:`TrainingTimeoutError`).
    incremental_updates:
        When True, the automatic (re)train triggered by ``retrain_every``
        prefers the :meth:`update` fast path — absorbing only the
        pending feedback into a copy of the serving model via
        ``partial_fit`` instead of refitting on the whole history — with
        a full retrain as the fallback whenever the model cannot update
        incrementally.
    update_residual_budget:
        Residual ceiling for accepting an incremental update: when the
        warm solve's residual exceeds it, :meth:`update` falls back to a
        full retrain (guarding against slow quality drift across many
        delta refinements).  ``None`` accepts any residual.
    prediction_cache_size:
        Capacity of the generation-keyed LRU cache fronting the batch
        prediction path (0 disables caching).  Entries are keyed by
        (model generation, canonical query JSON), so a retrain implicitly
        invalidates everything — the cache is also cleared eagerly on each
        successful retrain to free memory.
    snapshot_dir:
        Directory of persisted model generations (None = no persistence).
        When set: every successful retrain writes its generation as an
        artifact (atomically; a persist failure never fails the retrain),
        and construction *restores the newest readable generation* instead
        of starting cold — a restarted service serves immediately, without
        refitting.  ``snapshot()``/``restore()`` give explicit control.
    snapshot_keep:
        Generations retained in ``snapshot_dir`` (older artifacts are
        pruned after each save; None keeps all).
    health_stale_after:
        ``/health`` reports ``degraded`` when the shared snapshot store
        holds a generation at least this many ahead of the one this
        service serves (a worker that missed rolling reloads).  ``None``
        disables the staleness check.
    registry:
        :class:`~repro.observability.MetricsRegistry` receiving this
        service's metrics (default: the process-global registry, so
        ``GET /metrics`` also exposes the solver and kernel layers).
        Pass a fresh registry for isolated counters in tests.
    """

    def __init__(
        self,
        estimator_factory,
        retrain_every: int | None = None,
        min_feedback: int = 20,
        drift_holdout: float = 0.25,
        sanitize_policy: str = "raise",
        feedback_capacity: int | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        retrain_timeout: float | None = None,
        incremental_updates: bool = False,
        update_residual_budget: float | None = None,
        prediction_cache_size: int = 4096,
        snapshot_dir: str | None = None,
        snapshot_keep: int | None = 5,
        health_stale_after: int | None = 2,
        seed: int = 0,
        registry: MetricsRegistry | None = None,
        _clock=time.monotonic,
    ):
        if retrain_every is not None and retrain_every < 1:
            raise ValueError(f"retrain_every must be >= 1, got {retrain_every}")
        if min_feedback < 2:
            raise ValueError(f"min_feedback must be >= 2, got {min_feedback}")
        if not 0.0 < drift_holdout < 1.0:
            raise ValueError(f"drift_holdout must be in (0, 1), got {drift_holdout}")
        if sanitize_policy not in SANITIZE_POLICIES:
            raise ValueError(
                f"sanitize_policy must be one of {SANITIZE_POLICIES}, got {sanitize_policy!r}"
            )
        if retrain_timeout is not None and retrain_timeout <= 0:
            raise ValueError(f"retrain_timeout must be positive, got {retrain_timeout}")
        if update_residual_budget is not None and update_residual_budget <= 0:
            raise ValueError(
                f"update_residual_budget must be positive, got {update_residual_budget}"
            )
        if prediction_cache_size < 0:
            raise ValueError(
                f"prediction_cache_size must be >= 0, got {prediction_cache_size}"
            )
        if health_stale_after is not None and health_stale_after < 1:
            raise ValueError(
                f"health_stale_after must be >= 1 or None, got {health_stale_after}"
            )
        self._factory = estimator_factory
        self.retrain_every = retrain_every
        self.min_feedback = int(min_feedback)
        self.drift_holdout = float(drift_holdout)
        self.sanitize_policy = sanitize_policy
        self.retrain_timeout = retrain_timeout
        self.incremental_updates = bool(incremental_updates)
        self.update_residual_budget = update_residual_budget
        self.registry = registry if registry is not None else default_registry()
        self._metrics = _ServiceMetrics(self.registry)
        self._lock = threading.Lock()
        self._retrain_lock = threading.Lock()
        self._buffer = FeedbackBuffer(capacity=feedback_capacity, seed=seed)
        self._breaker = CircuitBreaker(
            failure_threshold=breaker_threshold,
            cooldown_seconds=breaker_cooldown,
            clock=_clock,
        )
        self._model: SelectivityEstimator | None = None
        self._generation = 0
        self._since_train = 0
        self._trained_on = 0
        self._detector: DriftDetector | None = None
        self._drift_flag = False
        self._quarantine = SanitizationReport(policy=sanitize_policy)
        self._last_error: str | None = None
        self._last_retrain_seconds: float | None = None
        self._last_update: dict | None = None
        self._cache_capacity = int(prediction_cache_size)
        self._prediction_cache: OrderedDict[tuple[int, str, bytes], float] = OrderedDict()
        self._cache_hits = 0
        self._cache_misses = 0
        self._snapshots = (
            SnapshotStore(snapshot_dir, keep=snapshot_keep)
            if snapshot_dir is not None
            else None
        )
        self._trained_pairs: tuple[list, list] | None = None
        self._restored_from: str | None = None
        self._snapshot_info: dict | None = None
        self.health_stale_after = health_stale_after
        #: Store generation (gen-%08d number) backing the serving model;
        #: 0 until a snapshot is written or restored.  Compared against
        #: the store's newest generation for /health staleness.
        self._store_generation = 0
        if self._snapshots is not None:
            self._restore_on_startup()

    # -- programmatic API ------------------------------------------------

    @_metered("estimate_many")
    def estimate_many(self, queries) -> list[float]:
        """Batch estimates from the last good generation, LRU-cached.

        Raises :class:`ModelUnavailableError` only before the *first*
        successful training — once a generation exists, estimates keep
        flowing regardless of later retrain failures.

        Cache lookups happen under the state lock; the vectorised
        ``predict_many`` call for the misses runs *outside* it (fitted
        models are immutable — retrains swap in a whole new object), so a
        large batch never blocks feedback ingestion or retraining.
        """
        queries = list(queries)
        hits = misses = 0
        with self._lock:
            if self._model is None:
                raise ModelUnavailableError(
                    f"no model yet: need >= {self.min_feedback} feedbacks, "
                    f"have {len(self._buffer)}"
                )
            model = self._model
            generation = self._generation
            keys = [self._cache_key(generation, q) for q in queries]
            results: list[float | None] = [None] * len(queries)
            miss_idx: list[int] = []
            for i, key in enumerate(keys):
                cached = self._prediction_cache.get(key) if key is not None else None
                if cached is not None:
                    self._prediction_cache.move_to_end(key)
                    self._cache_hits += 1
                    hits += 1
                    results[i] = cached
                else:
                    self._cache_misses += 1
                    misses += 1
                    miss_idx.append(i)
            # All three counters move in the same lock hold so a
            # metrics_snapshot() (heartbeat piggyback) can never observe
            # queries without their hit/miss classification — the fleet
            # identity `hits + misses == queries` stays exact even when
            # a snapshot lands mid-request.
            self._metrics.queries.inc(len(queries))
            if hits:
                self._metrics.cache_hits.inc(hits)
            if misses:
                self._metrics.cache_misses.inc(misses)
        if miss_idx:
            predicted = model.predict_many([queries[i] for i in miss_idx])
            with self._lock:
                for i, value in zip(miss_idx, predicted):
                    results[i] = float(value)
                    key = keys[i]
                    if key is not None and self._cache_capacity > 0:
                        self._prediction_cache[key] = float(value)
                        self._prediction_cache.move_to_end(key)
                        while len(self._prediction_cache) > self._cache_capacity:
                            self._prediction_cache.popitem(last=False)
        return results

    @staticmethod
    def _cache_key(generation: int, query) -> tuple[int, str, bytes] | None:
        """``(generation, family, bytes of the float parameters)``; None
        (uncached) for a range :func:`range_to_dict` cannot encode.

        Finite floats print the same JSON exactly when their bits are equal
        (``-0.0`` and ``0.0`` differ in both), and a family's parameter
        count fixes how the bytes split, so two queries share a key exactly
        when their sorted ``range_to_dict`` JSON is equal.
        """
        if isinstance(query, Box):
            return generation, "box", query.lows.tobytes() + query.highs.tobytes()
        if isinstance(query, Halfspace):
            return generation, "halfspace", query.normal.tobytes() + _DOUBLE.pack(query.offset)
        if isinstance(query, Ball):
            return generation, "ball", query.ball_center.tobytes() + _DOUBLE.pack(query.radius)
        if isinstance(query, DiscIntersectionRange):
            scalars = _DOUBLES.pack(query.query_radius, query.max_data_radius)
            return generation, "disc-intersection", query.query_center.tobytes() + scalars
        return None

    def feedback(self, query, selectivity: float) -> dict:
        """Record one observed (query, true selectivity) pair.

        Under the ``drop``/``clamp`` policies an invalid pair is
        quarantined (``accepted: False``) instead of raising.  A query the
        served model cannot evaluate is invalid: it would fail every
        later retrain.

        The response is a snapshot taken in the *same* locked section as
        the buffer append, so concurrent feedback threads each see their
        own consistent ``pending``/``drift`` state — never another
        thread's post-retrain reset.
        """
        response, auto, drift_statistic = self._ingest_feedback(query, selectivity)
        metrics = self._metrics
        if response["accepted"]:
            metrics.feedback_accepted.inc()
        else:
            metrics.feedback_quarantined.inc()
        metrics.pending.set(response["pending"])
        metrics.drift_alarm.set(1.0 if response["drift"] else 0.0)
        metrics.drift_statistic.set(drift_statistic)
        if auto:
            self._auto_retrain()
        return response

    @_metered("feedback")
    def _ingest_feedback(self, query, selectivity: float):
        """Screen, append and snapshot the response under one lock hold."""
        accepted, query, selectivity = self._screen_pair(query, selectivity)
        with self._lock:
            if accepted:
                accepted, estimate = self._evaluate_feedback(query)
            if accepted:
                if estimate is not None and self._detector is not None:
                    if self._detector.update(estimate, selectivity):
                        self._drift_flag = True
                self._buffer.append(query, selectivity)
                self._since_train += 1
            auto = (
                accepted
                and self.retrain_every is not None
                and self._since_train >= self.retrain_every
                and len(self._buffer) >= self.min_feedback
            )
            response = {
                "accepted": accepted,
                "pending": self._since_train,
                "drift": self._drift_flag,
                "quarantined_total": self._quarantine.quarantined,
            }
            drift_statistic = self._detector.statistic if self._detector else 0.0
        return response, auto, drift_statistic

    @_metered("retrain")
    def retrain(self) -> dict:
        """Fit a fresh model generation on the buffered feedback.

        Atomic with respect to serving: the new model and drift baseline
        are built completely off to the side and swapped in under the
        lock only on success.  A failure leaves the previous generation
        serving, records a breaker failure, and re-raises.

        Raises
        ------
        ModelUnavailableError
            Not enough feedback, or the circuit breaker is open.
        """
        return self._advance(incremental=False)

    @_metered("update")
    def update(self) -> dict:
        """Absorb the pending feedback into the serving model incrementally.

        The fast path next to :meth:`retrain`: instead of refitting a
        fresh generation on the whole buffered history, the pending
        feedback batch refines a *copy* of the serving model via its
        ``partial_fit`` — appending design-matrix rows, splitting only
        the implicated partition leaves, and warm-starting the solver
        from the previous weights — and the copy is swapped in atomically
        as a new generation (the prediction cache invalidates with it).

        Falls back to a full retrain — counted per reason in
        ``repro_update_fallback_total`` — whenever the incremental path
        is unavailable or unacceptable: no generation yet, the estimator
        has no ``partial_fit``, fit-time state is missing (a model
        restored from a snapshot), the pending batch aged out of the
        feedback ring, the update itself failed, or the solve residual
        exceeded ``update_residual_budget``.
        """
        return self._advance(incremental=True)

    def _advance(self, incremental: bool) -> dict:
        """The body of :meth:`retrain` and :meth:`update`.

        Snapshot, build, install and persist all hold ``_retrain_lock``:
        an advance started during another sees that one's generation and
        pending count, so every pending row is absorbed exactly once.
        """
        with self._retrain_lock:
            with self._lock:
                model, generation = self._model, self._generation
                pending, trained_on = self._since_train, self._trained_on
                queries, labels = self._buffer.snapshot()
                if len(queries) < self.min_feedback:
                    raise ModelUnavailableError(
                        f"need >= {self.min_feedback} feedbacks to train, "
                        f"have {len(queries)}"
                    )
                if incremental:
                    batch = self._buffer.recent(pending)
                    reason = _update_obstacle(model, pending, batch)
                if not self._breaker.allow():
                    self._metrics.breaker_state.set(_BREAKER_CODES[self._breaker.state])
                    raise ModelUnavailableError(
                        f"{'updating' if incremental else 'retraining'} suspended: "
                        f"circuit breaker open after "
                        f"{self._breaker.consecutive_failures} consecutive failures "
                        f"(retry in {self._breaker.cooldown_remaining():.1f}s)"
                    )
            training = (queries, labels)
            if not incremental:
                return self._build_full(training, pending)
            if reason is None:
                outcome = self._build_incremental(
                    model, generation, trained_on, batch, training
                )
                if isinstance(outcome, dict):
                    return outcome
                reason = outcome
            self._metrics.update_fallback.inc(reason=reason)
            self._metrics.update.inc(outcome="fallback")
            log_event(get_logger("service"), "update_fell_back", reason=reason)
            result = self._build_full(training, pending)
            result["incremental"] = False
            result["fallback"] = reason
            with self._lock:
                self._last_update = dict(result)
            return result

    def _build_full(self, training, pending: int) -> dict:
        """Fit a fresh model on ``training`` and install it.

        The newest ``drift_holdout`` share of the pairs stays out of the
        fit and baselines the new generation's drift detector.
        """
        metrics = self._metrics
        queries, labels = training
        holdout = max(2, int(len(queries) * self.drift_holdout))
        train_q, hold_q = queries[:-holdout] or queries, queries[-holdout:]
        train_s = labels[:-holdout] if len(queries) > holdout else labels
        trained_on = len(train_q)
        start = time.monotonic()
        try:
            with span("service/retrain", feedback=len(queries)) as retrain_span:
                monkey = _active_chaos()
                if monkey is not None:
                    monkey.delay_fit()
                    if monkey.should_fail_fit():
                        raise SolverConvergenceError("chaos: injected retrain failure")
                model = self._factory()
                policy = None if self.sanitize_policy == "raise" else self.sanitize_policy
                model.fit(train_q, train_s, policy=policy)
                elapsed = time.monotonic() - start
                if self.retrain_timeout is not None and elapsed > self.retrain_timeout:
                    raise TrainingTimeoutError(
                        f"retrain took {elapsed:.2f}s, budget {self.retrain_timeout:.2f}s"
                    )
                baseline = (model.predict_many(hold_q) - labels[-holdout:]) ** 2
                retrain_span.annotate(trained_on=trained_on, model_size=model.model_size)
        except Exception as exc:
            with self._lock:
                self._breaker.record_failure()
                self._last_error = f"{type(exc).__name__}: {exc}"
                metrics.breaker_state.set(_BREAKER_CODES[self._breaker.state])
            metrics.retrain.inc(outcome="failure")
            log_event(
                get_logger("service"),
                "retrain_failed",
                level=logging.WARNING,
                error=f"{type(exc).__name__}: {exc}",
            )
            raise
        quarantined = (
            model.sanitization_.quarantined if model.sanitization_ is not None else 0
        )
        generation = self._install(
            model,
            trained_on=trained_on,
            absorbed=pending,
            detector=DriftDetector(baseline) if baseline.size >= 2 else None,
            training=training,
        )
        with self._lock:
            self._last_retrain_seconds = elapsed
        metrics.retrain.inc(outcome="success")
        metrics.retrain_seconds.observe(elapsed)
        log_event(
            get_logger("service"),
            "retrain_succeeded",
            generation=generation,
            trained_on=trained_on,
            model_size=model.model_size,
            seconds=round(elapsed, 4),
        )
        self._persist_generation(
            model, generation, training, {"retrain_seconds": elapsed}
        )
        return {
            "trained_on": trained_on,
            "model_size": model.model_size,
            "generation": generation,
            "quarantined": quarantined,
            "seconds": round(elapsed, 4),
        }

    def _build_incremental(self, model, base_generation, trained_on, batch, training):
        """Refine a copy of ``model`` with ``batch`` and install it.

        Returns the new generation's result, or the reason to fall back
        to a full retrain.
        """
        metrics = self._metrics
        new_queries, new_labels = batch
        rows = len(new_queries)
        start = time.monotonic()
        try:
            with span("service/update", feedback=rows) as update_span:
                working = copy.deepcopy(model)
                working.partial_fit(new_queries, new_labels, warm_start=True)
                update_span.annotate(rows_appended=rows, model_size=working.model_size)
        except RuntimeError:
            # partial_fit without fit-time state (e.g. the serving
            # model was restored from a snapshot artifact).
            return "no_fit_state"
        except Exception as exc:
            with self._lock:
                self._last_error = f"{type(exc).__name__}: {exc}"
            log_event(
                get_logger("service"),
                "update_failed",
                level=logging.WARNING,
                error=f"{type(exc).__name__}: {exc}",
            )
            return "error"
        elapsed = time.monotonic() - start
        report = getattr(working, "update_report_", None)
        if (
            self.update_residual_budget is not None
            and report is not None
            and report.residual > self.update_residual_budget
        ):
            return "residual_budget"
        trained_on = report.rows_total if report is not None else trained_on + rows
        baseline = (working.predict_many(new_queries) - new_labels) ** 2
        generation = self._install(
            working,
            trained_on=trained_on,
            absorbed=rows,
            detector=DriftDetector(baseline) if baseline.size >= 2 else None,
            training=training,
        )
        result = {
            "incremental": True,
            "generation": generation,
            "base_generation": base_generation,
            "rows_appended": rows,
            "trained_on": trained_on,
            "model_size": working.model_size,
            "seconds": round(elapsed, 4),
            "update": report.to_dict() if report is not None else None,
        }
        with self._lock:
            self._last_update = dict(result)
        metrics.update.inc(outcome="success")
        metrics.update_seconds.observe(elapsed)
        metrics.update_rows.inc(rows)
        if report is not None and report.leaves_split > 0:
            metrics.update_splits.inc(report.leaves_split)
        log_event(
            get_logger("service"),
            "update_succeeded",
            generation=generation,
            rows_appended=rows,
            model_size=working.model_size,
            seconds=round(elapsed, 4),
        )
        self._persist_generation(
            working,
            generation,
            training,
            {
                "incremental": True,
                "base_generation": base_generation,
                "rows_appended": rows,
                "update_seconds": elapsed,
            },
        )
        return result

    def _install(
        self,
        model,
        *,
        trained_on: int,
        absorbed: int = 0,
        detector: DriftDetector | None = None,
        training: tuple[list, np.ndarray] | None = None,
        source: str | None = None,
        store_generation: int = 0,
        generation: int | None = None,
    ) -> int:
        """Serve ``model`` as the next generation; returns its number.

        Every generation arrives here, so all reset the same state.  The
        pending count drops by the ``absorbed`` rows the model was built
        from; rows that raced in stay pending.  A model trained here
        (``source`` None) closes the breaker; a restored one records its
        artifact.  ``generation`` overrides the next number.
        """
        metrics = self._metrics
        with self._lock:
            self._model = model
            self._generation = self._generation + 1 if generation is None else generation
            self._prediction_cache.clear()
            self._trained_on = trained_on
            self._trained_pairs = training
            self._since_train = max(0, self._since_train - absorbed)
            self._detector = detector
            self._drift_flag = False
            if source is None:
                self._breaker.record_success()
                self._last_error = None
                metrics.breaker_state.set(_BREAKER_CODES[self._breaker.state])
            else:
                self._restored_from = source
                self._store_generation = store_generation
            generation = self._generation
            pending = self._since_train
        metrics.generation.set(generation)
        metrics.model_size.set(model.model_size)
        metrics.pending.set(float(pending))
        metrics.drift_alarm.set(0.0)
        metrics.drift_statistic.set(0.0)
        return generation

    def _store(self) -> SnapshotStore:
        if self._snapshots is None:
            raise PersistenceError(
                "no snapshot directory configured (EstimatorService(snapshot_dir=...))"
            )
        return self._snapshots

    @_metered("snapshot")
    def snapshot(self) -> dict:
        """Persist the serving generation to the snapshot directory now.

        Raises :class:`PersistenceError` without a ``snapshot_dir`` and
        :class:`ModelUnavailableError` before the first generation exists.
        """
        store = self._store()
        with self._lock:
            model = self._model
            generation = self._generation
            pairs = self._trained_pairs
        if model is None:
            raise ModelUnavailableError("no model generation to snapshot")
        path = store.save(model, generation, training=pairs)
        self._note_snapshot(generation, str(path))
        return {
            "path": str(path),
            "generation": generation,
            "model_size": model.model_size,
        }

    @_metered("restore")
    def restore(self, path: str | None = None) -> dict:
        """Install a persisted artifact as a *new* serving generation.

        Restores the newest readable snapshot by default, or the exact
        artifact at ``path``.  The installed model gets a fresh generation
        number (so generation-keyed prediction-cache entries can never
        alias the replaced model) and the drift baseline resets — the
        restored artifact carries no holdout.
        """
        if path is None:
            model, manifest, source = self._store().restore_latest()
        else:
            model, manifest, source = load_model(path), load_manifest(path), path
        fit_meta = manifest.get("fit", {})
        generation = self._install(
            model,
            trained_on=int(fit_meta.get("n_train", 0)),
            source=str(source),
            store_generation=int(fit_meta.get("generation", 0)),
        )
        log_event(
            get_logger("service"),
            "model_restored",
            source=str(source),
            generation=generation,
            estimator=manifest.get("estimator"),
            model_size=model.model_size,
        )
        return {
            "restored_from": str(source),
            "generation": generation,
            "estimator": manifest.get("estimator"),
            "model_size": model.model_size,
            # True when the artifact was written by the update() fast
            # path (a delta snapshot); rolling reloaders use this to
            # count delta pickups separately.
            "incremental": bool(fit_meta.get("incremental", False)),
        }

    def _restore_on_startup(self) -> None:
        """Warm-start from the newest readable snapshot, if any.

        An empty snapshot directory is a normal cold start; a directory
        with only unreadable artifacts logs a warning and starts cold —
        a broken snapshot must never prevent the service from coming up.
        """
        if not self._snapshots.generations():
            return
        try:
            model, manifest, source = self._snapshots.restore_latest()
        except PersistenceError as exc:
            log_event(
                get_logger("service"),
                "startup_restore_failed",
                level=logging.WARNING,
                error=str(exc),
            )
            return
        fit_meta = manifest.get("fit", {})
        generation = int(fit_meta.get("generation", 1))
        self._install(
            model,
            trained_on=int(fit_meta.get("n_train", 0)),
            source=str(source),
            store_generation=generation,
            generation=generation,
        )
        saved_at = fit_meta.get("saved_at")
        self._snapshot_info = {
            "generation": generation,
            "saved_at": saved_at,
            "path": str(source),
        }
        self._metrics.snapshot_generation.set(generation)
        if saved_at is not None:
            self._metrics.snapshot_timestamp.set(float(saved_at))
        log_event(
            get_logger("service"),
            "startup_restored",
            source=str(source),
            generation=generation,
            estimator=manifest.get("estimator"),
            model_size=model.model_size,
        )

    def _persist_generation(self, model, generation, training, metadata: dict) -> None:
        """Best-effort snapshot of a freshly built generation.

        A persist failure is counted and logged but never fails the
        advance that produced the model — serving the new generation
        matters more than remembering it.  ``metadata`` stamps the
        artifact (the incremental path marks delta snapshots).
        """
        if self._snapshots is None:
            return
        try:
            path = self._snapshots.save(
                model, generation, training=training, metadata=metadata
            )
        except Exception as exc:
            self._metrics.snapshots.inc(outcome="failure")
            log_event(
                get_logger("service"),
                "snapshot_failed",
                level=logging.WARNING,
                generation=generation,
                error=f"{type(exc).__name__}: {exc}",
            )
            return
        self._note_snapshot(generation, str(path))

    def _note_snapshot(self, generation: int, path: str) -> None:
        saved_at = time.time()
        with self._lock:
            self._snapshot_info = {
                "generation": generation,
                "saved_at": saved_at,
                "path": path,
            }
            self._store_generation = max(self._store_generation, generation)
        metrics = self._metrics
        metrics.snapshots.inc(outcome="success")
        metrics.snapshot_generation.set(generation)
        metrics.snapshot_timestamp.set(saved_at)
        metrics.snapshot_age.set(0.0)
        log_event(
            get_logger("service"),
            "snapshot_written",
            generation=generation,
            path=path,
        )

    def _refresh_snapshot_gauges(self) -> None:
        """Recompute the snapshot-age gauge from the last write time."""
        with self._lock:
            info = self._snapshot_info
        if info and info.get("saved_at"):
            self._metrics.snapshot_age.set(
                max(0.0, time.time() - float(info["saved_at"]))
            )

    @property
    def snapshot_store(self) -> SnapshotStore | None:
        """The shared snapshot store backing this service (or None)."""
        return self._snapshots

    def metrics_snapshot(self) -> dict:
        """Snapshot of this service's registries: the page ``GET
        /metrics`` renders and the payload each heartbeat carries (see
        :mod:`repro.observability.aggregate`).

        Taken under the service state lock, so the query/hit/miss
        counters are captured between requests, never mid-update — the
        ``hits + misses == queries`` identity holds in every snapshot.
        The service registry wins metric-name collisions with the
        process-global one.
        """
        with self._lock:
            return snapshot_registry(self.registry, default_registry())

    @property
    def store_generation(self) -> int:
        """Store generation of the serving model (0 = never persisted)."""
        with self._lock:
            return self._store_generation

    def health(self) -> dict:
        """Cheap liveness/degradation summary for ``/health`` probes.

        Always answers (HTTP layer maps this to a constant 200 — an
        *unhealthy* worker is still *alive*); the body distinguishes:

        * ``ok`` — serving normally.
        * ``degraded`` with ``reasons`` — one or more of:
          ``breaker_open`` (retraining suspended after consecutive
          failures; estimates still flow from the last good generation)
          and ``stale_generation`` (the shared snapshot store holds a
          generation ≥ ``health_stale_after`` ahead of the one served —
          this worker is missing rolling reloads).

        Load balancers keep routing on 200 but can weight away from
        degraded workers; the :mod:`repro.serving` supervisor uses the
        same signal to distinguish alive-but-unhealthy from healthy.
        """
        with self._lock:
            breaker_state = self._breaker.state
            trained = self._model is not None
            generation = self._generation
            store_generation = self._store_generation
        reasons = []
        if breaker_state == "open":
            reasons.append("breaker_open")
        snapshot_lag = None
        if self._snapshots is not None and self.health_stale_after is not None:
            latest = self._snapshots.latest_generation()
            if latest is not None:
                snapshot_lag = max(0, latest - store_generation)
                if snapshot_lag >= self.health_stale_after:
                    reasons.append("stale_generation")
        return {
            "status": "degraded" if reasons else "ok",
            "reasons": reasons,
            "trained": trained,
            "generation": generation,
            "breaker": breaker_state,
            "snapshot_lag": snapshot_lag,
        }

    def status(self) -> dict:
        self._refresh_snapshot_gauges()
        with self._lock:
            return {
                "trained": self._model is not None,
                "model_size": self._model.model_size if self._model else 0,
                "generation": self._generation,
                "trained_on": self._trained_on,
                "feedback_total": self._buffer.total_seen,
                "feedback_pending": self._since_train,
                "buffer": self._buffer.to_dict(),
                "breaker": self._breaker.to_dict(),
                "quarantine": self._quarantine.to_dict(),
                "sanitize_policy": self.sanitize_policy,
                "last_error": self._last_error,
                "last_retrain_seconds": self._last_retrain_seconds,
                "incremental_updates": self.incremental_updates,
                "last_update": (
                    dict(self._last_update) if self._last_update is not None else None
                ),
                "prediction_cache": {
                    "size": len(self._prediction_cache),
                    "capacity": self._cache_capacity,
                    "hits": self._cache_hits,
                    "misses": self._cache_misses,
                },
                "drift": self._drift_flag,
                "drift_statistic": (
                    round(self._detector.statistic, 3) if self._detector else None
                ),
                "restored_from": self._restored_from,
                "snapshot": (
                    dict(self._snapshot_info)
                    if self._snapshot_info is not None
                    else None
                ),
                "snapshot_dir": (
                    str(self._snapshots.directory)
                    if self._snapshots is not None
                    else None
                ),
            }

    # -- internals -------------------------------------------------------

    def _screen_pair(self, query, selectivity):
        """Validate one feedback pair under the service policy.

        Returns ``(accepted, query, selectivity)``; raises under the
        strict (``raise``) policy.  The strict policy intentionally keeps
        the historical checks only (label finite and in [0, 1]) so
        pre-robustness callers see identical behaviour.
        """
        if self.sanitize_policy == "raise":
            if not isinstance(query, Range):
                raise DataValidationError(
                    f"query must be a Range, got {type(query).__name__}"
                )
            selectivity = float(selectivity)
            if not 0.0 <= selectivity <= 1.0:
                raise DataValidationError(
                    f"selectivity must be in [0, 1], got {selectivity}"
                )
            return True, query, selectivity
        try:
            cleaned_q, cleaned_s, report = sanitize_training_data(
                [query], [selectivity], policy=self.sanitize_policy
            )
        except DataValidationError as exc:
            report = getattr(exc, "report", None)
            with self._lock:
                if report is not None:
                    self._quarantine.merge(report)
                else:
                    self._quarantine.count("invalid_pair")
                    self._quarantine.total += 1
            return False, query, selectivity
        with self._lock:
            self._quarantine.merge(report)
        return True, cleaned_q[0], float(cleaned_s[0])

    def _evaluate_feedback(self, query) -> tuple[bool, float | None]:
        """``(trainable, served estimate)`` of a screened feedback query;
        the caller holds ``_lock``.

        The query's dimension must match the buffered feedback's, and the
        served model, if any, must evaluate it: a learner that answers any
        query (``mean``) would otherwise let one row fail every later
        retrain.  A refused query raises under the strict policy and is
        quarantined under the others.
        """
        try:
            newest = self._buffer.newest()
            if newest is not None and newest.dim != query.dim:
                raise ValueError(
                    f"query of dimension {query.dim} against "
                    f"{newest.dim}-dimensional buffered feedback"
                )
            if self._model is not None:
                return True, self._model.predict(query)
            return True, None
        except ValueError as exc:
            if self.sanitize_policy == "raise":
                raise DataValidationError(f"feedback refused: {exc}") from exc
            self._quarantine.kept -= 1  # screening had kept it
            self._quarantine.count("unservable_query")
            return False, None

    def _auto_retrain(self) -> None:
        """Opportunistic retrain from the feedback path: never raises.

        Failures are recorded in the breaker / ``last_error`` and the
        previous generation keeps serving.  With ``incremental_updates``
        the fast :meth:`update` path runs instead (it falls back to a
        full retrain on its own when the model cannot update in place).
        """
        try:
            if self.incremental_updates:
                self.update()
            else:
                self.retrain()
        except Exception:
            pass  # recorded by retrain()/update(); feedback ingestion must not fail


# ---------------------------------------------------------------------------
# HTTP adapter
# ---------------------------------------------------------------------------

#: Request header carrying the caller's per-request deadline budget.
DEADLINE_HEADER = "X-Deadline-Ms"

#: Correlation header: echoed when the caller supplies one, generated
#: otherwise.  Every response carries it, and every structured log line
#: emitted while handling the request (admission wait, kernel spans,
#: access line) is tagged with the same id via
#: :func:`repro.observability.bind_request_id`.
REQUEST_ID_HEADER = "X-Request-Id"

_REQUEST_ID_MAX_LEN = 128

_EXPOSITION_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Seconds a kept-alive connection may sit idle before the worker closes
#: it and frees its handler thread; longer than any gap a client leaves
#: on a connection it means to reuse.
IDLE_TIMEOUT_S = 30.0

#: Largest request body a worker reads, in bytes (a 256-query
#: ``/v1/predict`` body is ~29 KB).  A larger declared ``Content-Length``
#: gets 413 before any byte of the body is read; a body that stops
#: arriving for :data:`IDLE_TIMEOUT_S` gets 408.  Both close the connection.
MAX_BODY_BYTES = 16 << 20

#: Bound, in seconds, on the staged close of a connection: after the last
#: response the server reads and discards input until the client's EOF
#: (:meth:`_Server.shutdown_request`).
CLOSE_LINGER_S = 1.0


def _clean_request_id(raw: str | None) -> str:
    """Echo the caller's id (sanitised) or mint a fresh one."""
    if raw:
        cleaned = "".join(ch for ch in raw if ch.isprintable()).strip()
        if cleaned:
            return cleaned[:_REQUEST_ID_MAX_LEN]
    return uuid.uuid4().hex[:16]


# Route handlers take the request handler and return the response body:
# a JSON object, or exposition text for /metrics.


# The ``parse`` stage is the body read, the JSON decode and the range
# decode; the ``kernel`` stage is the request's own ``estimate_many`` call.
# ``range_from_dict`` is looked up by its ``repro.server`` name on every
# call: the e2e tracer (``benchmarks/e2e/tracer.py``) wraps it there.


def _estimate(req) -> dict:
    with req.timed("parse"):
        query = range_from_dict(req.read_json()["query"])
    with req.timed("kernel"):
        value = req.service.estimate_many([query])[0]
    return {"selectivity": value}


def _predict(req) -> dict:
    with req.timed("parse"):
        encoded = req.read_json()["queries"]
        if not isinstance(encoded, list):
            raise DataValidationError(
                f"'queries' must be a list, got {type(encoded).__name__}"
            )
        queries = [range_from_dict(item) for item in encoded]
    with req.timed("kernel"):
        estimates = req.service.estimate_many(queries)
    return {"selectivities": estimates, "count": len(estimates)}


def _feedback(req) -> dict:
    with req.timed("parse"):
        data = req.read_json()
        query = range_from_dict(data["query"])
        selectivity = float(data["selectivity"])
    return req.service.feedback(query, selectivity)


def _restore(req) -> dict:
    with req.timed("parse"):
        artifact = req.read_json().get("path")
    if artifact is not None and not isinstance(artifact, str):
        raise DataValidationError(
            f"'path' must be a string, got {type(artifact).__name__}"
        )
    return req.service.restore(artifact)


#: Every endpoint: ``(method, path) -> (handler, gated)``.  Gated routes
#: pass the draining check, deadlines and admission control; the probe,
#: scrape and status routes skip them so they keep answering precisely
#: when the worker is saturated.  ``/health`` and ``/metrics`` are
#: unversioned on purpose: probes and scrape configs should not chase
#: API versions.  ``/health`` always answers 200 while the process is
#: up; its body carries ok-vs-degraded for load balancers and supervisors.
_ROUTES = {
    ("POST", "/v1/estimate"): (_estimate, True),
    ("POST", "/v1/predict"): (_predict, True),
    ("POST", "/v1/feedback"): (_feedback, True),
    ("POST", "/v1/retrain"): (lambda req: req.service.retrain(), True),
    ("POST", "/v1/update"): (lambda req: req.service.update(), True),
    ("POST", "/v1/snapshot"): (lambda req: req.service.snapshot(), True),
    ("POST", "/v1/restore"): (_restore, True),
    ("GET", "/v1/status"): (lambda req: req.service.status(), False),
    ("GET", "/health"): (lambda req: req.service.health(), False),
    ("GET", "/metrics"): (
        lambda req: render_exposition(req.service.metrics_snapshot(), worker_label()),
        False,
    ),
}

#: Endpoint metric labels: any other path is folded into "other", so
#: arbitrary probe paths cannot explode metric cardinality.
_ENDPOINTS = frozenset(path for _, path in _ROUTES)
_UNGATED = frozenset(path for (_, path), (_, gated) in _ROUTES.items() if not gated)


def _make_handler(
    service: EstimatorService,
    access_log: bool = False,
    *,
    admission=None,
    default_deadline_ms: float | None = None,
    draining: threading.Event | None = None,
):
    """Build the request handler class bound to one service.

    Every estimate/predict makes its own ``estimate_many`` call, so up to
    the admission controller's ``max_concurrency`` of them run at once
    and none waits behind another.  The handler is *embeddable*: a plain
    single-process ``serve()`` wires no extras, while each
    :mod:`repro.serving` worker injects its admission controller
    (deadline budgets, bounded queue, load shedding) and a ``draining``
    event that turns new requests away with 503 during graceful
    shutdown.  The extras are duck-typed.

    Connections persist (HTTP/1.1 keep-alive) with ``TCP_NODELAY`` set:
    the head and the body leave in two writes, and without it Nagle's
    algorithm holds the body until the client's delayed ACK (~40 ms).  A
    response closes its connection when the client asks, when the
    request declared a body the handler did not read in full, whose bytes
    would otherwise be parsed as the next request line, and while the
    worker drains, which hands its clients back to the shared listen
    queue.  A connection idle for :data:`IDLE_TIMEOUT_S` is closed too, a
    body over :data:`MAX_BODY_BYTES` is refused unread (413), and one that
    stops arriving for :data:`IDLE_TIMEOUT_S` gets 408.
    """
    registry = service.registry
    http_requests = registry.counter(
        "repro_http_requests_total",
        "HTTP requests by method, endpoint and status class",
        labels=("method", "endpoint", "status"),
    )
    http_seconds = registry.histogram(
        "repro_http_request_seconds",
        "HTTP request handling latency in seconds",
        labels=("endpoint",),
    )
    http_connections = registry.counter(
        "repro_http_connections_total",
        "HTTP connections accepted; requests per connection is "
        "repro_http_requests_total over this",
    )
    stage_seconds = registry.histogram(
        "repro_request_stage_seconds",
        "Per-request latency breakdown: queue (admission wait), parse (body "
        "read, JSON and range decode), kernel (estimate_many call), write "
        "(response), total",
        labels=("stage",),
    )
    access_logger = get_logger("http.access")

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True
        timeout = IDLE_TIMEOUT_S

        def setup(self) -> None:
            super().setup()
            http_connections.inc()

        def log_request(self, code="-", size="-"):
            pass  # replaced by the structured access line in _guarded

        def log_message(self, fmt, *args):
            # stdlib plumbing messages (log_error etc.): route through the
            # structured logger instead of bare stderr; quiet unless the
            # access log is enabled.
            if access_log:
                log_event(
                    access_logger,
                    fmt % args,
                    level=logging.WARNING,
                    client=self.address_string(),
                )

        def _reply_body(
            self,
            code: int,
            body: bytes,
            content_type: str,
            headers: dict | None = None,
        ) -> None:
            self._status_code = code
            with self.timed("write"):
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.send_header(REQUEST_ID_HEADER, self._request_id)
                for name, value in (headers or {}).items():
                    self.send_header(name, value)
                if (
                    self.close_connection  # the client asked to close
                    or self._unread_body
                    or (draining is not None and draining.is_set())
                ):
                    self.send_header("Connection", "close")  # sets close_connection
                self.end_headers()
                self.wfile.write(body)

        def _reply(
            self, code: int, payload: dict, headers: dict | None = None
        ) -> None:
            self._reply_body(
                code, json.dumps(payload).encode(), "application/json", headers
            )

        @contextlib.contextmanager
        def timed(self, stage: str):
            """Record the ``with`` body's duration as this request's ``stage``."""
            start = time.perf_counter()
            yield
            self.stages[stage] = time.perf_counter() - start

        def read_json(self) -> dict:
            if "Transfer-Encoding" in self.headers:
                raise DataValidationError("send the body with a Content-Length, not chunked")
            try:
                length = int(self.headers.get("Content-Length", 0))
            except (TypeError, ValueError) as exc:
                raise DataValidationError(f"bad Content-Length header: {exc}") from exc
            if length < 0:
                raise DataValidationError(f"bad Content-Length header: {length}")
            if length > MAX_BODY_BYTES:
                raise ContentTooLargeError(
                    f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
                )
            try:
                raw = self.rfile.read(length)
            except TimeoutError as exc:
                raise RequestTimeoutError(
                    f"request body incomplete after {self.timeout} s without data"
                ) from exc
            self._unread_body = len(raw) < length
            raw = raw or b"{}"
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise DataValidationError(f"malformed JSON body: {exc}") from exc
            if not isinstance(payload, dict):
                raise DataValidationError(
                    f"request body must be a JSON object, got {type(payload).__name__}"
                )
            return payload

        def _request_deadline(self) -> Deadline:
            """Per-request deadline: header overrides the server default."""
            raw = self.headers.get(DEADLINE_HEADER)
            if raw is None:
                return Deadline.after_ms(default_deadline_ms)
            try:
                budget_ms = float(raw)
            except (TypeError, ValueError) as exc:
                raise DataValidationError(
                    f"bad {DEADLINE_HEADER} header {raw!r}: {exc}"
                ) from exc
            return Deadline.after_ms(budget_ms)

        def _respond(self) -> None:
            """Run this request's route; 404 for any other (method, path)."""
            route = _ROUTES.get((self.command, self.path))
            if route is None:
                self._reply(
                    404, {"error": f"unknown path {self.path}", "type": "NotFound"}
                )
                return
            body = route[0](self)
            if isinstance(body, str):
                self._reply_body(200, body.encode(), _EXPOSITION_TYPE)
            else:
                self._reply(200, body)

        def _guarded(self) -> None:
            """Respond; render any failure as structured JSON and record
            the per-endpoint request metrics either way.

            Also owns the request's tracing context: generate-or-echo
            the ``X-Request-Id`` (bound to the thread so every log line
            down-stack carries it) and collect the per-stage latency
            breakdown (queue wait here, parse and kernel in the routes,
            write in _reply_body) into ``repro_request_stage_seconds`` and
            the access line.
            """
            self._status_code = 0
            # Until read_json consumes it, a declared body is unread.
            self._unread_body = (
                "Transfer-Encoding" in self.headers
                or self.headers.get("Content-Length", "0") != "0"
            )
            self._request_id = _clean_request_id(
                self.headers.get(REQUEST_ID_HEADER)
            )
            self.stages: dict[str, float] = {}
            endpoint = self.path if self.path in _ENDPOINTS else "other"
            gated = endpoint not in _UNGATED
            start = time.perf_counter()
            try:
                with bind_request_id(self._request_id):
                    try:
                        if not gated:
                            self._respond()
                        else:
                            if draining is not None and draining.is_set():
                                # Graceful shutdown: turn work away, stay
                                # polite to probes (handled above).
                                self._reply(
                                    503,
                                    {"error": "worker draining", "type": "Draining"},
                                    headers={"Retry-After": "1"},
                                )
                                return
                            deadline = self._request_deadline()
                            deadline.check()
                            if admission is not None:
                                admit_start = time.perf_counter()
                                with admission.admit(deadline):
                                    self.stages["queue"] = (
                                        time.perf_counter() - admit_start
                                    )
                                    self._respond()
                            else:
                                self._respond()
                    except ReproError as exc:
                        self._reply(
                            exc.http_status,
                            exc.to_dict(),
                            headers=getattr(exc, "http_headers", None),
                        )
                    except (KeyError, TypeError, ValueError) as exc:
                        self._reply(
                            400, {"error": str(exc), "type": type(exc).__name__}
                        )
                    except RuntimeError as exc:
                        self._reply(
                            409, {"error": str(exc), "type": type(exc).__name__}
                        )
                    except Exception as exc:  # never a traceback / hung socket
                        self._reply(
                            500,
                            {
                                "error": "internal server error",
                                "type": type(exc).__name__,
                            },
                        )
            finally:
                elapsed = time.perf_counter() - start
                status = self._status_code or 500
                http_seconds.observe(elapsed, endpoint=endpoint)
                http_requests.inc(
                    method=self.command,
                    endpoint=endpoint,
                    status=f"{status // 100}xx",
                )
                if gated:
                    # Probes/scrapes are excluded: their totals would
                    # swamp the breakdown with non-request noise.
                    self.stages["total"] = elapsed
                    for stage, seconds in self.stages.items():
                        stage_seconds.observe(seconds, stage=stage)
                if access_log:
                    log_event(
                        access_logger,
                        "http_request",
                        method=self.command,
                        path=self.path,
                        status=status,
                        seconds=round(elapsed, 6),
                        client=self.address_string(),
                        request_id=self._request_id,
                        stages={
                            stage: round(seconds, 6)
                            for stage, seconds in self.stages.items()
                        },
                    )

        def _counted(self) -> None:
            # Until _guarded has recorded it, the drain waits for this
            # request (_Server.wait_idle).
            with self.server.in_flight():
                self._guarded()

        do_GET = do_POST = _counted

    # Read by the route handlers.
    Handler.service = service
    return Handler


class _Server(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` that counts the requests it is answering.

    Handler threads stay daemon threads, so ``server_close()`` joins none
    of them: between requests a kept-alive connection's thread idles in
    ``readline`` until its client hangs up or :data:`IDLE_TIMEOUT_S`
    passes.  A drain waits for the requests instead (:meth:`wait_idle`).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._idle = threading.Condition()
        self._in_flight = 0

    @contextlib.contextmanager
    def in_flight(self):
        with self._idle:
            self._in_flight += 1
        try:
            yield
        finally:
            with self._idle:
                self._in_flight -= 1
                self._idle.notify_all()

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no request is in flight; False when ``timeout`` ran out."""
        with self._idle:
            return self._idle.wait_for(lambda: self._in_flight == 0, timeout)

    def shutdown_request(self, request) -> None:
        """Close a connection in stages (RFC 9112 §9.6).

        The inherited half-close (``SHUT_WR``) lets the client read the
        whole response and then EOF.  Input the handler left unread, such
        as a refused request's body the client is still sending, is then
        read and discarded until the client's EOF, for at most
        :data:`CLOSE_LINGER_S`: closing with unread input resets the
        connection, and the client's next write or read fails before it
        sees the response.
        """
        try:
            request.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the client already reset the connection
        else:
            deadline = time.monotonic() + CLOSE_LINGER_S
            try:
                while (left := deadline - time.monotonic()) > 0:
                    request.settimeout(left)
                    if not request.recv(65536):
                        break
            except OSError:
                pass  # timed out, or reset
        self.close_request(request)


def make_server(
    service: EstimatorService,
    host: str = "127.0.0.1",
    port: int = 0,
    access_log: bool = False,
    *,
    sock=None,
    admission=None,
    default_deadline_ms: float | None = None,
    draining: threading.Event | None = None,
) -> ThreadingHTTPServer:
    """Build (but do not start) the HTTP server for ``service``.

    ``sock`` adopts a pre-bound, already-listening socket instead of
    binding ``(host, port)`` — the pre-fork path: the
    :class:`repro.serving.Supervisor` binds once and every worker process
    accepts from the same shared listen queue, so a killed worker never
    strands connections that the kernel has not yet handed to it.  The
    remaining keyword extras are forwarded to the request handler (see
    :func:`_make_handler`).

    The returned server is a ``ThreadingHTTPServer`` whose handler
    threads are daemon threads, so ``server_close()`` joins none of them.
    Its ``wait_idle(timeout)`` blocks until every request already being
    handled has answered and been counted: after ``shutdown()`` that is
    the "finish in-flight" half of a graceful drain
    (:func:`repro.serving.drain_server`).
    """
    handler = _make_handler(
        service,
        access_log,
        admission=admission,
        default_deadline_ms=default_deadline_ms,
        draining=draining,
    )
    if sock is None:
        return _Server((host, port), handler)
    server = _Server(sock.getsockname()[:2], handler, bind_and_activate=False)
    server.socket.close()  # replace the unbound default with the shared one
    server.socket = sock
    server.server_address = sock.getsockname()
    server.server_name, server.server_port = server.server_address[:2]
    return server


def serve(
    service: EstimatorService,
    host: str = "127.0.0.1",
    port: int = 0,
    access_log: bool = False,
    **extras,
) -> ThreadingHTTPServer:
    """Start the HTTP server on a background thread; returns the server.

    ``port=0`` picks a free port (read it from ``server.server_address``).
    ``access_log=True`` emits one structured log line per request through
    the ``repro.http.access`` logger (see
    :func:`repro.observability.configure_logging`); the default keeps
    tests and embedded use quiet.  Keyword ``extras`` are forwarded to
    :func:`make_server` (admission controller, default deadline, drain
    event, shared socket).  Call ``server.shutdown()`` to
    stop accepting, ``server.wait_idle(timeout)`` to let in-flight
    requests finish, and ``server.server_close()`` to close the listening
    socket.
    """
    server = make_server(service, host, port, access_log, **extras)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server
