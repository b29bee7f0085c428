"""Supervised multi-worker serving for the selectivity estimator.

The :mod:`repro.server` module gives one process one HTTP estimator;
this package scales and hardens it into a supervised pre-fork pool:

* :mod:`~repro.serving.config` — one frozen :class:`ServingConfig`
  carrying every pool/admission/supervision knob;
* :mod:`~repro.serving.supervisor` — binds the listening socket, forks
  N workers over it, restarts crashed or wedged workers with exponential
  backoff behind a per-slot restart-storm circuit breaker, merges the
  workers' heartbeat metric snapshots into one fleet registry
  (:class:`~repro.observability.FleetAggregator`), and optionally serves
  an ops endpoint — aggregated ``/metrics``, ``/workers``, fleet
  ``/health`` (``ServingConfig.ops_port``);
* :mod:`~repro.serving.worker` — one worker process: warm-start from the
  shared :class:`~repro.persistence.SnapshotStore`, heartbeats, rolling
  generation reloads, SIGTERM graceful drain;
* :mod:`~repro.serving.admission` — bounded concurrency with a finite
  waiting room, deadline-aware queueing, 429 + ``Retry-After`` shedding;
* :mod:`~repro.serving.warmup` — pre-train a snapshot so pools boot
  warm; :mod:`~repro.serving.chaos` — SIGKILL-under-load scenario.

See ``docs/serving.md`` for the supervision tree and tuning guidance.
"""

from repro.serving.admission import AdmissionController
from repro.serving.config import ServingConfig
from repro.serving.supervisor import Supervisor, WorkerSlot
from repro.serving.warmup import pretrain_snapshot, sample_query_payloads
from repro.serving.worker import GenerationReloader, drain_server, worker_main

__all__ = [
    "AdmissionController",
    "GenerationReloader",
    "ServingConfig",
    "Supervisor",
    "WorkerSlot",
    "drain_server",
    "pretrain_snapshot",
    "sample_query_payloads",
    "worker_main",
]
