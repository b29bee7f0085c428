"""One serving worker: an embeddable, drainable estimator process.

A worker is the unit of fault isolation in the pool: it owns one
:class:`~repro.server.EstimatorService` (warm-started from the shared
:class:`~repro.persistence.SnapshotStore`), one admission controller,
and one HTTP server accepting from the supervisor's shared listening
socket.  Everything here also works single-process —
the CLI's ``serve`` without ``--workers`` runs exactly this module's
machinery minus the fork, which is how ``repro serve`` under
systemd/containers gets the same SIGTERM drain semantics as the pool.

Lifecycle of one worker::

    fork → service_factory() (restore from snapshot store, 33-275×
    cheaper than fit) → accept loop + heartbeat thread + generation
    reloader → SIGTERM → draining flag (new requests get 503 and
    ``Connection: close``) → stop accepting → wait, at most
    ``drain_timeout_s``, for in-flight requests to answer and be counted
    → best-effort snapshot → final heartbeat → exit 0

Connections are kept alive between requests.  Their idle handler
threads are daemon threads: they hold neither the drain nor the exit.
A client whose connection the drain closes, or a SIGKILL severs,
reaches a sibling on its next connection through the shared listen
queue.

SIGKILL (crash, OOM, chaos) skips everything after "accept loop"; the
supervisor notices the silent heartbeat / dead process and respawns —
state lives in the snapshot store, not the worker.
"""

from __future__ import annotations

import logging
import os
import signal
import threading
import time

from repro.observability import (
    default_registry,
    get_logger,
    log_event,
    set_worker_label,
)
from repro.server import EstimatorService, make_server
from repro.serving.admission import AdmissionController
from repro.serving.config import ServingConfig

__all__ = ["worker_main", "GenerationReloader", "drain_server"]

_log = get_logger("serving.worker")


class GenerationReloader(threading.Thread):
    """Rolling-generation watcher: restore when the store moves ahead.

    Polls the service's snapshot store every ``interval`` seconds; when a
    generation newer than the one being served appears (written by a
    sibling worker's retrain, or by an operator training out-of-band),
    installs it via :meth:`EstimatorService.restore` — an atomic model
    swap, so traffic never drops during the reload.
    """

    def __init__(self, service: EstimatorService, interval: float = 1.0):
        super().__init__(name="generation-reloader", daemon=True)
        self.service = service
        self.interval = float(interval)
        self._stop = threading.Event()
        self.reloads = 0
        #: Reloads whose artifact was a delta snapshot — written by the
        #: incremental ``update()`` fast path rather than a full retrain.
        self.delta_reloads = 0

    def stop(self) -> None:
        self._stop.set()

    def poll_once(self) -> bool:
        """One check; returns True when a newer generation was installed."""
        store = self.service.snapshot_store
        if store is None:
            return False
        try:
            latest = store.latest_generation()
            if latest is not None and latest > self.service.store_generation:
                result = self.service.restore()
                self.reloads += 1
                if result.get("incremental"):
                    self.delta_reloads += 1
                return True
        except Exception as exc:  # a broken artifact must not kill serving
            log_event(
                _log,
                "generation_reload_failed",
                level=logging.WARNING,
                error=f"{type(exc).__name__}: {exc}",
            )
        return False

    def run(self) -> None:
        while not self._stop.wait(self.interval):
            self.poll_once()


def drain_server(
    server, service: EstimatorService | None = None, timeout: float | None = None
) -> bool:
    """Graceful drain: stop accepting, finish in-flight requests, snapshot.

    ``server.shutdown()`` exits the accept loop.  ``server.wait_idle``
    then waits, at most ``timeout`` seconds (``None``: no bound), until
    every request already being handled has answered and been counted in
    the metrics; ``server_close()`` closes this process's handle on the
    listening socket.  Kept-alive connections idling between requests are
    not waited for.  The final snapshot is best-effort — an untrained or
    persistence-less service drains without one.  Returns False when
    ``timeout`` ran out with requests still in flight.
    """
    server.shutdown()
    idle = server.wait_idle(timeout)
    if not idle:
        log_event(_log, "drain_timeout", level=logging.WARNING, timeout_s=timeout)
    server.server_close()
    if service is not None and service.snapshot_store is not None:
        try:
            service.snapshot()
        except Exception:
            pass  # nothing trained yet, or the store is gone — still drain
    return idle


def worker_main(
    worker_id: int,
    service_factory,
    config: ServingConfig,
    sock,
    heartbeat_conn=None,
    incarnation: int = 0,
) -> None:
    """Run one worker until SIGTERM (returns) or SIGKILL (doesn't).

    ``sock`` is the shared pre-bound listening socket; ``heartbeat_conn``
    (a write end of a ``multiprocessing.Pipe``) carries periodic liveness
    payloads — plus compact metric-registry snapshots for the fleet
    aggregator — to the supervisor and is optional for embedded use.
    ``incarnation`` is the supervisor's spawn count for this slot; the
    aggregator uses it to fold a dead incarnation's final counters into
    a monotone base instead of letting fleet totals regress.
    """
    label = str(worker_id)
    os.environ["REPRO_WORKER_ID"] = label
    if heartbeat_conn is not None:
        # Supervised pool: attribute every exposed series to this slot so
        # even direct scrapes through the shared socket are identifiable.
        # Single-process serving (heartbeat_conn=None) stays label-free.
        set_worker_label(label)
        # The fork inherited the parent's process-global registry —
        # warmup traffic, the supervisor's own counters, whatever ran
        # before the pool started.  Each incarnation must report only
        # its own work, or the fleet aggregate counts the parent's
        # history once per worker.
        default_registry().reset()

    # Latch SIGTERM/SIGINT before anything expensive (the warm restore in
    # service_factory takes milliseconds): a drain signal that lands while
    # the worker is still booting must produce a clean exit 0, not the
    # default signal death.
    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    service: EstimatorService = service_factory()
    registry = service.registry
    registry.gauge(
        "repro_worker_up",
        "1 while this worker process is serving",
        labels=("worker",),
    ).set(1.0, worker=label)
    admission = AdmissionController(
        max_concurrency=config.max_concurrency,
        queue_depth=config.queue_depth,
        shed_retry_after_s=config.shed_retry_after_s,
        worker=label,
        registry=registry,
    )
    draining = threading.Event()
    server = make_server(
        service,
        access_log=config.access_log,
        sock=sock,
        admission=admission,
        default_deadline_ms=config.deadline_ms,
        draining=draining,
    )

    serve_thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        name=f"worker-{label}-accept",
        daemon=True,
    )
    serve_thread.start()

    reloader = None
    if service.snapshot_store is not None and config.reload_check_s > 0:
        reloader = GenerationReloader(service, interval=config.reload_check_s)
        reloader.start()

    send_lock = threading.Lock()

    def _send(status: str) -> bool:
        if heartbeat_conn is None:
            return True
        payload = {
            "worker": worker_id,
            "pid": os.getpid(),
            "incarnation": incarnation,
            "ts": time.time(),
            "status": status,
            "health": service.health(),
            "admission": admission.snapshot(),
            # Registry snapshot piggybacked for the supervisor's fleet
            # aggregator; taken under the service state lock so the
            # query/hit/miss counters are captured between requests.
            "metrics": service.metrics_snapshot(),
        }
        try:
            with send_lock:
                heartbeat_conn.send(payload)
            return True
        except (BrokenPipeError, OSError):
            return False

    def _heartbeat_loop():
        while not stop.wait(config.heartbeat_interval_s):
            if not _send("draining" if draining.is_set() else "ready"):
                stop.set()  # supervisor is gone; shut down
                return

    _send("ready")
    beat_thread = threading.Thread(
        target=_heartbeat_loop, name=f"worker-{label}-heartbeat", daemon=True
    )
    beat_thread.start()
    log_event(_log, "worker_started", worker=worker_id, pid=os.getpid())

    stop.wait()

    draining.set()  # new requests on open connections get 503
    drain_server(server, service, timeout=config.drain_timeout_s)
    if reloader is not None:
        reloader.stop()
    _send("stopped")
    log_event(_log, "worker_drained", worker=worker_id, pid=os.getpid())
