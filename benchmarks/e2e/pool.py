"""Booting the served pool the way ``repro serve`` deploys it.

A restored workload fits its model here, saves it to an empty snapshot
directory and boots a one-worker :class:`~repro.serving.Supervisor` with
the default :class:`~repro.serving.ServingConfig`; the worker restores
the snapshot.  The seeded workload instead builds its service inside the
worker from feedback, so the served model keeps the fit state that
incremental updates need.  Set-up time runs from the start of the fit
(or of the seeding) to the first ``/health`` 200.
"""

from __future__ import annotations

import functools
import tempfile
import time

from repro.core.config import QuadHistConfig
from repro.core.quadhist import QuadHist
from repro.observability import MetricsRegistry
from repro.persistence import SnapshotStore
from repro.server import EstimatorService
from repro.serving import ServingConfig, Supervisor

from benchmarks.e2e.scrape import http_get
from benchmarks.e2e.workloads import RETRAIN_EVERY

HEALTH_POLL_S = 0.01
BOOT_TIMEOUT_S = 120.0


def quadhist(tau: float) -> QuadHist:
    return QuadHist.from_config(QuadHistConfig(tau=tau))


def _start_tracing(tracer, trace_dir) -> None:
    if tracer is not None:
        tracer.start_worker(trace_dir)


def restored_service(snapshot_dir: str, tau: float, tracer=None, trace_dir=None):
    _start_tracing(tracer, trace_dir)
    return EstimatorService(functools.partial(quadhist, tau), snapshot_dir=snapshot_dir)


def seeded_service(snapshot_dir: str, tau: float, queries, labels, tracer=None, trace_dir=None):
    _start_tracing(tracer, trace_dir)
    service = EstimatorService(
        functools.partial(quadhist, tau),
        incremental_updates=True,
        snapshot_dir=snapshot_dir,
    )
    # With retrain_every set while seeding, every 50th pair would run an
    # automatic update; the service starts from one retrain instead.
    for query, label in zip(queries, labels):
        service.feedback(query, float(label))
    service.retrain()
    service.retrain_every = RETRAIN_EVERY
    return service


class Pool:
    """A booted one-worker pool and the snapshot directory it serves from."""

    def __init__(self, supervisor: Supervisor, setup_s: float, snapshot_dir: str):
        self.supervisor = supervisor
        self.address = supervisor.address
        self.setup_s = setup_s
        self.snapshot_dir = snapshot_dir

    @property
    def pid(self) -> int:
        return self.supervisor.status()["slots"][0]["pid"]

    def stop(self) -> None:
        self.supervisor.stop(drain=True)


def wait_healthy(address: tuple[str, int]) -> None:
    deadline = time.perf_counter() + BOOT_TIMEOUT_S
    while time.perf_counter() < deadline:
        try:
            code, _ = http_get(address, "/health", timeout=BOOT_TIMEOUT_S)
            if code == 200:
                return
        except OSError:
            pass
        time.sleep(HEALTH_POLL_S)
    raise TimeoutError(f"pool at {address} not healthy after {BOOT_TIMEOUT_S}s")


def boot(workload, inputs, workdir: str, tracer=None, trace_dir=None) -> Pool:
    """Fit or seed, persist, boot and wait for health; timed as set-up."""
    start = time.perf_counter()
    snapshot_dir = tempfile.mkdtemp(prefix="snapshots-", dir=workdir)
    if workload.seeded:
        factory = functools.partial(
            seeded_service, snapshot_dir, workload.tau,
            inputs.train_queries, inputs.train_labels, tracer, trace_dir,
        )
    else:
        model = quadhist(workload.tau).fit(inputs.train_queries, inputs.train_labels)
        SnapshotStore(snapshot_dir).save(
            model, 1, training=(inputs.train_queries, inputs.train_labels)
        )
        factory = functools.partial(
            restored_service, snapshot_dir, workload.tau, tracer, trace_dir
        )
    supervisor = Supervisor(factory, ServingConfig(workers=1), registry=MetricsRegistry())
    supervisor.start()
    try:
        wait_healthy(supervisor.address)
    except BaseException:
        supervisor.stop(drain=False)
        raise
    return Pool(supervisor, time.perf_counter() - start, snapshot_dir)
