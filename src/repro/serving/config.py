"""Tuning knobs for the supervised multi-worker serving stack.

One frozen dataclass shared by the supervisor, the workers, and the CLI,
so a pool's whole operating envelope is a single picklable value.  The
defaults favour a small sidecar next to a query optimizer: shallow
queues (shed early, the planner can fall back to its native estimator)
and restart supervision that tolerates crashes but refuses to fork-bomb
a box with a poisoned snapshot (the restart-storm breaker reuses
:class:`repro.robustness.CircuitBreaker` semantics).

See ``docs/serving.md`` for the tuning table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = ["ServingConfig"]


@dataclass(frozen=True)
class ServingConfig:
    """Operating envelope for one worker pool."""

    #: Worker processes accepting from the shared listening socket.
    workers: int = 2
    #: Concurrent requests one worker executes; beyond this they queue.
    max_concurrency: int = 8
    #: Queued (admitted-but-waiting) requests per worker before shedding
    #: with 429 + ``Retry-After``.
    queue_depth: int = 32
    #: Default per-request deadline budget in milliseconds (None =
    #: unlimited); callers override per request via ``X-Deadline-Ms``.
    deadline_ms: float | None = 1000.0
    #: Advisory ``Retry-After`` (seconds) sent with shed responses.
    shed_retry_after_s: float = 1.0
    #: Seconds between worker heartbeats to the supervisor.
    heartbeat_interval_s: float = 0.25
    #: Silence past which a live worker counts as wedged and is killed.
    heartbeat_timeout_s: float = 10.0
    #: First restart delay after a crash; doubles per consecutive crash.
    restart_backoff_s: float = 0.1
    #: Exponential-backoff ceiling.
    restart_backoff_max_s: float = 5.0
    #: Consecutive crashes (without a stable run in between) that open
    #: the restart-storm breaker for ``restart_storm_cooldown_s``.
    restart_storm_threshold: int = 5
    #: Open-breaker cooldown before a single probe restart is allowed.
    restart_storm_cooldown_s: float = 10.0
    #: Uptime after which a worker counts as stable (resets the storm
    #: breaker and the backoff sequence).
    stable_after_s: float = 5.0
    #: Graceful-drain budget: SIGTERM → this long to flush → SIGKILL.
    drain_timeout_s: float = 10.0
    #: How often workers poll the snapshot store for a newer generation
    #: (rolling reload).  0 disables the reloader.
    reload_check_s: float = 1.0
    #: Structured access log (one line per HTTP request) in each worker.
    access_log: bool = False
    #: Supervisor ops endpoint port (aggregated ``/metrics``, ``/workers``,
    #: fleet ``/health``).  ``None`` disables it; 0 picks a free port
    #: (read :attr:`Supervisor.ops_address` after start).
    ops_port: int | None = None
    #: Extra worker environment (merged over the inherited one).
    worker_env: dict = field(default_factory=dict)

    def __post_init__(self):
        positive = {
            "workers": self.workers,
            "max_concurrency": self.max_concurrency,
            "restart_storm_threshold": self.restart_storm_threshold,
        }
        for name, value in positive.items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        non_negative = {
            "queue_depth": self.queue_depth,
            "shed_retry_after_s": self.shed_retry_after_s,
            "restart_backoff_s": self.restart_backoff_s,
            "restart_backoff_max_s": self.restart_backoff_max_s,
            "restart_storm_cooldown_s": self.restart_storm_cooldown_s,
            "stable_after_s": self.stable_after_s,
            "drain_timeout_s": self.drain_timeout_s,
            "reload_check_s": self.reload_check_s,
        }
        for name, value in non_negative.items():
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be positive or None, got {self.deadline_ms}"
            )
        if self.ops_port is not None and not 0 <= self.ops_port <= 65535:
            raise ValueError(
                f"ops_port must be in [0, 65535] or None, got {self.ops_port}"
            )
        for name, value in (
            ("heartbeat_interval_s", self.heartbeat_interval_s),
            ("heartbeat_timeout_s", self.heartbeat_timeout_s),
        ):
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.heartbeat_timeout_s <= self.heartbeat_interval_s:
            raise ValueError(
                "heartbeat_timeout_s must exceed heartbeat_interval_s "
                f"({self.heartbeat_timeout_s} <= {self.heartbeat_interval_s})"
            )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
