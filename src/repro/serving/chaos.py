"""Chaos scenario: SIGKILL random workers under live mixed traffic.

The acceptance gate for the serving stack, runnable as a library call
(the tests use a scaled-down profile) or a CLI (CI's ``serving-smoke``
job runs the full profile)::

    PYTHONPATH=src python -m repro.serving.chaos --workers 4 \\
        --duration 20 --kill-every 2 --clients 6

What it does:

1. pre-trains a snapshot (:mod:`repro.serving.warmup`) and boots a
   :class:`~repro.serving.Supervisor` pool over it;
2. hammers the pool from client threads with mixed ``/v1/estimate`` and
   ``/v1/predict`` traffic: the even-numbered clients keep one
   connection alive each (reconnecting after any error), the odd ones
   open a new connection per request;
3. SIGKILLs one random live worker every ``kill_every`` seconds;
4. stops killing, verifies the supervisor restores the full complement
   (every worker respawned from the shared snapshot), probes the pool
   until it answers cleanly, then gracefully drains.

The pass condition mirrors the PR's acceptance criterion: **zero HTTP
5xx responses** — a killed worker severs its connections, both in
flight and kept alive between requests (counted separately as
``conn_errors``; that is the unavoidable budget of SIGKILL) but no
request may ever receive a garbage or 5xx *answer* —
plus full recovery and a clean drain inside the wall-clock budget.

The scenario also gates the *fleet aggregation* invariants under the
restart path: the supervisor's merged ``repro_service_queries_total``
is sampled throughout the kill storm and must never decrease (counter
reset tracking across incarnations), the final aggregate must satisfy
``cache hits + misses == queries`` exactly, and one aggregated
``/metrics`` page must pass the exposition linter
(:mod:`repro.observability.expolint`).
"""

from __future__ import annotations

import argparse
import http.client
import json
import random
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from http.client import HTTPException

from repro.core.quadhist import QuadHist
from repro.observability import MetricsRegistry, lint_exposition
from repro.server import EstimatorService
from repro.serving.config import ServingConfig
from repro.serving.supervisor import Supervisor
from repro.serving.warmup import pretrain_snapshot, sample_query_payloads

__all__ = ["run_kill_workers_scenario", "main"]

_HEADERS = {"Content-Type": "application/json"}


def _post(url: str, payload: dict, timeout: float) -> int:
    """POST on a connection of its own (urllib sends ``Connection: close``)."""
    body = json.dumps(payload).encode()
    request = urllib.request.Request(url, data=body, headers=_HEADERS)
    with urllib.request.urlopen(request, timeout=timeout) as response:
        response.read()
        return response.status


def _post_kept_alive(conn: http.client.HTTPConnection, path: str, payload: dict) -> int:
    """POST on a kept-alive connection; an error closes it, so the next
    request reconnects."""
    try:
        conn.request("POST", path, body=json.dumps(payload).encode(), headers=_HEADERS)
        response = conn.getresponse()
        response.read()
        return response.status
    except Exception:
        conn.close()
        raise


def _client_loop(address, payloads, stop, counts, lock, timeout, keep_alive):
    rng = random.Random(threading.get_ident())
    base = "http://{}:{}".format(*address)
    conn = http.client.HTTPConnection(*address, timeout=timeout) if keep_alive else None
    i = 0
    try:
        while not stop.is_set():
            single = rng.random() < 0.5
            if single:
                path, payload = "/v1/estimate", {"query": payloads[i % len(payloads)]}
            else:
                batch = [payloads[(i + j) % len(payloads)] for j in range(4)]
                path, payload = "/v1/predict", {"queries": batch}
            i += rng.randrange(1, 7)
            try:
                if conn is None:
                    status = _post(base + path, payload, timeout)
                else:
                    status = _post_kept_alive(conn, path, payload)
                key = f"{status // 100}xx"
            except urllib.error.HTTPError as exc:
                key = f"{exc.code // 100}xx"
            except (urllib.error.URLError, HTTPException, ConnectionError, OSError):
                # Severed mid-flight by a SIGKILL — the budgeted casualty.
                key = "conn_error"
            with lock:
                counts[key] += 1
    finally:
        if conn is not None:
            conn.close()


def run_kill_workers_scenario(
    workers: int = 4,
    duration_s: float = 20.0,
    kill_every_s: float = 2.0,
    clients: int = 6,
    deadline_ms: float = 10_000.0,
    request_timeout_s: float = 15.0,
    recovery_budget_s: float = 30.0,
    drain_budget_s: float = 20.0,
    seed: int = 0,
    snapshot_dir: str | None = None,
    config: ServingConfig | None = None,
) -> dict:
    """Run the scenario; returns a report dict (see module docstring).

    The report's ``passed`` field ANDs the three acceptance conditions:
    no HTTP 5xx, full recovery after the kill storm, drain within
    budget.
    """
    rng = random.Random(seed)
    own_dir = None
    if snapshot_dir is None:
        own_dir = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        snapshot_dir = own_dir.name
        pretrain_snapshot(snapshot_dir)
    payloads = sample_query_payloads(64, seed=seed)
    if config is None:
        config = ServingConfig(
            workers=workers,
            deadline_ms=deadline_ms,
            # Restarts must not be throttled mid-storm: the scenario
            # kills healthy workers, which is not a crash loop.
            restart_backoff_s=0.05,
            restart_storm_threshold=50,
            stable_after_s=0.5,
            drain_timeout_s=drain_budget_s,
            reload_check_s=5.0,
            ops_port=0,  # aggregated /metrics scraped + linted below
        )

    def factory():
        return EstimatorService(
            lambda: QuadHist(tau=0.01),
            snapshot_dir=snapshot_dir,
        )

    # Own registry: the scenario is embeddable (tests run it in-process),
    # and its restart storm must not bleed supervisor counters into the
    # caller's process-global registry.
    supervisor = Supervisor(factory, config=config, registry=MetricsRegistry())
    counts: Counter = Counter()
    lock = threading.Lock()
    stop = threading.Event()
    victims: set = set()  # worker processes this scenario SIGKILLed
    report: dict = {"workers": workers, "duration_s": duration_s}
    try:
        host, port = supervisor.start()
        base = f"http://{host}:{port}"
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(
                    (host, port), payloads, stop, counts, lock,
                    request_timeout_s, k % 2 == 0,
                ),
                daemon=True,
            )
            for k in range(clients)
        ]
        for thread in threads:
            thread.start()

        chaos_end = time.monotonic() + duration_s
        next_kill = time.monotonic() + kill_every_s
        # Fleet-counter monotonicity: the merged total must never go
        # backwards, even in the instant a killed worker's zeroed
        # replacement starts reporting.
        fleet_samples = 0
        monotone_violations = 0
        last_total = supervisor.aggregator.total("repro_service_queries_total")
        while time.monotonic() < chaos_end:
            time.sleep(0.05)
            total = supervisor.aggregator.total("repro_service_queries_total")
            fleet_samples += 1
            if total < last_total:
                monotone_violations += 1
            last_total = max(last_total, total)
            if time.monotonic() >= next_kill:
                next_kill += kill_every_s
                live = [s for s in supervisor._slots if s.alive]
                if live:
                    victim = rng.choice(live)
                    victim.process.kill()  # SIGKILL: no drain, no goodbye
                    victims.add(victim.process)

        # Kill storm over: the pool must return to full complement.  A
        # worker SIGKILLed a moment ago can still read as alive, so every
        # slot must hold a live process this scenario did not kill.
        def full_complement() -> bool:
            processes = [slot.process for slot in supervisor._slots]
            return all(p is not None and p not in victims and p.is_alive() for p in processes)

        recovery_deadline = time.monotonic() + recovery_budget_s
        recovered = False
        while time.monotonic() < recovery_deadline:
            if full_complement():
                recovered = True
                break
            time.sleep(0.1)

        stop.set()
        for thread in threads:
            thread.join(timeout=request_timeout_s + 5)

        # Post-chaos probe: a recovered pool answers 20/20 cleanly.
        probe_ok = 0
        for i in range(20):
            try:
                status = _post(
                    f"{base}/v1/estimate",
                    {"query": payloads[i % len(payloads)]},
                    request_timeout_s,
                )
                probe_ok += int(status == 200)
            except Exception:
                pass

        # One aggregated exposition page, scraped over the ops endpoint
        # when enabled (else rendered directly), must lint clean.
        if config.ops_port is not None:
            ops_host, ops_port = supervisor.ops_address
            with urllib.request.urlopen(
                f"http://{ops_host}:{ops_port}/metrics", timeout=request_timeout_s
            ) as response:
                exposition = response.read().decode("utf-8")
        else:
            exposition = supervisor.render_metrics()
        lint_problems = lint_exposition(exposition)

        drain_start = time.monotonic()
        drain = supervisor.stop(drain=True)
        drain_seconds = time.monotonic() - drain_start

        # Post-drain the fleet is quiescent and every worker's final
        # snapshot is folded in: the cache identity must hold exactly.
        fleet_queries = supervisor.aggregator.total("repro_service_queries_total")
        fleet_hits = supervisor.aggregator.total(
            "repro_prediction_cache_hits_total"
        )
        fleet_misses = supervisor.aggregator.total(
            "repro_prediction_cache_misses_total"
        )

        total = sum(counts.values())
        http_5xx = sum(v for k, v in counts.items() if k == "5xx")
        report.update(
            {
                "kills": len(victims),
                "responses": dict(counts),
                "total_requests": total,
                "http_5xx": http_5xx,
                "conn_errors": counts.get("conn_error", 0),
                "recovered": recovered,
                "probe_ok": probe_ok,
                "drain": drain,
                "drain_seconds": round(drain_seconds, 3),
                "drained_clean": len(drain["killed"]) == 0,
                "restarts": sum(s.restarts for s in supervisor._slots),
                "fleet": {
                    "samples": fleet_samples,
                    "monotone_violations": monotone_violations,
                    "queries_total": fleet_queries,
                    "cache_hits": fleet_hits,
                    "cache_misses": fleet_misses,
                    "cache_identity": fleet_queries == fleet_hits + fleet_misses,
                    "final_total": last_total,
                    "lint_problems": lint_problems,
                },
            }
        )
        report["passed"] = (
            http_5xx == 0
            and recovered
            and probe_ok == 20
            and drain_seconds <= drain_budget_s
            and report["drained_clean"]
            and monotone_violations == 0
            and report["fleet"]["cache_identity"]
            and not lint_problems
        )
        return report
    finally:
        stop.set()
        if supervisor._sock is not None:
            supervisor.stop(drain=False)
        if own_dir is not None:
            own_dir.cleanup()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="SIGKILL random serving workers under live load"
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--duration", type=float, default=20.0)
    parser.add_argument("--kill-every", type=float, default=2.0)
    parser.add_argument("--clients", type=int, default=6)
    parser.add_argument("--deadline-ms", type=float, default=10_000.0)
    parser.add_argument("--recovery-budget", type=float, default=30.0)
    parser.add_argument("--drain-budget", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", help="write the report to this path")
    args = parser.parse_args(argv)
    report = run_kill_workers_scenario(
        workers=args.workers,
        duration_s=args.duration,
        kill_every_s=args.kill_every,
        clients=args.clients,
        deadline_ms=args.deadline_ms,
        recovery_budget_s=args.recovery_budget,
        drain_budget_s=args.drain_budget,
        seed=args.seed,
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
    if not report["passed"]:
        print("CHAOS SCENARIO FAILED", file=sys.stderr)
        return 1
    print(
        f"chaos ok: {report['kills']} kills, {report['total_requests']} requests, "
        f"0 http 5xx, {report['conn_errors']} severed connections, "
        f"drain {report['drain_seconds']}s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
