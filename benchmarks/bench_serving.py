"""Serving throughput: worker-pool scaling.

Requests/second of the supervised :mod:`repro.serving` pre-fork pool at
1, 2, … N workers on identical single-query traffic, measured end to end
over real HTTP with multi-process clients (separate processes so the
*client* GIL never caps the measurement).  The kernel load-balances
accepts across workers, so throughput should scale with worker count up
to the machine's core count — ``cpu_count`` is recorded alongside the
curve, because a 1-core box (some CI runners) physically cannot show a
>1× speedup no matter how correct the pool is.  Each client holds one
kept-alive connection, as the workers expect, and reconnects after a
failure.  The full run boots every worker count three times, in
interleaved rounds, and reports the median and the range, so host load
shows as spread rather than as a scaling change.  The run exits non-zero
when any request failed.

Results land in ``benchmarks/results/BENCH_serving.json``::

    PYTHONPATH=src python benchmarks/bench_serving.py          # full
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke  # CI-sized
"""

from __future__ import annotations

import argparse
import http.client
import json
import multiprocessing
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.core.config import QuadHistConfig
from repro.core.quadhist import QuadHist
from repro.observability import MetricsRegistry
from repro.server import EstimatorService
from repro.serving import ServingConfig, Supervisor, pretrain_snapshot
from repro.serving.warmup import sample_query_payloads

RESULTS_DIR = Path(__file__).resolve().parent / "results"

FULL = {
    "mode": "full",
    "worker_counts": [1, 2, 4],
    "clients": 8,
    "duration_s": 4.0,
    "rounds": 3,
}
SMOKE = {
    "mode": "smoke",
    "worker_counts": [1, 2],
    "clients": 4,
    "duration_s": 1.5,
    "rounds": 1,
}
_HEADERS = {"Content-Type": "application/json"}


def _client_proc(address: tuple, payloads: list, duration_s: float, out) -> None:
    """One load-generating process: single-query estimates over one
    kept-alive connection, reopened after a failure."""
    bodies = [json.dumps({"query": payload}).encode() for payload in payloads]
    conn = http.client.HTTPConnection(*address, timeout=10)
    ok = 0
    failed = 0
    i = 0
    deadline = time.monotonic() + duration_s
    while time.monotonic() < deadline:
        body = bodies[i % len(bodies)]
        i += 1
        try:
            conn.request("POST", "/v1/estimate", body=body, headers=_HEADERS)
            response = conn.getresponse()
            response.read()
        except (OSError, http.client.HTTPException):
            conn.close()  # the next request reconnects
            failed += 1
            continue
        if response.status == 200:
            ok += 1
        else:
            failed += 1
    conn.close()
    out.send({"ok": ok, "failed": failed})
    out.close()


def _drive(address: tuple, payloads: list, clients: int, duration_s: float) -> dict:
    ctx = multiprocessing.get_context("fork")
    pipes = []
    procs = []
    for _ in range(clients):
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_client_proc, args=(address, payloads, duration_s, send)
        )
        proc.start()
        send.close()
        pipes.append(recv)
        procs.append(proc)
    totals = {"ok": 0, "failed": 0}
    for recv, proc in zip(pipes, procs):
        counts = recv.recv()
        proc.join(timeout=30)
        totals["ok"] += counts["ok"]
        totals["failed"] += counts["failed"]
    return totals


POOL_CONFIG = dict(
    max_concurrency=16,
    queue_depth=128,
    deadline_ms=30_000.0,
    stable_after_s=0.5,
    drain_timeout_s=15.0,
    reload_check_s=5.0,
)


def _run_pool(snapshot_dir, workers, clients, duration_s, payloads):
    def factory():
        return EstimatorService(
            lambda: QuadHist.from_config(QuadHistConfig(tau=0.01)),
            snapshot_dir=snapshot_dir,
        )

    config = ServingConfig(workers=workers, **POOL_CONFIG)
    supervisor = Supervisor(factory, config=config, registry=MetricsRegistry())
    try:
        address = supervisor.start()
        _drive(address, payloads, clients=2, duration_s=0.5)  # warm-up
        totals = _drive(address, payloads, clients, duration_s)
    finally:
        supervisor.stop(drain=True)
    qps = totals["ok"] / duration_s
    return {
        "workers": workers,
        "clients": clients,
        "duration_s": duration_s,
        "ok": totals["ok"],
        "failed": totals["failed"],
        "requests_per_second": round(qps, 1),
    }


def run(config: dict) -> dict:
    cpu_count = os.cpu_count() or 1
    tmp = tempfile.TemporaryDirectory(prefix="bench-serving-")
    pretrain_snapshot(tmp.name)
    payloads = sample_query_payloads(64, seed=5)

    runs = {workers: [] for workers in config["worker_counts"]}
    for round_ in range(config["rounds"]):
        for workers in config["worker_counts"]:
            point = _run_pool(
                tmp.name,
                workers,
                clients=config["clients"],
                duration_s=config["duration_s"],
                payloads=payloads,
            )
            runs[workers].append(point)
            print(
                f"round {round_ + 1}, workers={workers}: "
                f"{point['requests_per_second']} req/s (failed {point['failed']})"
            )
    tmp.cleanup()

    scaling = []
    for workers, points in runs.items():
        rates = [point["requests_per_second"] for point in points]
        point = {
            "workers": workers,
            "clients": config["clients"],
            "duration_s": config["duration_s"],
            "ok": sum(p["ok"] for p in points),
            "failed": sum(p["failed"] for p in points),
            "requests_per_second": round(statistics.median(rates), 1),
            "requests_per_second_range": [min(rates), max(rates)],
            "requests_per_second_runs": rates,
        }
        baseline = scaling[0]["requests_per_second"] if scaling else None
        if cpu_count == 1 and workers > 1:
            # A single core cannot demonstrate worker scaling: publishing
            # a ratio here would just report scheduler noise as a claim.
            point["speedup_vs_1_worker"] = None
        else:
            point["speedup_vs_1_worker"] = (
                round(point["requests_per_second"] / baseline, 2)
                if baseline
                else 1.0
            )
        scaling.append(point)
        speedup = point["speedup_vs_1_worker"]
        speedup_txt = "n/a (1 cpu)" if speedup is None else f"{speedup}x"
        print(
            f"workers={workers}: median {point['requests_per_second']} req/s "
            f"over {len(rates)} runs, range {min(rates)}-{max(rates)} "
            f"(speedup {speedup_txt}, failed {point['failed']})"
        )

    # cpu_count leads the report: every number below is conditioned on it.
    result = {
        "cpu_count": cpu_count,
        "config": config,
        "scaling": scaling,
    }
    if cpu_count == 1:
        result["scaling_note"] = (
            "single-core host: worker-scaling speedups are not claimable "
            "and are reported as null"
        )
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run (seconds, not minutes)"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=RESULTS_DIR / "BENCH_serving.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args()

    result = run(SMOKE if args.smoke else FULL)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(result, indent=2) + "\n")

    top = result["scaling"][-1]
    if top["speedup_vs_1_worker"] is None:
        scaling_txt = "worker scaling not claimable on 1 cpu"
    else:
        scaling_txt = f"{top['workers']}-worker speedup: {top['speedup_vs_1_worker']}x"
    print(f"cpu_count={result['cpu_count']}  {scaling_txt}")
    print(f"wrote {args.output}")
    failed = sum(point["failed"] for point in result["scaling"])
    if failed:
        sys.exit(f"{failed} requests failed")


if __name__ == "__main__":
    main()
