"""Pool observability smoke: boot a real pool, scrape the ops endpoint.

CI's ``obs-smoke`` job runs this after the overhead bench: it forks a
2-worker supervised pool with the ops endpoint enabled, drives mixed
estimate/predict traffic through the shared socket, then checks the
supervisor-side fleet view end to end:

* the aggregated ``/metrics`` page passes the exposition linter
  (:mod:`repro.observability.expolint`);
* the fleet ``repro_service_queries_total`` equals the traffic
  generated **exactly** (however the kernel balanced it), and the cache
  identity ``hits + misses == queries`` holds;
* one worker's own ``/metrics`` page, scraped through the shared
  socket, lints clean, keeps ``hits + misses == queries``, and carries
  no family the fleet page lacks;
* ``/workers`` and ``/health`` report a full, healthy complement;
* every response carries an ``X-Request-Id``.

Exit 1 on any violation::

    PYTHONPATH=src python benchmarks/obs_pool_smoke.py
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
import urllib.request

from repro.core.quadhist import QuadHist
from repro.observability import MetricsRegistry, lint_exposition, parse_exposition
from repro.server import REQUEST_ID_HEADER, EstimatorService
from repro.serving import ServingConfig, Supervisor
from repro.serving.warmup import pretrain_snapshot, sample_query_payloads


def _post(base: str, path: str, payload: dict, timeout: float = 10.0):
    request = urllib.request.Request(
        f"{base}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        response.read()
        return response.headers.get(REQUEST_ID_HEADER)


def _scrape(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return response.read().decode("utf-8")


def _sum(families: dict, name: str) -> float:
    return sum(value for _, _, value, _ in families.get(name, {"samples": []})["samples"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--singles", type=int, default=40)
    parser.add_argument("--batches", type=int, default=8)
    parser.add_argument("--batch-size", type=int, default=5)
    parser.add_argument("--timeout", type=float, default=30.0)
    parser.add_argument(
        "--dump",
        help="write the scraped aggregated exposition to this path "
        "(CI feeds it to the expolint CLI)",
    )
    parser.add_argument(
        "--dump-worker",
        help="write one worker's scraped exposition to this path "
        "(CI feeds it to the expolint CLI)",
    )
    args = parser.parse_args(argv)

    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-obs-smoke-") as snapshot_dir:
        pretrain_snapshot(snapshot_dir)
        payloads = sample_query_payloads(16, seed=5)
        config = ServingConfig(
            workers=args.workers,
            deadline_ms=10_000.0,
            heartbeat_interval_s=0.1,
            drain_timeout_s=args.timeout,
            ops_port=0,
        )
        supervisor = Supervisor(
            lambda: EstimatorService(
                lambda: QuadHist(tau=0.01), snapshot_dir=snapshot_dir
            ),
            config=config,
            registry=MetricsRegistry(),
        )
        host, port = supervisor.start()
        try:
            base = f"http://{host}:{port}"
            ops_host, ops_port = supervisor.ops_address
            ops = f"http://{ops_host}:{ops_port}"

            deadline = time.monotonic() + args.timeout
            while supervisor.status()["alive"] < args.workers:
                if time.monotonic() > deadline:
                    print("FAIL: pool never reached full complement")
                    return 1
                time.sleep(0.05)

            missing_ids = 0
            for i in range(args.singles):
                request_id = _post(
                    base, "/v1/estimate", {"query": payloads[i % 16]}
                )
                missing_ids += not request_id
            for i in range(args.batches):
                batch = [
                    payloads[(i + j) % 16] for j in range(args.batch_size)
                ]
                missing_ids += not _post(base, "/v1/predict", {"queries": batch})
            if missing_ids:
                failures.append(f"{missing_ids} responses without {REQUEST_ID_HEADER}")
            expected = args.singles + args.batches * args.batch_size

            # One worker's own page, through the shared socket.
            worker_page = _scrape(f"{base}/metrics")
            if args.dump_worker:
                with open(args.dump_worker, "w") as handle:
                    handle.write(worker_page)
            worker_problems = lint_exposition(worker_page)
            if worker_problems:
                failures.append(f"worker exposition lint: {worker_problems}")
            worker_families, _ = parse_exposition(worker_page)
            worker_queries = _sum(worker_families, "repro_service_queries_total")
            worker_hits = _sum(worker_families, "repro_prediction_cache_hits_total")
            worker_misses = _sum(worker_families, "repro_prediction_cache_misses_total")
            if worker_hits + worker_misses != worker_queries:
                failures.append(
                    f"worker cache identity broken: {worker_hits} + "
                    f"{worker_misses} != {worker_queries}"
                )

            # Heartbeats carry the registry snapshots; wait for the fleet
            # view to converge on the generated traffic.
            deadline = time.monotonic() + args.timeout
            while (
                supervisor.aggregator.total("repro_service_queries_total")
                != expected
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)

            queries = supervisor.aggregator.total("repro_service_queries_total")
            hits = supervisor.aggregator.total("repro_prediction_cache_hits_total")
            misses = supervisor.aggregator.total(
                "repro_prediction_cache_misses_total"
            )
            if queries != expected:
                failures.append(f"fleet queries {queries} != generated {expected}")
            if hits + misses != queries:
                failures.append(
                    f"cache identity broken: {hits} + {misses} != {queries}"
                )

            # A family the worker registered after its last heartbeat
            # reaches the fleet page with the next one.
            while True:
                exposition = _scrape(f"{ops}/metrics")
                families, parse_problems = parse_exposition(exposition)
                missing = sorted(set(worker_families) - set(families))
                if not missing or time.monotonic() > deadline:
                    break
                time.sleep(0.05)
            if missing:
                failures.append(f"worker families missing from the fleet page: {missing}")
            if args.dump:
                with open(args.dump, "w") as handle:
                    handle.write(exposition)
            problems = lint_exposition(exposition)
            if problems:
                failures.append(f"exposition lint: {problems}")
            if parse_problems:
                failures.append(f"exposition parse: {parse_problems}")
            scraped = _sum(families, "repro_service_queries_total")
            if scraped != expected:
                failures.append(f"scraped queries {scraped} != {expected}")

            workers = json.loads(
                urllib.request.urlopen(f"{ops}/workers", timeout=10.0).read()
            )
            if len(workers["slots"]) != args.workers:
                failures.append(f"/workers slots: {workers['slots']}")
            health = json.loads(
                urllib.request.urlopen(f"{ops}/health", timeout=10.0).read()
            )
            if health["status"] != "ok" or health["alive"] != args.workers:
                failures.append(f"/health: {health}")

            print(
                f"pool {args.workers} workers, {expected} queries: fleet total "
                f"{queries:g}, hits {hits:g} + misses {misses:g}, "
                f"{len(families)} metric families, lint clean: {not problems}; "
                f"one worker: {worker_queries:g} queries, "
                f"{len(worker_families)} families, lint clean: {not worker_problems}"
            )
        finally:
            if supervisor._sock is not None:
                supervisor.stop(drain=True)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("pool observability smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
