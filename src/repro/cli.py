"""Command-line interface.

The subcommands cover the paper's workflow end to end:

``generate``
    Build a synthetic dataset, draw a labeled query workload from it, and
    save the workload to JSON (:mod:`repro.data.io` format).

``train``
    Fit one estimator on a workload and persist it as a versioned model
    artifact (``--save model.rma``, see :mod:`repro.persistence`); the
    manifest records the config, training-set fingerprint and fit time.

``evaluate``
    Train one or more estimators on a workload (from a file, or generated
    on the fly) and print the evaluation table: model size, fit time,
    RMS / L∞ errors and Q-error quantiles.  ``--sanitize drop`` screens
    dirty training pairs instead of aborting.  ``--load model.rma``
    scores previously saved artifacts on the same test set without
    refitting (their ``fit_s`` column reads 0).

``inspect``
    Pretty-print an artifact's manifest — estimator name, config, state
    summary, fingerprint — without constructing the model.

``serve``
    Run the fault-tolerant HTTP estimation sidecar
    (:mod:`repro.server`) with the robustness knobs exposed: sanitize
    policy, feedback-buffer capacity, circuit-breaker threshold/cooldown,
    and retrain timeout.  ``--snapshot-dir`` persists every retrain
    generation and warm-starts from the newest one on restart.
    ``--workers N`` (N > 1) scales out to a supervised pre-fork pool
    (:mod:`repro.serving`): crashed workers restart warm from the shared
    snapshot store behind a restart-storm breaker.  Both modes share the
    admission/deadline envelope — ``--max-concurrency``,
    ``--queue-depth`` (429 + ``Retry-After`` when full),
    ``--deadline-ms`` (504 past budget) — and both drain gracefully on
    SIGTERM/SIGINT: stop accepting, flush in-flight requests, snapshot,
    exit 0.  ``--log-json`` switches the
    structured logger to JSON lines (and enables span-trace logging);
    ``--access-log`` emits one log
    line per HTTP request.  With a pool, ``--ops-port`` additionally
    starts the supervisor's ops endpoint — aggregated fleet ``/metrics``
    (cross-worker counter sums with reset tracking), ``/workers``, and
    fleet ``/health``.

``metrics``
    Fetch and print the Prometheus text exposition from a running
    sidecar's ``GET /metrics`` endpoint (see ``docs/observability.md``).
    A pool's ops endpoint serves the merged fleet-wide exposition on the
    same path, so ``--port <ops-port>`` scrapes that; ``--lint`` runs the
    exposition linter (:mod:`repro.observability.expolint`) on whatever
    was scraped and fails on malformed output.

``top``
    One-shot fleet dashboard against a pool's ops endpoint: per-worker
    liveness, restarts, incarnations, admission queue depth, and the
    headline fleet counters from the aggregated registry.

Examples
--------
::

    python -m repro.cli generate --dataset power --attrs 0,3 \\
        --queries 200 --out train.json
    python -m repro.cli train --dataset power --attrs 0,3 \\
        --train 200 --method quadhist --save model.rma
    python -m repro.cli evaluate --dataset power --attrs 0,3 \\
        --train 200 --test 150 --methods quadhist,ptshist,quicksel
    python -m repro.cli evaluate --dataset power --attrs 0,3 \\
        --test 150 --methods "" --load model.rma
    python -m repro.cli inspect model.rma
    python -m repro.cli serve --method quadhist --port 8080 \\
        --sanitize drop --retrain-every 50 --snapshot-dir ./snapshots
    python -m repro.cli serve --workers 4 --snapshot-dir ./snapshots \\
        --deadline-ms 250 --queue-depth 64 --ops-port 9090
    python -m repro.cli metrics --port 8080
    python -m repro.cli metrics --port 9090 --lint
    python -m repro.cli top --port 9090
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from repro.core.registry import estimator_factories
from repro.data import (
    WorkloadSpec,
    load_dataset,
    load_workload,
    save_workload,
)
from repro.eval import evaluate_estimator, format_table, make_workload
from repro.eval.harness import Workload
from repro.robustness import SANITIZE_POLICIES, ReproError

__all__ = ["main", "build_parser"]


def _parse_attrs(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid attribute list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Learned selectivity estimation (SIGMOD 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--dataset",
        choices=["power", "forest", "census", "dmv"],
        default="power",
        help="synthetic evaluation dataset",
    )
    common.add_argument("--rows", type=int, default=25_000, help="dataset size")
    common.add_argument(
        "--attrs",
        type=_parse_attrs,
        default=[0, 3],
        help="comma-separated attribute indices to project on",
    )
    common.add_argument(
        "--query-kind", choices=["box", "ball", "halfspace"], default="box"
    )
    common.add_argument(
        "--center-kind", choices=["data", "random", "gaussian"], default="data"
    )
    common.add_argument("--seed", type=int, default=0)

    gen = sub.add_parser("generate", parents=[common], help="generate a labeled workload")
    gen.add_argument("--queries", type=int, default=200)
    gen.add_argument("--out", required=True, help="output JSON path")

    tr = sub.add_parser(
        "train", parents=[common], help="fit one estimator and save it as an artifact"
    )
    tr.add_argument("--train", type=int, default=200, help="training-set size")
    tr.add_argument(
        "--train-file", help="JSON workload to train on (overrides --train)"
    )
    tr.add_argument(
        "--method",
        default="quadhist",
        help="estimator to fit; one of: " + ",".join(sorted(estimator_factories())),
    )
    tr.add_argument("--save", required=True, help="output artifact path (.rma)")
    tr.add_argument(
        "--sanitize",
        choices=list(SANITIZE_POLICIES),
        default=None,
        help="screen the training workload before fitting",
    )

    ev = sub.add_parser("evaluate", parents=[common], help="train and evaluate estimators")
    ev.add_argument("--train", type=int, default=200, help="training-set size")
    ev.add_argument("--test", type=int, default=150, help="test-set size")
    ev.add_argument(
        "--train-file", help="JSON workload to train on (overrides --train)"
    )
    ev.add_argument("--test-file", help="JSON workload to test on (overrides --test)")
    ev.add_argument(
        "--methods",
        default="quadhist,ptshist,quicksel",
        help="comma-separated subset of: " + ",".join(sorted(estimator_factories())),
    )
    ev.add_argument(
        "--sanitize",
        choices=list(SANITIZE_POLICIES),
        default=None,
        help="screen the training workload (drop/clamp dirty pairs, or "
        "raise on the first); default: strict label validation only",
    )
    ev.add_argument(
        "--load",
        default=None,
        help="comma-separated model artifacts (.rma) to score on the test "
        "set without refitting",
    )

    ins = sub.add_parser(
        "inspect", help="pretty-print a model artifact's manifest"
    )
    ins.add_argument("artifact", help="artifact path (.rma)")

    srv = sub.add_parser("serve", help="run the HTTP estimation sidecar")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8080)
    srv.add_argument(
        "--method",
        default="quadhist",
        help="estimator to serve; one of: " + ",".join(sorted(estimator_factories())),
    )
    srv.add_argument(
        "--expected-train",
        type=int,
        default=200,
        help="training-set size the model is dimensioned for",
    )
    srv.add_argument("--retrain-every", type=int, default=None)
    srv.add_argument("--min-feedback", type=int, default=20)
    srv.add_argument(
        "--sanitize",
        choices=list(SANITIZE_POLICIES),
        default="drop",
        help="feedback sanitization policy (default: drop/quarantine)",
    )
    srv.add_argument(
        "--feedback-capacity",
        type=int,
        default=None,
        help="bound on buffered feedback pairs (default: unbounded)",
    )
    srv.add_argument("--breaker-threshold", type=int, default=3)
    srv.add_argument("--breaker-cooldown", type=float, default=30.0)
    srv.add_argument(
        "--retrain-timeout",
        type=float,
        default=None,
        help="wall-clock budget per retrain in seconds",
    )
    srv.add_argument(
        "--incremental",
        action="store_true",
        help="absorb feedback via the incremental update() fast path "
        "(partial_fit with warm-started solves) instead of full refits; "
        "falls back to a retrain when the model cannot update in place",
    )
    srv.add_argument(
        "--update-budget",
        type=float,
        default=None,
        metavar="RESIDUAL",
        help="residual ceiling for accepting an incremental update; "
        "above it the service falls back to a full retrain "
        "(default: accept any residual)",
    )
    srv.add_argument(
        "--snapshot-dir",
        default=None,
        help="persist every retrain generation here and warm-start from "
        "the newest snapshot on restart (default: no persistence)",
    )
    srv.add_argument(
        "--snapshot-keep",
        type=int,
        default=5,
        help="snapshot generations to retain (default: 5)",
    )
    srv.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes; >1 runs the supervised pre-fork pool "
        "(default: 1, single process)",
    )
    srv.add_argument(
        "--max-concurrency",
        type=int,
        default=8,
        help="requests executing at once per worker (default: 8)",
    )
    srv.add_argument(
        "--queue-depth",
        type=int,
        default=32,
        help="admission waiting room per worker; beyond it requests are "
        "shed with 429 + Retry-After (default: 32)",
    )
    srv.add_argument(
        "--deadline-ms",
        type=float,
        default=1000.0,
        help="default per-request deadline budget; expired requests get "
        "504 (clients override via X-Deadline-Ms; default: 1000)",
    )
    srv.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="graceful-drain budget on SIGTERM before workers are "
        "killed (default: 10)",
    )
    srv.add_argument(
        "--ops-port",
        type=int,
        default=None,
        metavar="PORT",
        help="supervisor ops endpoint with aggregated fleet /metrics, "
        "/workers and /health (pool mode only; 0 picks a free port; "
        "default: disabled)",
    )
    srv.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured logs as JSON lines (also logs span traces)",
    )
    srv.add_argument(
        "--access-log",
        action="store_true",
        help="log one structured line per HTTP request",
    )

    met = sub.add_parser(
        "metrics", help="dump /metrics from a running sidecar"
    )
    met.add_argument(
        "--url",
        default=None,
        help="full metrics URL (overrides --host/--port)",
    )
    met.add_argument("--host", default="127.0.0.1")
    met.add_argument("--port", type=int, default=8080)
    met.add_argument(
        "--lint",
        action="store_true",
        help="run the exposition linter on the scraped page; non-zero "
        "exit on problems",
    )
    met.add_argument(
        "--timeout", type=float, default=5.0, help="HTTP timeout in seconds"
    )

    top = sub.add_parser(
        "top", help="one-shot fleet dashboard from a pool's ops endpoint"
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument(
        "--port",
        type=int,
        default=9090,
        help="supervisor ops port (see serve --ops-port; default: 9090)",
    )
    top.add_argument(
        "--timeout", type=float, default=5.0, help="HTTP timeout in seconds"
    )
    top.add_argument(
        "--json", action="store_true", help="emit raw JSON instead of a table"
    )
    return parser


def _setup(args) -> tuple:
    dataset = load_dataset(args.dataset, rows=args.rows).project(args.attrs)
    spec = WorkloadSpec(query_kind=args.query_kind, center_kind=args.center_kind)
    rng = np.random.default_rng(args.seed)
    return dataset, spec, rng


def _cmd_generate(args) -> int:
    dataset, spec, rng = _setup(args)
    workload = make_workload(dataset, args.queries, rng, spec=spec)
    save_workload(args.out, workload.queries, workload.selectivities)
    print(
        f"wrote {len(workload)} labeled {args.query_kind} queries "
        f"({args.center_kind} centers, {dataset.name}) to {args.out}"
    )
    return 0


def _cmd_train(args) -> int:
    import time

    from repro.core.registry import make_estimator
    from repro.persistence import save_model

    dataset, spec, rng = _setup(args)
    if args.train_file:
        queries, labels = load_workload(args.train_file)
        train = Workload(queries, labels)
    else:
        train = make_workload(dataset, args.train, rng, spec=spec)
    try:
        estimator = make_estimator(args.method, train_size=len(train))
    except KeyError as exc:
        print(f"error: unknown method: {exc.args[0]}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    estimator.fit(train.queries, train.selectivities, policy=args.sanitize)
    fit_seconds = time.perf_counter() - start
    path = save_model(
        estimator,
        args.save,
        training=(train.queries, train.selectivities),
        metadata={"fit_seconds": round(fit_seconds, 4), "dataset": dataset.name},
    )
    print(
        f"fitted {args.method} on {len(train)} pairs in {fit_seconds:.3f}s "
        f"(model_size={estimator.model_size}); saved to {path}"
    )
    return 0


def _evaluate_artifact(path: str, test: Workload):
    """Score a persisted model on ``test`` (no refit: fit_seconds = 0)."""
    import time

    from repro.eval.metrics import linf_error, q_error_quantiles, rms_error
    from repro.persistence import load_manifest, load_model

    from repro.eval.harness import ExperimentResult

    estimator = load_model(path)
    manifest = load_manifest(path)
    start = time.perf_counter()
    predictions = estimator.predict_many(test.queries)
    predict_seconds = time.perf_counter() - start
    return ExperimentResult(
        name=f"{manifest['estimator']}@{path}",
        train_size=int(manifest.get("fit", {}).get("n_train", 0)),
        model_size=estimator.model_size,
        fit_seconds=0.0,
        predict_seconds=predict_seconds,
        rms=rms_error(predictions, test.selectivities),
        linf=linf_error(predictions, test.selectivities),
        q_quantiles=q_error_quantiles(predictions, test.selectivities),
    )


def _cmd_evaluate(args) -> int:
    dataset, spec, rng = _setup(args)
    if args.train_file:
        queries, labels = load_workload(args.train_file)
        train = Workload(queries, labels)
    else:
        train = make_workload(dataset, args.train, rng, spec=spec)
    if args.test_file:
        queries, labels = load_workload(args.test_file)
        test = Workload(queries, labels)
    else:
        test = make_workload(dataset, args.test, rng, spec=spec)

    factories = estimator_factories()
    method_names = [m.strip() for m in args.methods.split(",") if m.strip()]
    unknown = [m for m in method_names if m not in factories]
    if unknown:
        print(
            f"error: unknown method(s) {unknown}; choose from {sorted(factories)}",
            file=sys.stderr,
        )
        return 2
    artifacts = (
        [p.strip() for p in args.load.split(",") if p.strip()]
        if getattr(args, "load", None)
        else []
    )

    rows = []
    for name in method_names:
        estimator = factories[name](len(train))
        result = evaluate_estimator(
            name, estimator, train, test, sanitize_policy=args.sanitize
        )
        row = result.row()
        if args.sanitize is not None:
            row["quarantined"] = result.quarantined
        rows.append(row)
    for path in artifacts:
        rows.append(_evaluate_artifact(path, test).row())
    print(
        format_table(
            rows,
            title=(
                f"{dataset.name}: {args.query_kind} queries, {args.center_kind} centers "
                f"(train={len(train)}, test={len(test)})"
            ),
        )
    )
    return 0


def _cmd_inspect(args) -> int:
    import json

    from repro.persistence import load_manifest

    manifest = load_manifest(args.artifact)
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


def _cmd_serve(args) -> int:
    import socket

    from repro.observability import configure_logging, set_trace_logging
    from repro.server import EstimatorService
    from repro.serving import ServingConfig, Supervisor, worker_main

    configure_logging(json_mode=args.log_json)
    if args.log_json:
        set_trace_logging(True)
    factories = estimator_factories()
    if args.method not in factories:
        print(
            f"error: unknown method {args.method!r}; choose from {sorted(factories)}",
            file=sys.stderr,
        )
        return 2
    factory = factories[args.method]
    if args.workers > 1 and args.snapshot_dir is None:
        print(
            "error: --workers > 1 requires --snapshot-dir (workers share "
            "models through the snapshot store)",
            file=sys.stderr,
        )
        return 2

    def make_service() -> EstimatorService:
        return EstimatorService(
            lambda: factory(args.expected_train),
            retrain_every=args.retrain_every,
            min_feedback=args.min_feedback,
            sanitize_policy=args.sanitize,
            feedback_capacity=args.feedback_capacity,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
            retrain_timeout=args.retrain_timeout,
            incremental_updates=args.incremental,
            update_residual_budget=args.update_budget,
            snapshot_dir=args.snapshot_dir,
            snapshot_keep=args.snapshot_keep,
            seed=args.seed if hasattr(args, "seed") else 0,
        )

    if args.ops_port is not None and args.workers <= 1:
        print(
            "error: --ops-port requires --workers > 1 (the ops endpoint "
            "is served by the pool supervisor)",
            file=sys.stderr,
        )
        return 2
    config = ServingConfig(
        workers=max(1, args.workers),
        max_concurrency=args.max_concurrency,
        queue_depth=args.queue_depth,
        deadline_ms=args.deadline_ms,
        drain_timeout_s=args.drain_timeout,
        access_log=args.access_log,
        ops_port=args.ops_port,
    )
    banner = (
        f"(sanitize={args.sanitize}, breaker k={args.breaker_threshold}, "
        f"deadline {args.deadline_ms:g}ms, queue {args.queue_depth}, "
        f"metrics at /metrics)"
    )

    if args.workers > 1:
        supervisor = Supervisor(
            make_service, config=config, host=args.host, port=args.port
        )
        host, port = supervisor.start()
        print(
            f"serving {args.method} on http://{host}:{port} with "
            f"{args.workers} workers {banner}"
        )
        if args.ops_port is not None:
            ops_host, ops_port = supervisor.ops_address
            print(
                f"ops endpoint on http://{ops_host}:{ops_port} "
                "(aggregated /metrics, /workers, /health)"
            )
        report = supervisor.run_forever()  # blocks until SIGTERM/SIGINT
        print(
            f"pool drained (clean: {report['drained']}, "
            f"killed: {report['killed']})"
        )
        return 1 if report["killed"] else 0

    # Single process: same admission/deadline envelope and the
    # same SIGTERM graceful drain (stop accepting, flush in-flight,
    # snapshot, exit 0) — what systemd/containers expect of `repro serve`.
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((args.host, args.port))
    sock.listen(128)
    host, port = sock.getsockname()[:2]
    print(f"serving {args.method} on http://{host}:{port} {banner}")
    worker_main(0, make_service, config, sock)  # returns after drain
    print("drained")
    return 0


def _scrape(url: str, timeout: float) -> str:
    import urllib.request

    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8")


def _cmd_metrics(args) -> int:
    import urllib.error

    url = args.url or f"http://{args.host}:{args.port}/metrics"
    try:
        body = _scrape(url, args.timeout)
    except (urllib.error.URLError, OSError) as exc:
        print(f"error: could not scrape {url}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(body)
    if args.lint:
        from repro.observability import lint_exposition

        problems = lint_exposition(body)
        for problem in problems:
            print(f"lint: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(f"# lint ok ({url})", file=sys.stderr)
    return 0


def _cmd_top(args) -> int:
    import json
    import urllib.error

    from repro.observability import parse_exposition

    base = f"http://{args.host}:{args.port}"
    try:
        workers = json.loads(_scrape(f"{base}/workers", args.timeout))
        health = json.loads(_scrape(f"{base}/health", args.timeout))
        exposition = _scrape(f"{base}/metrics", args.timeout)
    except (urllib.error.URLError, OSError, ValueError) as exc:
        print(
            f"error: could not reach ops endpoint {base}: {exc}",
            file=sys.stderr,
        )
        return 1
    families, _ = parse_exposition(exposition)
    if args.json:
        print(json.dumps({"health": health, "workers": workers}, indent=2))
        return 0

    status = health.get("status", "?")
    alive = health.get("alive", "?")
    total = health.get("workers", "?")
    print(f"fleet: {status}  workers {alive}/{total}")
    for reason in health.get("reasons", []):
        print(f"  ! {reason}")

    slots = workers.get("slots", [])
    print(
        f"{'id':>3} {'pid':>7} {'alive':>5} {'status':>9} {'inc':>4} "
        f"{'restarts':>8} {'executing':>9} {'waiting':>7}"
    )
    for slot in slots:
        payload = slot.get("last_payload") or {}
        admission = payload.get("admission") or {}
        print(
            f"{slot.get('index', '?'):>3} {slot.get('pid') or '-':>7} "
            f"{str(slot.get('alive')):>5} {payload.get('status') or '?':>9} "
            f"{slot.get('incarnation', 0):>4} {slot.get('restarts', 0):>8} "
            f"{admission.get('executing', 0):>9} {admission.get('waiting', 0):>7}"
        )

    headline = (
        ("queries", "repro_service_queries_total"),
        ("cache_hits", "repro_prediction_cache_hits_total"),
        ("cache_misses", "repro_prediction_cache_misses_total"),
        ("shed", "repro_requests_shed_total"),
        ("retrains", "repro_retrain_total"),
    )
    parts = []
    for label, metric in headline:
        family = families.get(metric)
        if family is None or family.get("type") == "histogram":
            continue
        # The aggregated page carries per-worker series; the fleet total
        # is their sum.
        value = sum(sample[2] for sample in family["samples"])
        parts.append(f"{label}={value:g}")
    if parts:
        print("fleet counters: " + "  ".join(parts))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "inspect":
            return _cmd_inspect(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        if args.command == "top":
            return _cmd_top(args)
        return _cmd_evaluate(args)
    except ReproError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
