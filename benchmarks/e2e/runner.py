"""One pass of one workload: set up, warm up, measure, check every answer."""

from __future__ import annotations

import json
import math
import statistics
import tempfile
import time
from dataclasses import dataclass, field

import repro.persistence as persistence
from repro.persistence import SnapshotStore

from benchmarks.e2e import ledger
from benchmarks.e2e.loadgen import drive, send_all
from benchmarks.e2e.pool import boot
from benchmarks.e2e.scrape import cpu_seconds, delta, scrape, status
from benchmarks.e2e.stats import latency_summary, percentile, supported
from benchmarks.e2e.tracer import Tracer, load_records
from benchmarks.e2e.workloads import RETRAIN_EVERY, eval_requests

#: (name, unit, better) of the end-to-end metrics, in ``BENCHMARK.json`` order.
#: Tail percentiles are diagnostics: on feedback-mixed the ~8% of reads
#: that overlap an update put p90 on the edge of the stall and p99 inside
#: it, and both move by 30-300% between runs.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("throughput_qps", "queries/s", "higher"),
    ("rms_error", "fraction", "lower"),
)
ESTIMATE_CHECK_EVERY = 25
PREDICT_CHECK_FIRST = 16
TOLERANCE = 1e-12
MAX_PROBLEMS_LISTED = 20


@dataclass
class PassResult:
    metrics: dict
    diagnostics: dict
    #: Per-layer metrics read from outside without shims (scrape, /proc, client).
    layers: dict
    extra: dict
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    #: Traced pass only: shim self times and the per-request ledger.
    traced_layers: dict | None = None
    request_ledger: dict | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _validate(request, sample) -> tuple[list | None, str | None]:
    """The answer's values, or why the answer is wrong."""
    where = f"{request.kind} #{sample.index}"
    if sample.status != 200:
        return None, f"{where}: status {sample.status} {sample.error or sample.body[:200]!r}"
    try:
        payload = json.loads(sample.body)
    except ValueError:
        return None, f"{where}: body is not JSON"
    if request.kind == "feedback":
        if payload.get("accepted") is not True:
            return None, f"{where}: feedback not accepted: {payload}"
        return [], None
    if request.kind == "estimate":
        values = [payload.get("selectivity")]
    else:
        values = payload.get("selectivities")
        if not isinstance(values, list) or payload.get("count") != len(request.queries) or len(
            values
        ) != len(request.queries):
            return None, f"{where}: count {payload.get('count')} for {len(request.queries)} queries"
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not (
            math.isfinite(v) and 0.0 <= v <= 1.0
        ):
            return None, f"{where}: answer {v!r} is not a finite value in [0, 1]"
    return values, None


def _latest(snapshot_dir: str):
    """The newest persisted generation, loaded as the reference model."""
    store = SnapshotStore(snapshot_dir)
    generation = store.latest_generation()
    return persistence.load_model(store.path_for(generation)), generation


def _feedback_lane(request) -> int:
    # Feedback travels on its own connection, as from an optimizer's
    # asynchronous feedback reporter.  Sharing both connections, an update
    # that blocks one would also hold up the reads queued behind it in the
    # client, and feedback sent during an update triggers a second update.
    return int(request.kind == "feedback")


def _check_answers(phases, reference, seeded: bool):
    """Validate every answer and compare a sample with the reference model.

    Returns the failed request keys, what was wrong, and the held-out
    answers in order (None where a request failed).
    """
    problems: list[str] = []
    failed: set = set()
    checks = []  # (key, query, served value)
    eval_values: list = []
    for phase, samples, requests in phases:
        for sample in samples:
            request = requests[sample.index % len(requests)]
            values, problem = _validate(request, sample)
            key = (phase, sample.index)
            if problem is not None:
                failed.add(key)
                problems.append(f"{phase} {problem}")
                if phase == "eval":
                    eval_values.extend([None] * len(request.queries))
                continue
            if phase == "eval":
                eval_values.extend(values)
                checks.extend((key, q, v) for q, v in zip(request.queries, values))
            elif request.kind == "predict":
                checks.extend(zip([key] * PREDICT_CHECK_FIRST, request.queries, values))
            elif (
                request.kind == "estimate"
                and not seeded  # its estimates span many generations
                and sample.index % ESTIMATE_CHECK_EVERY == 0
            ):
                checks.append((key, request.queries[0], values[0]))
    expected = reference.predict_many([q for _, q, _ in checks]) if checks else []
    for (key, _, served), want in zip(checks, expected):
        if abs(served - want) > TOLERANCE and key not in failed:
            failed.add(key)
            problems.append(f"{key[0]} #{key[1]}: served {served!r}, reference {want!r}")
    return failed, problems, eval_values


def run_pass(workload, inputs, *, seconds, warmup_s, setups, workdir, traced=False) -> PassResult:
    tracer = Tracer() if traced else None
    trace_dir = tempfile.mkdtemp(prefix="trace-", dir=workdir) if traced else None
    held_out = eval_requests(inputs)
    pool = None
    if tracer is not None:
        tracer.install()
    try:
        setup_start = time.perf_counter()
        setup_times = []
        for _ in range(setups):
            if pool is not None:
                pool.stop()
            pool = boot(workload, inputs, workdir, tracer, trace_dir)
            setup_times.append(pool.setup_s)
        setup_end = time.perf_counter()
        address, pid = pool.address, pool.pid
        lane = _feedback_lane if workload.seeded else None
        warm = drive(
            address, inputs.warmup, time.perf_counter(), warmup_s, workload.rate,
            workload.connections, lane,
        )
        before, status_before = scrape(address), status(address)
        cpu_before, client_before = cpu_seconds(pid), time.process_time()
        w0 = time.perf_counter()
        window = drive(
            address, inputs.traffic, w0, seconds, workload.rate, workload.connections, lane
        )
        w1 = time.perf_counter()
        cpu_after, client_after = cpu_seconds(pid), time.process_time()
        after, status_after = scrape(address), status(address)
        reference, reference_generation = _latest(pool.snapshot_dir)
        evaluated = send_all(address, held_out)
        pool.stop()
        pool = None
        records = tracer.drain() + load_records(trace_dir) if tracer is not None else []
    finally:
        if pool is not None:
            pool.stop()
        if tracer is not None:
            tracer.uninstall()

    phases = (
        ("warmup", warm, inputs.warmup),
        ("window", window, inputs.traffic),
        ("eval", evaluated, held_out),
    )
    failed, problems, eval_values = _check_answers(phases, reference, workload.seeded)
    if status_after["generation"] != reference_generation:
        failed.add(("generation", "reference"))
        problems.append(
            f"served generation {status_after['generation']} is not the newest "
            f"snapshot {reference_generation}"
        )

    measured = [(s, inputs.traffic[s.index % len(inputs.traffic)]) for s in window]
    triggered = []
    if workload.seeded:
        for sample, request in measured:
            if request.kind == "feedback" and sample.status == 200:
                if json.loads(sample.body).get("pending", 0) >= RETRAIN_EVERY:
                    triggered.append(sample)
        restores = delta(after, before, "repro_service_requests_total", method="restore")
        advanced = status_after["generation"] - status_before["generation"]
        if advanced != len(triggered) + restores:
            failed.add(("generation", "advance"))
            problems.append(
                f"generation advanced {advanced} times for {len(triggered)} "
                f"triggered updates and {restores:g} reloads"
            )
    # Every request sent, plus the generation checks above.
    attempted = len(warm) + len(window) + len(evaluated) + (2 if workload.seeded else 1)

    # -- end-to-end metrics -----------------------------------------------
    main = "predict" if workload.name == "bulk-predict" else "estimate"
    ok = [(s, r) for s, r in measured if s.status == 200]
    latencies = [s.latency * 1e3 for s, r in ok if r.kind == main]
    if not latencies or None in eval_values:
        raise RuntimeError("nothing to measure: " + "; ".join(problems[:5]))
    # Work completed over the time it took, up to the last answer.
    served = sum(len(r.queries) for _, r in ok)
    elapsed = max(s.done for s, _ in ok) - w0
    squared = [(v - y) ** 2 for v, y in zip(eval_values, inputs.eval_labels)]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "latency_p50_ms": percentile(latencies, 50),
        "throughput_qps": served / elapsed,
        "rms_error": math.sqrt(statistics.fmean(squared)),
    }
    tails = latency_summary(latencies)
    diagnostics = {
        "error_share": len(failed) / attempted,
        "latency_samples": tails["n"],
        "latency_p90_ms": tails["p90"],
        "latency_p99_ms": tails["p99"],
        "setup_s_each": setup_times,
        "requests": len(window),
    }
    if workload.rate is not None:
        diagnostics["client.late_p99_ms"] = percentile([s.late * 1e3 for s in window], 99)
    if workload.seeded:
        diagnostics.update(_update_diagnostics(ok, triggered, latencies, main))

    # -- per-layer metrics read from outside --------------------------------
    scraped = ledger.scraped(after, before)
    total_s, total_n = scraped["stages"]["total"]
    layers = {
        name: scraped[name] for name, _ in ledger.PER_LAYER if name in scraped
    }
    layers["client.transport_us"] = (
        statistics.fmean(s.done - s.sent for s in window) - total_s / total_n
    ) * 1e6
    layers["client.cpu_ms_per_request"] = (client_after - client_before) * 1e3 / len(window)
    layers["serving.worker.cpu_ms_per_request"] = (cpu_after - cpu_before) * 1e3 / len(window)
    result = PassResult(
        metrics=metrics,
        diagnostics=diagnostics,
        layers=layers,
        extra=dict(scraped["extra"]),
        attempted=attempted,
        failed=len(failed),
        problems=problems[:MAX_PROBLEMS_LISTED],
    )
    if tracer is not None:
        tree = ledger.SpanTree(records)
        traced_layers = ledger.traced(tree, pid, (w0, w1), (setup_start, setup_end))
        result.extra.update(traced_layers.pop("extra"))
        result.traced_layers = traced_layers
        result.request_ledger = ledger.request_ledger(
            scraped["stages"],
            ledger.read_path(tree, pid, (w0, w1)),
            tree.leaf_totals(pid, (w0, w1))[0],
        )
    return result


def _update_diagnostics(ok, triggered, latencies, main) -> dict:
    """Update latency, and how much of the read tail the updates cause."""
    stalls = [(s.sent, s.done) for s in triggered]
    reads = [s for s, r in ok if r.kind == main]

    def overlaps(sample) -> bool:
        return any(a < sample.done and sample.due < b for a, b in stalls)

    clean = [s.latency * 1e3 for s in reads if not overlaps(s)]
    out = {
        "updates_triggered": len(triggered),
        "update_p50_ms": percentile([s.latency * 1e3 for s in triggered], 50)
        if triggered else None,
        "reads_overlapping_updates": sum(1 for s in reads if overlaps(s)) / len(reads),
    }
    if supported(len(latencies), 99) and supported(len(clean), 99):
        p99, p99_clean = percentile(latencies, 99), percentile(clean, 99)
        out["latency_p99_without_update_overlap_ms"] = p99_clean
        out["update_share_of_p99"] = (p99 - p99_clean) / p99
    return out
