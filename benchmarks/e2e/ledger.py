"""The per-layer ledger: scraped counters plus traced self times.

Two sources, both read from outside the program:

* deltas of the worker's ``/metrics`` series over the measured window
  (request stages, cache, coalescer, dispatch and update counters);
* span records from the traced run (:mod:`benchmarks.e2e.tracer`).  A
  span's self time is its duration minus the durations of its direct
  children.

Every per-layer metric named in ``BENCHMARK.json`` is computed for every
workload.  Metrics that exist on one workload only (incremental updates)
are reported in the ledger's ``extra`` section instead.
"""

from __future__ import annotations

from collections import defaultdict

from benchmarks.e2e.scrape import delta

#: (name, unit) of the per-layer metrics, in ``BENCHMARK.json`` order.
PER_LAYER = (
    ("server.http.unattributed_us", "us"),
    ("server.decode_us_per_query", "us"),
    ("client.transport_us", "us"),
    ("client.cpu_ms_per_request", "ms"),
    ("service.estimate_many_self_us", "us"),
    ("service.cache_hit_ratio", "ratio"),
    ("serving.admission.wait_us", "us"),
    ("serving.coalesce.wait_us", "us"),
    ("serving.coalesce.queries_per_flush", "count"),
    ("serving.worker.cpu_ms_per_request", "ms"),
    ("core.predict_many_self_us_per_query", "us"),
    ("core.fit.sanitize_s", "s"),
    ("core.fit.partition_s", "s"),
    ("core.fit.design_matrix_s", "s"),
    ("core.fit.solve_s", "s"),
    ("geometry.index.lookup_us_per_query", "us"),
    ("geometry.index.candidates_per_query", "count"),
    ("geometry.sparse.dense_share", "ratio"),
    ("geometry.kernel.dense_us_per_query", "us"),
    ("geometry.kernel.sparse_us_per_query", "us"),
    ("solvers.solve_ms", "ms"),
    ("persistence.save_ms", "ms"),
    ("persistence.restore_ms", "ms"),
)

FIT_STAGES = {
    "fit/sanitize": "sanitize",
    "fit/partition": "partition",
    "fit/design-matrix": "design_matrix",
    "fit/solve": "solve",
}
#: Spans inside one served read: the coalesced ``estimate_many`` subtree.
READ_ROOT = "service.estimate_many"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


class SpanTree:
    """Span records of one or more processes, indexed by ``(pid, sid)``."""

    def __init__(self, records):
        self.spans = [r for r in records if "sid" in r]
        self.leaves = [r for r in records if "leaf" in r]
        self.by_key = {(r["pid"], r["sid"]): r for r in self.spans}
        self.children = defaultdict(list)
        for r in self.spans:
            if r["parent"] is not None:
                self.children[(r["pid"], r["parent"])].append(r)

    @staticmethod
    def duration(record) -> float:
        return record["end"] - record["start"]

    def self_time(self, record) -> float:
        kids = self.children[(record["pid"], record["sid"])]
        return self.duration(record) - sum(self.duration(k) for k in kids)

    def ancestors(self, record):
        parent = record["parent"]
        while parent is not None:
            record = self.by_key.get((record["pid"], parent))
            if record is None:
                return
            yield record
            parent = record["parent"]

    def outermost(self, record, names) -> float:
        """Total duration of the outermost descendants named in ``names``."""
        total = 0.0
        for kid in self.children[(record["pid"], record["sid"])]:
            if kid["name"] in names:
                total += self.duration(kid)
            else:
                total += self.outermost(kid, names)
        return total

    def leaf_totals(self, pid: int, window: tuple) -> tuple[float, int]:
        """``(seconds, calls)`` of the leaf timings of ``pid`` inside ``window``."""
        inside = [
            leaf for leaf in self.leaves
            if leaf["pid"] == pid and leaf["start"] >= window[0] and leaf["end"] <= window[1]
        ]
        return sum(leaf["seconds"] for leaf in inside), sum(leaf["count"] for leaf in inside)

    def select(self, name=None, pid=None, start=None, end=None):
        return [
            r
            for r in self.spans
            if (name is None or r["name"] == name)
            and (pid is None or r["pid"] == pid)
            and (start is None or r["start"] >= start)
            and (end is None or r["end"] <= end)
        ]


def stage_seconds(after: dict, before: dict, stage: str) -> tuple[float, float]:
    """``(sum, count)`` of one ``repro_request_stage_seconds`` stage."""
    return (
        delta(after, before, "repro_request_stage_seconds_sum", stage=stage),
        delta(after, before, "repro_request_stage_seconds_count", stage=stage),
    )


def scraped(after: dict, before: dict) -> dict:
    """Window deltas of the worker's own counters, per layer."""
    total_s, total_n = stage_seconds(after, before, "total")
    queue_s, queue_n = stage_seconds(after, before, "queue")
    coalesce_s, coalesce_n = stage_seconds(after, before, "coalesce")
    kernel_s, _ = stage_seconds(after, before, "kernel")
    hits = delta(after, before, "repro_prediction_cache_hits_total")
    misses = delta(after, before, "repro_prediction_cache_misses_total")
    calls = {
        (kernel, path): delta(after, before, "repro_sparse_calls_total", kernel=kernel, path=path)
        for kernel in ("box", "halfspace", "ball")
        for path in ("sparse", "dense")
    }
    all_calls = sum(calls.values())
    dense_calls = sum(v for (_, path), v in calls.items() if path == "dense")
    updates_ok = delta(after, before, "repro_update_total", outcome="success")
    updates_fallback = delta(after, before, "repro_update_total", outcome="fallback")
    return {
        "stages": {
            "total": (total_s, total_n),
            "queue": (queue_s, queue_n),
            "coalesce": (coalesce_s, coalesce_n),
            "kernel": (kernel_s, total_n),
        },
        "server.http.unattributed_us": _ratio(
            total_s - queue_s - coalesce_s - kernel_s, total_n
        ) * 1e6,
        "serving.admission.wait_us": _ratio(queue_s, queue_n) * 1e6,
        "serving.coalesce.wait_us": _ratio(coalesce_s, coalesce_n) * 1e6,
        "serving.coalesce.queries_per_flush": _ratio(
            delta(after, before, "repro_coalesced_queries_total"),
            delta(after, before, "repro_coalesced_batches_total"),
        ),
        "service.cache_hit_ratio": _ratio(hits, hits + misses),
        "geometry.index.candidates_per_query": _ratio(
            delta(after, before, "repro_sparse_candidates"),
            delta(after, before, "repro_predict_queries_total"),
        ),
        "geometry.sparse.dense_share": _ratio(dense_calls, all_calls),
        "extra": {
            **{
                f"geometry.sparse.dense_share.{kernel}": _ratio(
                    calls[(kernel, "dense")],
                    calls[(kernel, "dense")] + calls[(kernel, "sparse")],
                )
                for kernel in ("box", "halfspace", "ball")
            },
            "serving.admission.shed": delta(after, before, "repro_requests_shed_total")
            + delta(after, before, "repro_deadline_expired_total"),
            "service.update_ms": _ratio(
                delta(after, before, "repro_update_seconds_sum"),
                delta(after, before, "repro_update_seconds_count"),
            ) * 1e3,
            "service.incremental_share": _ratio(
                updates_ok, updates_ok + updates_fallback
            ),
        },
    }


def traced(tree: SpanTree, worker_pid: int, window: tuple, setup: tuple) -> dict:
    """Per-layer self times from the span records of a traced run."""
    w0, w1 = window

    def in_window(name: str | None = None):
        return tree.select(name, pid=worker_pid, start=w0, end=w1)

    def per_query(name: str) -> float:
        spans = in_window(name)
        return _ratio(
            sum(tree.self_time(r) for r in spans), sum(r["n"] or 0 for r in spans)
        ) * 1e6

    def mean_duration(name: str, spans) -> float:
        return _mean(tree.duration(r) for r in spans if r["name"] == name)

    def under_update(record) -> bool:
        return any(a["name"] == "service/update" for a in tree.ancestors(record))

    # Fits happen in set-up: in this process for a restored model, in the
    # worker for a seeded one.  Saves, loads and solves are averaged over
    # the whole run, every process included.
    setup_spans = [
        r for r in tree.select(start=setup[0], end=setup[1]) if not under_update(r)
    ]
    updates = in_window("service.update")
    update_stages = [r for r in in_window() if r["name"] in FIT_STAGES and under_update(r)]
    solves = tree.select("fit/solve")
    decode_s, decoded = tree.leaf_totals(worker_pid, window)
    out = {
        "server.decode_us_per_query": _ratio(decode_s, decoded) * 1e6,
        "service.estimate_many_self_us": _mean(
            tree.self_time(r) for r in in_window("service.estimate_many")
        ) * 1e6,
        "core.predict_many_self_us_per_query": per_query("core.predict_many"),
        "geometry.index.lookup_us_per_query": per_query("geometry.index"),
        "geometry.kernel.dense_us_per_query": per_query("geometry.dense"),
        "geometry.kernel.sparse_us_per_query": per_query("geometry.sparse"),
        "solvers.solve_ms": _mean(tree.duration(r) for r in solves) * 1e3,
        "persistence.save_ms": mean_duration("persistence.save", tree.spans) * 1e3,
        "persistence.restore_ms": mean_duration("persistence.load", tree.spans) * 1e3,
        "extra": {
            "service.update_self_ms": _mean(
                tree.duration(r) - tree.outermost(r, {"core.partial_fit", "persistence.save"})
                for r in updates
            ) * 1e3,
            "service.retrain_s": mean_duration("service.retrain", setup_spans),
            "solvers.fallback_share": _ratio(
                sum(1 for r in solves if r["fallback"]), len(solves)
            ),
            **{
                f"core.update.{stage}_ms": mean_duration(name, update_stages) * 1e3
                for name, stage in FIT_STAGES.items()
                if stage != "sanitize"
            },
        },
    }
    for name, stage in FIT_STAGES.items():
        out[f"core.fit.{stage}_s"] = mean_duration(name, setup_spans)
    return out


def read_path(tree: SpanTree, worker_pid: int, window: tuple) -> dict:
    """Self time per span name inside the served reads, summed (seconds)."""
    w0, w1 = window
    rows: dict[str, float] = defaultdict(float)
    for r in tree.select(pid=worker_pid, start=w0, end=w1):
        chain = [r, *tree.ancestors(r)]
        if chain[-1]["name"] == READ_ROOT:
            rows[r["name"]] += tree.self_time(r)
    return dict(rows)


def request_ledger(stages: dict, kernel_rows: dict, decode_s: float) -> dict:
    """Mean microseconds per request on the blocking path, and the closure.

    The scraped ``kernel`` stage is replaced by the traced self times of
    the read path; ``closure`` is how far attributed plus unattributed
    time misses the scraped server total, as a share of it.
    """
    total_s, n = stages["total"]
    queue_s, coalesce_s, kernel_s = (stages[k][0] for k in ("queue", "coalesce", "kernel"))
    rows = {
        "serving.admission.wait": queue_s,
        "serving.coalesce.wait": coalesce_s,
        "server.decode": decode_s,
        **kernel_rows,
        "server.http.unattributed": total_s - queue_s - coalesce_s - kernel_s - decode_s,
    }
    attributed = sum(rows.values())
    return {
        "us_per_request": {k: _ratio(v, n) * 1e6 for k, v in rows.items()},
        "server_total_us": _ratio(total_s, n) * 1e6,
        "closure": _ratio(attributed - total_s, total_s),
    }
