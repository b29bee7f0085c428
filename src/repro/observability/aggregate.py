"""Fleet-wide metric aggregation: mergeable registry snapshots.

A pre-fork pool (:mod:`repro.serving`) gives every worker its own
process-local :class:`~repro.observability.MetricsRegistry`, so a
``GET /metrics`` scrape through the kernel-balanced shared socket
returns one arbitrary worker's counters — useless for fleet-level
signals like total queries, aggregate cache-hit rate, or tail latency.
This module makes registries *mergeable*:

* :func:`snapshot_registry` / :func:`snapshot_registries` — a compact,
  picklable snapshot of every counter, gauge and histogram series.
  Workers piggyback these on the heartbeat pipe they already own.
* :class:`FleetAggregator` — the supervisor-side merge.  Counters sum
  across workers; gauges keep a per-``worker`` label plus a fleet
  reduction (sum by default, max where that is the meaningful fleet
  value — e.g. the newest model generation); fixed-bucket histograms
  merge *exactly* bucket-by-bucket.

**Reset tracking.**  A SIGKILLed worker restarts with zeroed counters.
Naively summing the latest snapshots would make fleet totals go
*backwards* at every respawn — poison for rate() queries and for the
monotonicity invariant the chaos harness asserts.  The aggregator
therefore tracks a per-slot *incarnation* number (bumped by the
supervisor on every spawn): when a new incarnation reports in, the
previous incarnation's final counter and histogram values are folded
into a per-slot monotone *base*, and fleet totals are always
``base + current``.  Totals never decrease, and nothing a dead
incarnation reported is ever lost.

The aggregator renders the merged fleet in the Prometheus text
exposition format (the supervisor's ops endpoint serves it) and as a
JSON dict (``/workers``, ``repro top``).
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    _format_labels,
    _format_value,
)

__all__ = [
    "snapshot_registry",
    "snapshot_registries",
    "merge_snapshots",
    "FleetAggregator",
    "GAUGE_MAX_REDUCTIONS",
]

#: Gauges whose meaningful fleet reduction is ``max`` rather than
#: ``sum`` — "the newest generation anywhere" / "the most recent
#: snapshot anywhere".  Everything else (inflight, queue depth, pending
#: feedback, worker-up flags ...) sums.
GAUGE_MAX_REDUCTIONS = frozenset(
    {
        "repro_model_generation",
        "repro_model_size",
        "repro_snapshot_generation",
        "repro_snapshot_timestamp_seconds",
        "repro_breaker_state",
        "repro_drift_statistic",
    }
)


def snapshot_registry(registry: MetricsRegistry) -> dict:
    """Compact, picklable snapshot of every series in ``registry``.

    Shape (all values plain Python scalars/lists/tuples)::

        {
          "counters":   {name: {"help": ..., "labels": (...),
                                "series": {key_tuple: value}}},
          "gauges":     {... same ...},
          "histograms": {name: {"help": ..., "labels": (...),
                                "buckets": (...),
                                "series": {key_tuple: (counts, sum, count)}}},
        }
    """
    snap: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for metric in registry.collect():
        if isinstance(metric, Histogram):
            snap["histograms"][metric.name] = {
                "help": metric.help,
                "labels": metric.label_names,
                "buckets": metric.buckets,
                "series": {
                    key: (list(state.counts), state.sum, state.count)
                    for key, state in metric.series()
                },
            }
        elif isinstance(metric, (Counter, Gauge)):
            kind = "counters" if isinstance(metric, Counter) else "gauges"
            snap[kind][metric.name] = {
                "help": metric.help,
                "labels": metric.label_names,
                "series": {key: float(value) for key, value in metric.series()},
            }
    return snap


def snapshot_registries(*registries: MetricsRegistry) -> dict:
    """Snapshot several registries into one (first registry wins on a
    metric-name collision) — the worker-side analogue of rendering the
    service registry plus the process-global one in a single scrape."""
    merged: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for registry in registries:
        snap = snapshot_registry(registry)
        for kind in merged:
            for name, entry in snap[kind].items():
                merged[kind].setdefault(name, entry)
    return merged


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Pure merge of registry snapshots (no reset tracking): counters and
    histogram buckets sum element-wise, gauges keep the last value seen.

    Used by tests to state the aggregation-correctness invariant
    ("merged ≡ sum of the parts") and by offline tooling; the live
    supervisor path goes through :class:`FleetAggregator`, which adds
    per-incarnation reset handling on top of exactly this arithmetic.
    """
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for snap in snapshots:
        for name, entry in snap.get("counters", {}).items():
            slot = out["counters"].setdefault(
                name, {"help": entry["help"], "labels": entry["labels"], "series": {}}
            )
            for key, value in entry["series"].items():
                slot["series"][key] = slot["series"].get(key, 0.0) + value
        for name, entry in snap.get("gauges", {}).items():
            slot = out["gauges"].setdefault(
                name, {"help": entry["help"], "labels": entry["labels"], "series": {}}
            )
            slot["series"].update(entry["series"])
        for name, entry in snap.get("histograms", {}).items():
            slot = out["histograms"].setdefault(
                name,
                {
                    "help": entry["help"],
                    "labels": entry["labels"],
                    "buckets": tuple(entry["buckets"]),
                    "series": {},
                },
            )
            if tuple(entry["buckets"]) != slot["buckets"]:
                continue  # incompatible layout: first writer wins
            for key, (counts, acc, total) in entry["series"].items():
                existing = slot["series"].get(key)
                if existing is None:
                    slot["series"][key] = (list(counts), float(acc), int(total))
                else:
                    merged_counts = [a + b for a, b in zip(existing[0], counts)]
                    slot["series"][key] = (
                        merged_counts,
                        existing[1] + float(acc),
                        existing[2] + int(total),
                    )
    return out


class _SlotState:
    """Latest snapshot + monotone base for one worker slot."""

    __slots__ = ("incarnation", "current", "base")

    def __init__(self):
        self.incarnation = -1
        self.current: dict | None = None
        # base: {"counters": {name: {key: value}},
        #        "histograms": {name: {key: (counts, sum, count)}}}
        self.base: dict = {"counters": {}, "histograms": {}}

    def fold_current_into_base(self) -> None:
        """Retire the current incarnation: its final counter/histogram
        values join the permanent base so fleet totals never regress."""
        if self.current is None:
            return
        for name, entry in self.current.get("counters", {}).items():
            slot = self.base["counters"].setdefault(name, {})
            for key, value in entry["series"].items():
                slot[key] = slot.get(key, 0.0) + value
        for name, entry in self.current.get("histograms", {}).items():
            slot = self.base["histograms"].setdefault(name, {})
            for key, (counts, acc, total) in entry["series"].items():
                existing = slot.get(key)
                if existing is None:
                    slot[key] = (list(counts), float(acc), int(total))
                else:
                    slot[key] = (
                        [a + b for a, b in zip(existing[0], counts)],
                        existing[1] + float(acc),
                        existing[2] + int(total),
                    )
        self.current = None


class FleetAggregator:
    """Supervisor-side merged view over per-worker registry snapshots.

    Thread-safe: the supervisor's monitor thread calls :meth:`observe`
    while the ops HTTP server calls :meth:`render`/:meth:`to_dict`
    concurrently.
    """

    def __init__(self, gauge_max: Iterable[str] = GAUGE_MAX_REDUCTIONS):
        self._lock = threading.Lock()
        self._slots: dict[str, _SlotState] = {}
        self._gauge_max = frozenset(gauge_max)
        self._updates = 0

    # -- ingest ------------------------------------------------------------

    def observe(self, worker: str | int, incarnation: int, snapshot: dict) -> None:
        """Record ``worker``'s latest snapshot.

        A higher ``incarnation`` than previously seen for this slot folds
        the old incarnation's final values into the slot's base first; a
        *lower* one is a stale out-of-order heartbeat and is dropped.
        """
        worker = str(worker)
        incarnation = int(incarnation)
        with self._lock:
            state = self._slots.setdefault(worker, _SlotState())
            if incarnation < state.incarnation:
                return  # stale heartbeat from a dead incarnation
            if incarnation > state.incarnation:
                state.fold_current_into_base()
                state.incarnation = incarnation
            state.current = snapshot
            self._updates += 1

    def forget(self, worker: str | int) -> None:
        """Retire a slot permanently (its totals stay in the base)."""
        with self._lock:
            state = self._slots.get(str(worker))
            if state is not None:
                state.fold_current_into_base()

    # -- merged views ------------------------------------------------------

    def _merged_locked(self) -> dict:
        """Counters/histograms: base + current summed across slots.
        Gauges: latest value per slot, keyed by worker.  Caller holds
        the lock."""
        merged = merge_snapshots(
            state.current for state in self._slots.values() if state.current
        )
        # Fold the retired incarnations' bases into the live sums.
        for worker, state in self._slots.items():
            for name, series in state.base["counters"].items():
                slot = merged["counters"].get(name)
                if slot is None:
                    # Every live registry declares its metrics up front,
                    # but a metric can exist only in a dead incarnation
                    # (e.g. a renamed series): carry it with no help text.
                    slot = merged["counters"][name] = {
                        "help": "",
                        "labels": self._base_labels(name),
                        "series": {},
                    }
                for key, value in series.items():
                    slot["series"][key] = slot["series"].get(key, 0.0) + value
            for name, series in state.base["histograms"].items():
                slot = merged["histograms"].get(name)
                if slot is None:
                    continue  # bucket layout unknown without a live twin
                for key, (counts, acc, total) in series.items():
                    existing = slot["series"].get(key)
                    if existing is None:
                        slot["series"][key] = (list(counts), float(acc), int(total))
                    elif len(existing[0]) == len(counts):
                        slot["series"][key] = (
                            [a + b for a, b in zip(existing[0], counts)],
                            existing[1] + float(acc),
                            existing[2] + int(total),
                        )
        # Gauges: re-derive per-worker series (merge_snapshots collapsed
        # them last-writer-wins, which is wrong across workers).
        merged["gauges"] = {}
        for worker, state in sorted(self._slots.items()):
            if not state.current:
                continue
            for name, entry in state.current.get("gauges", {}).items():
                slot = merged["gauges"].setdefault(
                    name,
                    {"help": entry["help"], "labels": entry["labels"], "series": {}},
                )
                for key, value in entry["series"].items():
                    slot["series"][(worker,) + tuple(key)] = value
        return merged

    def _base_labels(self, name: str) -> tuple:
        for state in self._slots.values():
            if state.current and name in state.current.get("counters", {}):
                return state.current["counters"][name]["labels"]
        return ()

    def total(self, name: str, **labels) -> float:
        """Fleet total of one counter series (or the sum over all its
        series when no labels are given) — the chaos harness's
        monotonicity probe."""
        with self._lock:
            merged = self._merged_locked()
        entry = merged["counters"].get(name)
        if entry is None:
            return 0.0
        if labels:
            key = tuple(str(labels[n]) for n in entry["labels"])
            return float(entry["series"].get(key, 0.0))
        return float(sum(entry["series"].values()))

    def workers(self) -> dict:
        """Per-slot bookkeeping: incarnation and snapshot freshness."""
        with self._lock:
            return {
                worker: {
                    "incarnation": state.incarnation,
                    "has_snapshot": state.current is not None,
                }
                for worker, state in sorted(self._slots.items())
            }

    def to_dict(self) -> dict:
        """JSON-ready merged fleet view (``repro top``, tests)."""
        with self._lock:
            merged = self._merged_locked()
            updates = self._updates
        out: dict = {"updates": updates, "counters": {}, "gauges": {}, "histograms": {}}
        for name, entry in sorted(merged["counters"].items()):
            out["counters"][name] = [
                {"labels": dict(zip(entry["labels"], key)), "value": value}
                for key, value in sorted(entry["series"].items())
            ]
        for name, entry in sorted(merged["gauges"].items()):
            out["gauges"][name] = [
                {
                    "labels": dict(zip(("worker",) + tuple(entry["labels"]), key)),
                    "value": value,
                }
                for key, value in sorted(entry["series"].items())
            ]
        for name, entry in sorted(merged["histograms"].items()):
            out["histograms"][name] = [
                {
                    "labels": dict(zip(entry["labels"], key)),
                    "count": total,
                    "sum": acc,
                }
                for key, (counts, acc, total) in sorted(entry["series"].items())
            ]
        return out

    # -- exposition --------------------------------------------------------

    def render(self, extra: MetricsRegistry | None = None) -> str:
        """Prometheus text exposition of the merged fleet.

        ``extra`` (typically the supervisor's own registry: restarts,
        alive workers, storm breakers) is appended for metric names not
        already covered by the fleet merge, so one scrape of the ops
        endpoint spans both the workers and their supervisor.
        """
        with self._lock:
            merged = self._merged_locked()
        chunks: list[str] = []
        for name, entry in sorted(merged["counters"].items()):
            chunks.append(self._render_scalar(name, entry, "counter"))
        for name, entry in sorted(merged["gauges"].items()):
            chunks.append(self._render_gauge(name, entry))
        for name, entry in sorted(merged["histograms"].items()):
            chunks.append(self._render_histogram(name, entry))
        covered = (
            set(merged["counters"]) | set(merged["gauges"]) | set(merged["histograms"])
        )
        if extra is not None:
            for metric in extra.collect():
                if metric.name not in covered:
                    chunks.append(metric.render())
        return "\n".join(chunks) + ("\n" if chunks else "")

    @staticmethod
    def _render_scalar(name: str, entry: Mapping, kind: str) -> str:
        lines = [
            f"# HELP {name} {entry['help']}" if entry["help"] else f"# HELP {name} ",
            f"# TYPE {name} {kind}",
        ]
        label_names = tuple(entry["labels"])
        for key, value in sorted(entry["series"].items()):
            lines.append(
                f"{name}{_format_labels(label_names, key)} "
                f"{_format_value(float(value))}"
            )
        return "\n".join(lines)

    def _render_gauge(self, name: str, entry: Mapping) -> str:
        lines = [
            f"# HELP {name} {entry['help']}" if entry["help"] else f"# HELP {name} ",
            f"# TYPE {name} gauge",
        ]
        source_labels = tuple(entry["labels"])
        worker_already = "worker" in source_labels
        label_names = source_labels if worker_already else ("worker",) + source_labels
        reduce_max = name in self._gauge_max
        reduced: dict[tuple, float] = {}
        for key, value in sorted(entry["series"].items()):
            worker, rest = key[0], tuple(key[1:])
            # A series already carrying a worker label is attributed by
            # its own label value; the snapshot's slot id would be
            # redundant (and can disagree during a slot takeover).
            out_key = rest if worker_already else (worker,) + rest
            lines.append(
                f"{name}{_format_labels(label_names, out_key)} "
                f"{_format_value(float(value))}"
            )
            bare_key = tuple(
                v for n, v in zip(source_labels, rest) if n != "worker"
            ) if worker_already else rest
            if reduce_max:
                reduced[bare_key] = max(reduced.get(bare_key, float("-inf")), value)
            else:
                reduced[bare_key] = reduced.get(bare_key, 0.0) + value
        bare_names = tuple(n for n in source_labels if n != "worker")
        for key, value in sorted(reduced.items()):
            lines.append(
                f"{name}{_format_labels(bare_names, key)} "
                f"{_format_value(float(value))}"
            )
        return "\n".join(lines)

    @staticmethod
    def _render_histogram(name: str, entry: Mapping) -> str:
        lines = [
            f"# HELP {name} {entry['help']}" if entry["help"] else f"# HELP {name} ",
            f"# TYPE {name} histogram",
        ]
        label_names = tuple(entry["labels"])
        buckets = tuple(entry["buckets"])
        for key, (counts, acc, total) in sorted(entry["series"].items()):
            cumulative = 0
            for bound, count in zip(buckets, counts):
                cumulative += count
                labels = _format_labels(
                    label_names + ("le",), tuple(key) + (_format_value(bound),)
                )
                lines.append(f"{name}_bucket{labels} {cumulative}")
            labels = _format_labels(label_names + ("le",), tuple(key) + ("+Inf",))
            lines.append(f"{name}_bucket{labels} {total}")
            plain = _format_labels(label_names, key)
            lines.append(f"{name}_sum{plain} {_format_value(acc)}")
            lines.append(f"{name}_count{plain} {total}")
        return "\n".join(lines)
