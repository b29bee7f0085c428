"""Fleet-wide metric aggregation over registry snapshots.

A pre-fork pool (:mod:`repro.serving`) gives every worker its own
process-local :class:`~repro.observability.MetricsRegistry`, so a
``GET /metrics`` scrape through the kernel-balanced shared socket
returns one arbitrary worker's counters — useless for fleet-level
signals like total queries, aggregate cache-hit rate, or tail latency.
Workers therefore piggyback a
:func:`~repro.observability.metrics.snapshot_registry` snapshot on the
heartbeat pipe they already own, and :class:`FleetAggregator` merges
them on the supervisor side:

* counters sum across workers, and fixed-bucket histograms merge
  *exactly* bucket by bucket (one :func:`_add_series` does both);
* gauges keep one row per ``worker`` plus a bare fleet reduction row
  (sum by default, max where that is the meaningful fleet value — e.g.
  the newest model generation).

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

The merged fleet is itself a snapshot, written by the same
:func:`~repro.observability.metrics.render_exposition` as every other
page; the supervisor's ops endpoint serves it.
"""

from __future__ import annotations

import operator
import threading
from typing import Iterable, Mapping

from repro.observability.metrics import (
    MetricsRegistry,
    render_exposition,
    snapshot_registry,
)

__all__ = [
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


def _add_series(into: dict, series: Mapping) -> None:
    """Sum ``series`` into ``into``: counter values, or histogram
    ``(counts, sum, count)`` triples bucket by bucket.  A histogram
    series with a different number of buckets leaves ``into`` as it is.
    """
    for key, value in series.items():
        have = into.get(key)
        if have is None:
            into[key] = value
        elif not isinstance(value, tuple):
            into[key] = have + value
        elif len(have[0]) == len(value[0]):
            counts = [a + b for a, b in zip(have[0], value[0])]
            into[key] = (counts, have[1] + value[1], have[2] + value[2])


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Pure merge of registry snapshots (no reset tracking): counters and
    histogram buckets sum element-wise, gauges keep the last value seen.

    Used by tests to state the aggregation-correctness invariant
    ("merged ≡ sum of the parts"); the live supervisor path goes
    through :class:`FleetAggregator`, which adds per-incarnation reset
    handling on top of exactly this arithmetic.  A histogram whose
    bucket layout differs from the first snapshot's is dropped.
    """
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for snap in snapshots:
        for kind, merged in out.items():
            for name, entry in snap.get(kind, {}).items():
                slot = merged.setdefault(name, {**entry, "series": {}})
                if kind == "gauges":
                    slot["series"].update(entry["series"])
                elif slot.get("buckets") == entry.get("buckets"):
                    _add_series(slot["series"], entry["series"])
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
        for kind, base in self.base.items():
            for name, entry in self.current.get(kind, {}).items():
                _add_series(base.setdefault(name, {}), entry["series"])
        self.current = None


class FleetAggregator:
    """Supervisor-side merged view over per-worker registry snapshots.

    Thread-safe: the supervisor's monitor thread calls :meth:`observe`
    while the ops HTTP server calls :meth:`render` concurrently.
    """

    def __init__(self, gauge_max: Iterable[str] = GAUGE_MAX_REDUCTIONS):
        self._lock = threading.Lock()
        self._slots: dict[str, _SlotState] = {}
        self._gauge_max = frozenset(gauge_max)

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

    def forget(self, worker: str | int) -> None:
        """Retire a slot permanently (its totals stay in the base)."""
        with self._lock:
            state = self._slots.get(str(worker))
            if state is not None:
                state.fold_current_into_base()

    # -- merged views ------------------------------------------------------

    def _merged_locked(self) -> dict:
        """Counters/histograms: base + current summed across slots.
        Gauges: the last slot's values (see :meth:`_gauge_rows`).
        Caller holds the lock."""
        merged = merge_snapshots(
            state.current for state in self._slots.values() if state.current
        )
        # Fold the retired incarnations' bases into the live sums.
        for state in self._slots.values():
            for kind, base in state.base.items():
                for name, series in base.items():
                    entry = merged[kind].get(name)
                    if entry is None and kind == "counters":
                        # Every live registry declares its metrics up
                        # front, but a metric can exist only in a dead
                        # incarnation (e.g. a renamed series): carry it
                        # with no help text.
                        entry = merged[kind][name] = {
                            "help": "",
                            "labels": self._base_labels(name),
                            "series": {},
                        }
                    if entry is not None:  # a histogram needs a live twin's buckets
                        _add_series(entry["series"], series)
        return merged

    def _base_labels(self, name: str) -> tuple:
        for state in self._slots.values():
            if state.current and name in state.current.get("counters", {}):
                return state.current["counters"][name]["labels"]
        return ()

    def _gauge_rows(self) -> dict:
        """Every gauge as one row per worker slot, then one bare fleet row
        per label set: the sum, or the max for the ``gauge_max`` names.
        A bare row holds ``None`` for its worker label, which the renderer
        leaves out.  Caller holds the lock."""
        rows: dict = {}
        fleet: dict = {}
        for worker, state in sorted(self._slots.items()):
            if not state.current:
                continue
            for name, entry in state.current.get("gauges", {}).items():
                # A series that carries its own worker label is attributed
                # by it; the slot id would be redundant (and can disagree
                # during a slot takeover).
                own = "worker" in entry["labels"]
                names = tuple(entry["labels"]) if own else ("worker",) + tuple(entry["labels"])
                at = names.index("worker")
                family = rows.setdefault(
                    name, {"help": entry["help"], "labels": names, "series": {}}
                )
                start, reduce = (
                    (float("-inf"), max) if name in self._gauge_max else (0.0, operator.add)
                )
                bare = fleet.setdefault(name, {})
                for key, value in entry["series"].items():
                    key = tuple(key) if own else (worker,) + tuple(key)
                    family["series"][key] = value
                    key = key[:at] + (None,) + key[at + 1 :]
                    bare[key] = reduce(bare.get(key, start), value)
        for name, family in rows.items():
            family["series"].update(sorted(fleet[name].items()))
        return rows

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

    # -- exposition --------------------------------------------------------

    def render(self, extra: MetricsRegistry | None = None) -> str:
        """Prometheus text exposition of the merged fleet.

        ``extra`` (typically the supervisor's own registry: restarts,
        alive workers, storm breakers) adds the metric names the fleet
        merge does not already cover, so one scrape of the ops endpoint
        spans both the workers and their supervisor.
        """
        with self._lock:
            merged = self._merged_locked()
            merged["gauges"] = self._gauge_rows()
        for kind in ("counters", "histograms"):
            for entry in merged[kind].values():
                entry["series"] = dict(sorted(entry["series"].items()))
        if extra is not None:
            taken = {name for entries in merged.values() for name in entries}
            for kind, entries in snapshot_registry(extra).items():
                merged[kind].update(
                    (name, entry) for name, entry in entries.items() if name not in taken
                )
        return render_exposition(merged)
