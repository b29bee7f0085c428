"""Fleet aggregation: snapshots, merges, reset tracking, rendering.

The correctness invariant throughout: the merged fleet view must equal
what one registry would have recorded had every worker's events happened
in a single process — counters and histogram buckets *exactly*, not
approximately.
"""

from __future__ import annotations

import pytest

from repro.observability import (
    FleetAggregator,
    MetricsRegistry,
    lint_exposition,
    merge_snapshots,
    parse_exposition,
    snapshot_registry,
)


def _registry_with_traffic(queries=5, hits=2, latencies=()):
    registry = MetricsRegistry()
    registry.counter("repro_service_queries_total", "queries").inc(queries)
    registry.counter(
        "repro_prediction_cache_hits_total", "hits", labels=("kind",)
    ).inc(hits, kind="exact")
    registry.gauge("repro_inflight", "in flight").set(3.0)
    hist = registry.histogram(
        "repro_latency_seconds", "latency", buckets=(0.01, 0.1, 1.0)
    )
    for value in latencies:
        hist.observe(value)
    return registry


class TestSnapshot:
    def test_snapshot_captures_all_kinds(self):
        registry = _registry_with_traffic(latencies=[0.005, 0.5])
        snap = snapshot_registry(registry)
        assert snap["counters"]["repro_service_queries_total"]["series"][()] == 5.0
        assert snap["counters"]["repro_prediction_cache_hits_total"]["series"][
            ("exact",)
        ] == 2.0
        assert snap["gauges"]["repro_inflight"]["series"][()] == 3.0
        counts, acc, total = snap["histograms"]["repro_latency_seconds"]["series"][()]
        assert total == 2 and acc == pytest.approx(0.505)
        assert sum(counts) == 2

    def test_snapshot_is_a_copy(self):
        registry = _registry_with_traffic()
        snap = snapshot_registry(registry)
        registry.counter("repro_service_queries_total", "queries").inc(100)
        assert snap["counters"]["repro_service_queries_total"]["series"][()] == 5.0

    def test_snapshot_registry_first_wins_on_collision(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("repro_dup_total", "a").inc(1)
        b.counter("repro_dup_total", "b").inc(9)
        b.counter("repro_only_b_total", "b").inc(4)
        # The first registry wins a name whatever the kind, so a page
        # never carries one family twice.
        a.gauge("repro_dup", "a").set(2)
        b.counter("repro_dup", "b").inc(5)
        snap = snapshot_registry(a, b)
        assert snap["counters"]["repro_dup_total"]["series"][()] == 1.0
        assert snap["counters"]["repro_only_b_total"]["series"][()] == 4.0
        assert snap["gauges"]["repro_dup"]["series"][()] == 2.0
        assert "repro_dup" not in snap["counters"]


class TestMergeSnapshots:
    def test_counters_sum_histograms_sum_bucketwise(self):
        a = _registry_with_traffic(queries=5, hits=2, latencies=[0.005, 0.5])
        b = _registry_with_traffic(queries=7, hits=1, latencies=[0.05])
        merged = merge_snapshots([snapshot_registry(a), snapshot_registry(b)])
        assert merged["counters"]["repro_service_queries_total"]["series"][()] == 12.0
        counts, acc, total = merged["histograms"]["repro_latency_seconds"]["series"][()]
        assert total == 3 and acc == pytest.approx(0.555)

    def test_merge_equals_single_registry_replay(self):
        """Exact-equality form of the invariant: merging N snapshots is
        indistinguishable from one registry that saw every event."""
        events = [
            [0.005, 0.02, 0.9, 2.0],
            [0.05, 0.007],
            [1.5, 0.3, 0.011],
        ]
        parts = [
            snapshot_registry(_registry_with_traffic(queries=i + 1, latencies=ev))
            for i, ev in enumerate(events)
        ]
        merged = merge_snapshots(parts)

        replay = _registry_with_traffic(
            queries=sum(i + 1 for i in range(3)),
            hits=2 * 3,
            latencies=[v for ev in events for v in ev],
        )
        expected = snapshot_registry(replay)
        assert (
            merged["counters"]["repro_service_queries_total"]["series"]
            == expected["counters"]["repro_service_queries_total"]["series"]
        )
        got = merged["histograms"]["repro_latency_seconds"]["series"][()]
        want = expected["histograms"]["repro_latency_seconds"]["series"][()]
        assert got[0] == want[0]  # bucket counts exactly equal
        assert got[2] == want[2]
        assert got[1] == pytest.approx(want[1])

    def test_incompatible_bucket_layouts_first_writer_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("repro_h_seconds", "h", buckets=(0.1, 1.0)).observe(0.05)
        b.histogram("repro_h_seconds", "h", buckets=(0.5,)).observe(0.05)
        merged = merge_snapshots([snapshot_registry(a), snapshot_registry(b)])
        entry = merged["histograms"]["repro_h_seconds"]
        assert entry["buckets"] == (0.1, 1.0)
        assert entry["series"][()][2] == 1  # b's incompatible series dropped


class TestFleetAggregator:
    def test_totals_sum_across_workers(self):
        agg = FleetAggregator()
        agg.observe(0, 1, snapshot_registry(_registry_with_traffic(queries=5)))
        agg.observe(1, 1, snapshot_registry(_registry_with_traffic(queries=7)))
        assert agg.total("repro_service_queries_total") == 12.0
        assert agg.total("repro_prediction_cache_hits_total", kind="exact") == 4.0
        assert agg.total("repro_absent_total") == 0.0

    def test_restart_folds_dead_incarnation_into_base(self):
        agg = FleetAggregator()
        agg.observe(0, 1, snapshot_registry(_registry_with_traffic(queries=10)))
        # Incarnation 2 boots with zeroed counters: the fleet total must
        # keep incarnation 1's final 10, not regress to 3.
        agg.observe(0, 2, snapshot_registry(_registry_with_traffic(queries=3)))
        assert agg.total("repro_service_queries_total") == 13.0
        assert agg.workers()["0"]["incarnation"] == 2

    def test_totals_never_decrease_across_restart_storm(self):
        agg = FleetAggregator()
        last = 0.0
        for incarnation in range(1, 6):
            for progress in (1, 4, 9):  # heartbeats within one incarnation
                agg.observe(
                    0,
                    incarnation,
                    snapshot_registry(_registry_with_traffic(queries=progress)),
                )
                total = agg.total("repro_service_queries_total")
                assert total >= last
                last = total
        # 4 retired incarnations folded at their final value (9) + live 9.
        assert last == 4 * 9 + 9

    def test_stale_lower_incarnation_heartbeat_dropped(self):
        agg = FleetAggregator()
        agg.observe(0, 2, snapshot_registry(_registry_with_traffic(queries=8)))
        agg.observe(0, 1, snapshot_registry(_registry_with_traffic(queries=999)))
        assert agg.total("repro_service_queries_total") == 8.0

    def test_histograms_fold_exactly_across_restart(self):
        agg = FleetAggregator()
        agg.observe(
            0, 1, snapshot_registry(_registry_with_traffic(latencies=[0.005, 0.5]))
        )
        agg.observe(
            0, 2, snapshot_registry(_registry_with_traffic(latencies=[0.05]))
        )
        replay = _registry_with_traffic(latencies=[0.005, 0.5, 0.05])

        def samples(text):
            families, _ = parse_exposition(text)
            return {
                (name, tuple(labels.items())): value
                for name, labels, value, _ in families["repro_latency_seconds"]["samples"]
            }

        got, want = samples(agg.render()), samples(replay.render())
        key = ("repro_latency_seconds_sum", ())
        assert got.pop(key) == pytest.approx(want.pop(key))
        assert got == want  # every bucket and the count exactly

    def test_gauges_get_worker_label_and_sum_reduction(self):
        agg = FleetAggregator()
        agg.observe(0, 1, snapshot_registry(_registry_with_traffic()))
        agg.observe(1, 1, snapshot_registry(_registry_with_traffic()))
        text = agg.render()
        families, _ = parse_exposition(text)
        samples = families["repro_inflight"]["samples"]
        by_labels = {tuple(sorted(labels.items())): v for _, labels, v, _ in samples}
        assert by_labels[(("worker", "0"),)] == 3.0
        assert by_labels[(("worker", "1"),)] == 3.0
        assert by_labels[()] == 6.0  # bare fleet reduction line

    def test_generation_gauge_reduces_with_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("repro_model_generation", "gen").set(3.0)
        b.gauge("repro_model_generation", "gen").set(7.0)
        agg = FleetAggregator()
        agg.observe(0, 1, snapshot_registry(a))
        agg.observe(1, 1, snapshot_registry(b))
        families, _ = parse_exposition(agg.render())
        bare = [
            value
            for _, labels, value, _ in families["repro_model_generation"]["samples"]
            if not labels
        ]
        assert bare == [7.0]

    def test_render_lints_clean_and_appends_extra_registry(self):
        agg = FleetAggregator()
        agg.observe(
            0, 1, snapshot_registry(_registry_with_traffic(latencies=[0.05, 2.0]))
        )
        extra = MetricsRegistry()
        extra.counter("repro_worker_restarts_total", "restarts").inc(2)
        # A name the fleet already covers must not be duplicated.
        extra.counter("repro_service_queries_total", "dup").inc(999)
        text = agg.render(extra=extra)
        assert lint_exposition(text) == []
        families, _ = parse_exposition(text)
        assert families["repro_worker_restarts_total"]["samples"][0][2] == 2.0
        assert [
            v for _, _, v, _ in families["repro_service_queries_total"]["samples"]
        ] == [5.0]

    def test_render_escapes_help_text(self):
        registry = MetricsRegistry()
        registry.counter("repro_c_total", "first line\nsecond \\ line").inc()
        registry.histogram("repro_h_seconds", "hist\nhelp").observe(0.3)
        agg = FleetAggregator()
        agg.observe(0, 1, snapshot_registry(registry))
        text = agg.render()
        assert lint_exposition(text) == []
        assert "# HELP repro_c_total first line\\nsecond \\\\ line\n" in text
        assert text == registry.render()  # one worker, no gauges: the same page

    def test_forget_keeps_retired_totals(self):
        agg = FleetAggregator()
        agg.observe(0, 1, snapshot_registry(_registry_with_traffic(queries=6)))
        agg.forget(0)
        assert agg.total("repro_service_queries_total") == 6.0
