"""Metrics primitives, registry semantics and the Prometheus exposition."""

import math
import re
import threading

import pytest

from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    enabled,
    set_enabled,
)

# One exposition sample line: name, optional {labels}, value.
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})? "
    r"(NaN|[+-]Inf|[-+0-9.e]+)$"
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c_total", "help")
        assert counter.value() == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == pytest.approx(3.5)

    def test_negative_increment_rejected(self):
        counter = Counter("c_total", "help")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_labelled_series_are_independent(self):
        counter = Counter("c_total", "help", ("method",))
        counter.inc(method="a")
        counter.inc(3, method="b")
        assert counter.value(method="a") == 1.0
        assert counter.value(method="b") == 3.0

    def test_wrong_labels_rejected(self):
        counter = Counter("c_total", "help", ("method",))
        with pytest.raises(ValueError):
            counter.inc(endpoint="/x")
        with pytest.raises(ValueError):
            counter.inc()  # missing the declared label

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Counter("9starts_with_digit", "help")
        with pytest.raises(ValueError):
            Counter("ok_total", "help", ("bad-label",))
        with pytest.raises(ValueError):
            Counter("ok_total", "help", ("__reserved",))
        with pytest.raises(ValueError):
            Counter("ok_total", "help", ("dup", "dup"))

    def test_thread_safety(self):
        counter = Counter("c_total", "help")

        def work():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value() == 8000.0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g", "help")
        gauge.set(4.0)
        gauge.inc()
        gauge.dec(2.0)
        assert gauge.value() == pytest.approx(3.0)

    def test_labelled(self):
        gauge = Gauge("g", "help", ("state",))
        gauge.set(2.0, state="open")
        assert gauge.value(state="open") == 2.0
        assert gauge.value(state="closed") == 0.0


class TestHistogram:
    def test_observe_and_snapshot(self):
        hist = Histogram("h_seconds", "help", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(6.05)
        assert snap["mean"] == pytest.approx(6.05 / 4)
        empty = Histogram("h_seconds", "help").snapshot()
        assert empty == {"count": 0, "sum": 0.0, "mean": None}

    def test_overflow_lands_in_inf_bucket(self):
        registry = MetricsRegistry()
        registry.histogram("h_seconds", "help", buckets=(1.0,)).observe(100.0)
        text = registry.render()
        assert 'h_seconds_bucket{le="1"} 0' in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text

    def test_timer_records(self):
        hist = Histogram("h_seconds", "help")
        with hist.time() as timer:
            pass
        assert timer.seconds >= 0.0
        assert hist.snapshot()["count"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram("h", "help", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", "help", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", "help", buckets=(1.0, math.inf))
        with pytest.raises(ValueError):
            Histogram("h", "help", ("le",))

    def test_default_buckets_sorted(self):
        assert tuple(sorted(DEFAULT_BUCKETS)) == DEFAULT_BUCKETS


class TestRegistry:
    def test_get_or_create_returns_same_handle(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "help", ("m",))
        second = registry.counter("c_total", "other help", ("m",))
        assert first is second

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "help")
        with pytest.raises(ValueError):
            registry.gauge("x_total", "help")
        with pytest.raises(ValueError):
            registry.histogram("x_total", "help")

    def test_label_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "help", ("a",))
        with pytest.raises(ValueError):
            registry.counter("x_total", "help", ("b",))

    def test_names_and_get(self):
        registry = MetricsRegistry()
        registry.gauge("b", "help")
        registry.counter("a_total", "help")
        assert registry.names() == ["a_total", "b"]
        assert registry.get("a_total").kind == "counter"
        assert registry.get("missing") is None

    def test_default_registry_is_singleton(self):
        assert default_registry() is default_registry()


class TestExposition:
    def _registry(self):
        registry = MetricsRegistry()
        requests = registry.counter("req_total", "Requests", ("method", "status"))
        requests.inc(5, method="GET", status="2xx")
        requests.inc(1, method='PO"ST\\', status="5xx")  # escaping stress
        registry.gauge("gen", "Current generation").set(3)
        hist = registry.histogram("lat_seconds", "Latency", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(2.0)
        return registry

    def test_every_line_is_comment_or_sample(self):
        text = self._registry().render()
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            if line.startswith("# HELP") or line.startswith("# TYPE"):
                continue
            assert _SAMPLE_RE.match(line), f"unparseable sample line: {line!r}"

    def test_type_lines_present(self):
        text = self._registry().render()
        assert "# TYPE req_total counter" in text
        assert "# TYPE gen gauge" in text
        assert "# TYPE lat_seconds histogram" in text

    def test_label_escaping(self):
        text = self._registry().render()
        assert 'method="PO\\"ST\\\\"' in text

    def test_histogram_buckets_cumulative(self):
        text = self._registry().render()
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text
        assert "lat_seconds_sum 2.55" in text

    def test_unlabelled_metrics_render_before_first_event(self):
        registry = MetricsRegistry()
        registry.counter("cold_total", "help")
        registry.gauge("cold_gauge", "help")
        text = registry.render()
        assert "cold_total 0" in text
        assert "cold_gauge 0" in text


class TestEnabledSwitch:
    def test_disabled_recording_is_a_noop(self):
        counter = Counter("c_total", "help")
        gauge = Gauge("g", "help")
        hist = Histogram("h_seconds", "help")
        previous = set_enabled(False)
        try:
            assert not enabled()
            counter.inc()
            gauge.set(9)
            hist.observe(1.0)
            with hist.time() as timer:
                pass
            assert timer.seconds >= 0.0  # timing still measured
        finally:
            set_enabled(previous)
        assert counter.value() == 0.0
        assert gauge.value() == 0.0
        assert hist.snapshot()["count"] == 0

    def test_set_enabled_returns_previous(self):
        previous = set_enabled(True)
        try:
            assert set_enabled(True) is True
        finally:
            set_enabled(previous)


class TestReset:
    def test_reset_zeroes_values_but_keeps_handles(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_q_total", "q", labels=("kind",))
        counter.inc(5, kind="box")
        bare = registry.counter("repro_b_total", "b")
        bare.inc(2)
        gauge = registry.gauge("repro_g", "g")
        gauge.set(3.5)
        histogram = registry.histogram("repro_h_seconds", "h", buckets=(0.1, 1.0))
        histogram.observe(0.05)

        registry.reset()

        assert counter.value(kind="box") == 0.0
        assert bare.value() == 0.0
        assert gauge.value() == 0.0
        assert histogram.snapshot()["count"] == 0
        # Unlabelled metrics still expose a zero sample after reset.
        assert "repro_b_total 0" in registry.render()
        # Handles cached before the reset keep recording into the
        # registry — reset drops values, not registrations.
        counter.inc(1, kind="box")
        assert counter.value(kind="box") == 1.0
        assert registry.counter("repro_b_total", "b") is bare
        histogram.observe(0.2)
        assert histogram.snapshot()["count"] == 1
