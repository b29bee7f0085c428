import os

import pytest

from repro.observability import MetricsRegistry

from benchmarks.e2e import ledger
from benchmarks.e2e.scrape import cpu_seconds, delta, parse_metrics, total


def _page(stage_seconds: dict, hits: float, misses: float, dense: float = 0) -> str:
    registry = MetricsRegistry()
    stages = registry.histogram("repro_request_stage_seconds", "stages", labels=("stage",))
    for stage, values in stage_seconds.items():
        for value in values:
            stages.observe(value, stage=stage)
    registry.counter("repro_prediction_cache_hits_total", "hits").inc(hits)
    registry.counter("repro_prediction_cache_misses_total", "misses").inc(misses)
    calls = registry.counter("repro_sparse_calls_total", "calls", labels=("kernel", "path"))
    if dense:
        calls.inc(dense, kernel="box", path="dense")
        calls.inc(1, kernel="box", path="sparse")
    return registry.render()


def test_metrics_page_parses_through_expolint():
    families = parse_metrics(_page({"total": [0.5, 0.25], "queue": [0.1]}, 3, 1, dense=3))
    assert total(families, "repro_request_stage_seconds_sum", stage="total") == 0.75
    assert total(families, "repro_request_stage_seconds_count", stage="total") == 2
    assert total(families, "repro_request_stage_seconds_count") == 3  # every stage
    assert total(families, "repro_sparse_calls_total", path="dense") == 3
    assert total(families, "repro_no_such_metric") == 0


def test_malformed_page_is_an_error():
    with pytest.raises(ValueError):
        parse_metrics("# TYPE x counter\nx{le=\"1\" 3\n")


def test_window_deltas_feed_the_scraped_layers():
    before = parse_metrics(_page({"total": [1.0]}, 0, 0))
    after = parse_metrics(
        _page(
            {
                "total": [1.0, 0.004, 0.006],
                "queue": [0.001, 0.001],
                "coalesce": [0.002, 0.002],
                "kernel": [0.0005, 0.0005],
            },
            hits=3,
            misses=1,
            dense=3,
        )
    )
    assert delta(after, before, "repro_request_stage_seconds_count", stage="total") == 2
    layers = ledger.scraped(after, before)
    # (0.010 - 0.002 - 0.004 - 0.001) s over 2 requests.
    assert layers["server.http.unattributed_us"] == pytest.approx(1500.0)
    assert layers["serving.admission.wait_us"] == pytest.approx(1000.0)
    assert layers["serving.coalesce.wait_us"] == pytest.approx(2000.0)
    assert layers["service.cache_hit_ratio"] == pytest.approx(0.75)
    assert layers["geometry.sparse.dense_share"] == pytest.approx(0.75)
    assert layers["extra"]["geometry.sparse.dense_share.halfspace"] == 0.0


def test_cpu_seconds_reads_proc():
    assert cpu_seconds(os.getpid()) > 0
