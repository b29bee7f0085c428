import statistics

import numpy as np
import pytest

from benchmarks.e2e.stats import latency_summary, percentile, quartiles, spread, supported


def test_percentile_matches_numpy_linear_rule():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 7.5]
    for p in (0, 10, 50, 90, 99, 100):
        assert percentile(values, p) == pytest.approx(np.percentile(values, p))


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert supported(100, 90) and not supported(99, 90)
    assert supported(1000, 99) and not supported(999, 99)
    assert supported(20, 50) and not supported(19, 50)


def test_latency_summary_withholds_unsupported_percentiles():
    summary = latency_summary(list(range(500)))
    assert summary["n"] == 500
    assert summary["p50"] == pytest.approx(249.5)
    assert summary["p90"] is not None
    assert summary["p99"] is None  # 5 samples beyond p99
    assert latency_summary([])["p50"] is None


def test_quartiles_and_spread_follow_statistics_quantiles():
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, med, q3)
    assert spread(values) == pytest.approx((q3 - q1) / med)
    assert spread([0.0] * 5) == 0.0
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
