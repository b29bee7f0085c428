import json

import numpy as np

from benchmarks.e2e.loadgen import Sample
from benchmarks.e2e.runner import _check_answers
from benchmarks.e2e.workloads import Request


class _Reference:
    """Answers 0.25 for every query, like a fitted model would."""

    def predict_many(self, queries):
        return np.full(len(queries), 0.25)


def _sample(index, payload, status=200):
    return Sample(index, 0.0, 0.0, 0.001, status, json.dumps(payload).encode())


def _estimate():
    return Request("estimate", b"", ["q"])


def test_right_answers_pass_and_every_25th_estimate_is_checked():
    requests = [_estimate() for _ in range(50)]
    samples = [_sample(i, {"selectivity": 0.25 if i % 25 == 0 else 0.9}) for i in range(50)]
    failed, problems, _ = _check_answers([("window", samples, requests)], _Reference(), False)
    assert not failed and not problems


def test_wrong_reference_value_status_and_range_fail():
    requests = [_estimate() for _ in range(4)]
    samples = [
        _sample(0, {"selectivity": 0.25 + 1e-9}),  # checked against the reference
        _sample(1, {"selectivity": 1.5}),
        _sample(2, {"error": "overloaded"}, status=429),
        _sample(3, {"selectivity": None}),
    ]
    failed, problems, _ = _check_answers([("window", samples, requests)], _Reference(), False)
    assert failed == {("window", i) for i in range(4)}
    assert len(problems) == 4


def test_predict_count_and_held_out_answers():
    batch = Request("predict", b"", ["q"] * 3)
    good = _sample(0, {"selectivities": [0.25] * 3, "count": 3})
    short = _sample(1, {"selectivities": [0.25] * 2, "count": 2})
    failed, _, held_out = _check_answers(
        [("eval", [good, short], [batch, batch])], _Reference(), False
    )
    assert failed == {("eval", 1)}
    assert held_out == [0.25] * 3 + [None] * 3


def test_seeded_estimates_skip_the_single_generation_reference():
    samples = [_sample(0, {"selectivity": 0.7})]
    failed, _, _ = _check_answers([("window", samples, [_estimate()])], _Reference(), True)
    assert not failed
