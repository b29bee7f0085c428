import json

import pytest

from benchmarks.e2e import compare
from benchmarks.e2e.ledger import PER_LAYER
from benchmarks.e2e.runner import END_TO_END
from benchmarks.e2e.workloads import WORKLOADS

A = [100.0, 101.0, 99.0, 100.5, 99.5]


def test_within_bound_is_ok_and_beyond_is_a_regression():
    assert compare.verdict(A, [v * 1.05 for v in A], "lower", 0.10)[0] == "ok"
    status, worse = compare.verdict(A, [v * 1.2 for v in A], "lower", 0.10)
    assert status == "regression" and worse == pytest.approx(0.2)
    # For a rate, lower is worse.
    assert compare.verdict(A, [v * 0.8 for v in A], "higher", 0.10)[0] == "regression"
    assert compare.verdict(A, [v * 1.5 for v in A], "higher", 0.10)[0] == "ok"


def test_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins():
    noisy = [50.0, 100.0, 150.0, 80.0, 120.0]
    assert compare.verdict(noisy, [v * 1.01 for v in noisy], "lower", 0.10)[0] == "unresolved"
    assert compare.verdict(noisy, [10.0, 12.0, 11.0], "lower", 0.10)[0] == "ok"


def test_error_share_may_not_increase_at_all():
    gates = compare.bounds()
    better, bound = gates["error_share"]
    assert compare.verdict([0.0] * 5, [0.0] * 5, better, bound)[0] == "ok"
    assert compare.verdict([0.0] * 5, [0.001] * 5, better, bound)[0] == "regression"


def test_benchmark_json_matches_the_code():
    spec = json.loads(compare.BENCHMARK_JSON.read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def _result(path, workload, latency, error_share=0.0):
    report = {
        "header": {"git_sha": "abc", "cpu_count": 2, "mode": "full"},
        "runs": [
            {"workload": workload, "pass": "untraced",
             "metrics": {"latency_p50_ms": latency},
             "diagnostics": {"error_share": error_share, "latency_p99_ms": 3 * latency}},
            {"workload": workload, "pass": "traced",
             "metrics": {"latency_p50_ms": 1e9}, "diagnostics": {"error_share": 1.0}},
        ],
    }
    path.write_text(json.dumps(report))
    return str(path)


def test_compare_reads_untraced_runs_and_exits_nonzero_on_regression(tmp_path, capsys):
    a = [_result(tmp_path / f"a{i}.json", "point-light", 4.0 + i * 0.01) for i in range(5)]
    same = [_result(tmp_path / f"b{i}.json", "point-light", 4.0 + i * 0.01) for i in range(5)]
    slow = [_result(tmp_path / f"c{i}.json", "point-light", 6.0 + i * 0.01) for i in range(5)]
    assert compare.main(a + ["--"] + same) == 0
    assert compare.main(a + ["--"] + slow) == 1
    out = capsys.readouterr().out
    assert "point-light" in out and "regression" in out and "diagnostic" in out
    assert compare.main(a) == 2
