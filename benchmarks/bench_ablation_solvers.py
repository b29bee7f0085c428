"""Ablation: the weight-estimation solver (DESIGN.md §3).

Eq. (8) is solved by default with penalised NNLS (the paper's scipy-nnls
recipe).  This ablation compares it with exact projected gradient, the
other method an estimator's ``solver=`` accepts, on the same buckets:
accuracy should be statistically identical (they solve the same convex
program), time may differ.
"""

import time

import pytest

from repro.core import QuadHist
from repro.data import WorkloadSpec
from repro.eval import make_workload, rms_error
from repro.eval.reporting import format_table
from repro.solvers.simplex_ls import SOLVERS

from benchmarks.conftest import record_table

SPEC = WorkloadSpec(query_kind="box", center_kind="data")


@pytest.fixture(scope="module")
def ablation(power_2d, bench_rng):
    train = make_workload(power_2d, 200, bench_rng, spec=SPEC)
    test = make_workload(power_2d, 120, bench_rng, spec=SPEC)
    rows = []
    for solver in SOLVERS:
        start = time.perf_counter()
        est = QuadHist(tau=0.005, solver=solver).fit(train.queries, train.selectivities)
        elapsed = time.perf_counter() - start
        rms = rms_error(est.predict_many(test.queries), test.selectivities)
        rows.append(
            {
                "solver": solver,
                "buckets": est.model_size,
                "fit_s": round(elapsed, 3),
                "test_rms": round(rms, 5),
            }
        )
    return rows


def test_solver_ablation(ablation, table_bench):
    table_bench(lambda: None)  # register with pytest-benchmark (--benchmark-only)
    record_table(
        "ablation_solvers",
        format_table(ablation, title="Ablation: Eq.(8) solver choice (QuadHist, Power 2D)"),
    )
    errors = [r["test_rms"] for r in ablation]
    # All solvers land on (near-)identical accuracy.
    assert max(errors) - min(errors) < 0.01


@pytest.mark.parametrize("solver", SOLVERS)
def test_benchmark_solver(benchmark, solver, power_2d, bench_rng):
    train = make_workload(power_2d, 100, bench_rng, spec=SPEC)
    benchmark.pedantic(
        lambda: QuadHist(tau=0.01, solver=solver).fit(
            train.queries, train.selectivities
        ),
        rounds=2,
        iterations=1,
    )
