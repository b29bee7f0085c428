"""Lemma 3.1 as a registry-wide property: no histogram beats the ERM.

The histogram-mode :class:`~repro.core.arrangement_erm.ArrangementERM`
minimises the training loss over all histograms, and every discrete
distribution's selectivities on the training ranges are those of some
histogram over the same arrangement, so its optimum bounds them too.
Each learner below fits a histogram or a discrete distribution, by a
full fit and after a ``partial_fit``; a training loss below the optimum
means its design matrix or its solve is wrong.

QuickSel (signed weights) and GMM (unbounded support, so some mass lies
outside the domain) fit neither, and are outside the lemma.
"""

import numpy as np
import pytest

from repro.core import ArrangementERM
from repro.core.registry import make_estimator
from repro.geometry import Box, unit_box

#: Slack for the two solvers' tolerances.
TOL = 1e-6
SEEDS = range(4)
#: (dimension, training queries) of the workloads.
SHAPES = [(1, 40), (2, 20)]


def _workload(d: int, n: int, seed: int):
    """Boxes with noisy labels, which no histogram need fit exactly."""
    rng = np.random.default_rng(seed)
    queries = [
        Box.from_center(rng.random(d), rng.random(d) * 0.6, clip_to=unit_box(d))
        for _ in range(n)
    ]
    labels = np.clip([q.volume() * 0.5 + 0.1 * rng.random() for q in queries], 0.0, 1.0)
    return queries, labels


def _loss(est, queries, labels) -> float:
    return float(np.mean((est.predict_many(queries) - labels) ** 2))


LEARNERS = ["arrangement-discrete", "isomer", "kdhist", "ptshist", "quadhist", "stholes"]
INCREMENTAL = ["kdhist", "ptshist", "quadhist", "stholes"]


def _learner(name: str, n: int):
    if name == "arrangement-discrete":
        return ArrangementERM(mode="discrete", seed=0)
    return make_estimator(name, train_size=n)


@pytest.fixture(
    scope="module",
    params=[(d, n, seed) for d, n in SHAPES for seed in SEEDS],
    ids=lambda p: f"d{p[0]}-seed{p[2]}",
)
def case(request):
    d, n, seed = request.param
    queries, labels = _workload(d, n, seed)
    erm = ArrangementERM(mode="histogram").fit(queries, labels)
    return d, queries, labels, _loss(erm, queries, labels)


def _check(est, d, queries, labels, optimum):
    assert _loss(est, queries, labels) >= optimum - TOL
    # A histogram or discrete distribution over the domain holds all of it.
    assert est.predict_many([unit_box(d)])[0] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name", LEARNERS)
def test_fit_loses_no_less_than_the_erm(case, name):
    d, queries, labels, optimum = case
    est = _learner(name, len(queries)).fit(queries, labels)
    _check(est, d, queries, labels, optimum)


@pytest.mark.parametrize("name", INCREMENTAL)
def test_partial_fit_loses_no_less_than_the_erm(case, name):
    d, queries, labels, optimum = case
    half = len(queries) // 2
    est = _learner(name, len(queries)).fit(queries[:half], labels[:half])
    est.partial_fit(queries[half:], labels[half:])
    _check(est, d, queries, labels, optimum)
