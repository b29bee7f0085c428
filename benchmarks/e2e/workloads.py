"""The four traffic workloads and the seeded inputs each one sends.

Every query is generated over ``power_like(rows=25_000).project([0, 3])``.
``--seed`` drives the traffic; the served models are fitted on one fixed
training set and scored on one fixed held-out set, so every seed measures
the same model.  (Across training seeds the point model's leaf count
crosses the 1024-bucket sparse-index floor and the held-out RMS moves
4x, which would swamp every regression bound.)
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from repro.data import (
    WorkloadSpec,
    generate_workload,
    label_queries,
    power_like,
    range_to_dict,
)
from repro.geometry.ranges import Box

MODEL_SEED = 5
EVAL_SEED = 11
TRAIN_QUERIES = 400
EVAL_QUERIES = 1000
EVAL_BATCH = 250

HOT_SET = 512
HOT_SHARE = 0.75
#: Length of the point-saturated request stream before it repeats; its
#: 8k unique queries keep a repeat far beyond the 4096-entry cache.
SATURATED_STREAM = 32768
BULK_BATCH = 256
#: Distinct bulk bodies before they repeat: 64 x 256 = 16k queries apart,
#: four times the cache capacity, so a repeated query still misses.
BULK_BODIES = 64
FEEDBACK_EVERY = 5
RETRAIN_EVERY = 50


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Open-loop request rate (req/s); None means a closed loop over the
    #: client's connections.
    rate: float | None
    #: QuadHist tau of the served model.
    tau: float
    #: True: the worker seeds its own service from feedback (keeping fit
    #: state for incremental updates); False: the benchmark fits the model
    #: and the worker restores it from a snapshot, as ``repro serve`` does.
    seeded: bool = False
    #: Client connections, one thread each.
    connections: int = 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "point-light",
            "single estimates at 100 req/s on an idle server: HTTP and coalescer "
            "costs show, kernel costs barely do",
            rate=100.0,
            tau=0.01,
        ),
        Workload(
            "point-saturated",
            "single estimates over 2 closed-loop connections, 75% from a 512-query "
            "hot set: per-request overhead and the prediction cache",
            rate=None,
            tau=0.01,
        ),
        # One connection: with two, pairs of requests flip at random between
        # being coalesced into one 512-query flush (~104 ms each) and
        # alternating (~66 ms each), which moves the run's median by 25%.
        Workload(
            "bulk-predict",
            "256 unique mixed-range queries per request over one closed-loop "
            "connection: kernel, index and dispatch costs",
            rate=None,
            tau=0.003,
            connections=1,
        ),
        Workload(
            "feedback-mixed",
            "estimates at 100 req/s with every 5th request a feedback that "
            "triggers incremental updates: writes beside reads",
            rate=100.0,
            tau=0.01,
            seeded=True,
        ),
    )
}


@dataclass
class Request:
    kind: str  # "estimate", "predict" or "feedback"
    body: bytes
    queries: list  # the ranges the body encodes

    @property
    def path(self) -> str:
        return f"/v1/{self.kind}"


@dataclass
class Inputs:
    train_queries: list
    train_labels: np.ndarray
    warmup: list[Request]
    traffic: list[Request]
    eval_queries: list
    eval_labels: np.ndarray


def _estimate(query) -> Request:
    return Request("estimate", json.dumps({"query": range_to_dict(query)}).encode(), [query])


def _predict(queries) -> Request:
    body = {"queries": [range_to_dict(q) for q in queries]}
    return Request("predict", json.dumps(body).encode(), list(queries))


def _feedback(query, label: float) -> Request:
    body = {"query": range_to_dict(query), "selectivity": float(label)}
    return Request("feedback", json.dumps(body).encode(), [query])


def paper_boxes(n: int, rng, dataset=None) -> list:
    """The paper's boxes: widths U[0, 1]; data-centred when given a dataset."""
    spec = WorkloadSpec("box", "data" if dataset is not None else "random")
    return generate_workload(n, 2, rng, spec=spec, dataset=dataset)


def selective_boxes(n: int, rng, dataset) -> list:
    """Data-centred boxes with widths U[0, 0.05]."""
    centers = dataset.sample_rows(n, rng)
    half = rng.uniform(0.0, 0.05, size=centers.shape) / 2.0
    lows = np.clip(centers - half, 0.0, 1.0)
    highs = np.clip(centers + half, 0.0, 1.0)
    return [Box(lo, hi) for lo, hi in zip(lows, highs)]


def bulk_mix(n: int, rng, dataset) -> list:
    """45% paper boxes, 45% selective boxes, 5% halfspaces, 5% balls, shuffled."""
    small = round(0.05 * n)
    boxes = (n - 2 * small) // 2
    queries = (
        paper_boxes(boxes, rng)
        + selective_boxes(n - 2 * small - boxes, rng, dataset)
        + generate_workload(small, 2, rng, WorkloadSpec("halfspace", "data"), dataset)
        + generate_workload(small, 2, rng, WorkloadSpec("ball", "data"), dataset)
    )
    return [queries[i] for i in rng.permutation(n)]


def _point_stream(rng, count: int, hot: list | None) -> list[Request]:
    """``count`` estimates: unique paper boxes, or a hot/unique mix."""
    if hot is None:
        return [_estimate(q) for q in paper_boxes(count, rng)]
    is_hot = rng.random(count) < HOT_SHARE
    unique = iter(paper_boxes(int((~is_hot).sum()), rng))
    hot_requests = [_estimate(q) for q in hot]
    picks = rng.integers(0, len(hot), size=count)
    return [
        hot_requests[pick] if h else _estimate(next(unique))
        for h, pick in zip(is_hot, picks)
    ]


def _feedback_stream(rng, count: int, dataset) -> list[Request]:
    """Every :data:`FEEDBACK_EVERY`-th request a fresh labelled feedback."""
    n_feedback = count // FEEDBACK_EVERY
    fresh = paper_boxes(n_feedback, rng, dataset)
    labels = iter(label_queries(dataset, fresh))
    fresh_iter = iter(fresh)
    reads = iter(paper_boxes(count - n_feedback, rng))
    return [
        _feedback(next(fresh_iter), next(labels))
        if i % FEEDBACK_EVERY == FEEDBACK_EVERY - 1
        else _estimate(next(reads))
        for i in range(count)
    ]


def _stream(workload: Workload, rng, seconds: float, dataset, bulk_bodies: int):
    if workload.name == "point-light":
        return _point_stream(rng, math.ceil(workload.rate * seconds), None)
    if workload.name == "point-saturated":
        hot = paper_boxes(HOT_SET, rng)
        return _point_stream(rng, SATURATED_STREAM, hot)
    if workload.name == "bulk-predict":
        return [_predict(bulk_mix(BULK_BATCH, rng, dataset)) for _ in range(bulk_bodies)]
    return _feedback_stream(rng, math.ceil(workload.rate * seconds), dataset)


def make_inputs(workload: Workload, seed: int, warmup_s: float, seconds: float) -> Inputs:
    """All requests and labels for one run; the same seed gives the same inputs."""
    dataset = power_like(rows=25_000).project([0, 3])
    train_rng = np.random.default_rng(MODEL_SEED)
    train = paper_boxes(TRAIN_QUERIES, train_rng, dataset)
    eval_rng = np.random.default_rng(EVAL_SEED)
    held_out = (
        bulk_mix(EVAL_QUERIES, eval_rng, dataset)
        if workload.name == "bulk-predict"
        else paper_boxes(EVAL_QUERIES, eval_rng)
    )
    # Warm-up inputs come from their own stream, apart from the measured ones.
    warmup = _stream(
        workload, np.random.default_rng([seed, 0]), warmup_s, dataset, BULK_BODIES // 2
    )
    traffic = _stream(workload, np.random.default_rng([seed, 1]), seconds, dataset, BULK_BODIES)
    return Inputs(
        train_queries=train,
        train_labels=label_queries(dataset, train),
        warmup=warmup,
        traffic=traffic,
        eval_queries=held_out,
        eval_labels=label_queries(dataset, held_out),
    )


def eval_requests(inputs: Inputs) -> list[Request]:
    """The held-out set as ``/v1/predict`` batches."""
    q = inputs.eval_queries
    return [_predict(q[i : i + EVAL_BATCH]) for i in range(0, len(q), EVAL_BATCH)]
