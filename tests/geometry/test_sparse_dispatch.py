"""The sparse/dense cost rule (repro.geometry.sparse).

Each box or ball row goes sparse only when the index's estimate of its
lookup and pair work undercuts the ``m`` dense entries, and the rows that
go sparse together save more than a call's fixed cost; halfspace rows
always run dense.  The outcome of every row is counted in
``repro_sparse_calls_total{kernel,path}``.
"""

import numpy as np

import repro.geometry.sparse as sparse_mod
from repro.geometry.batch import containment_matrix, coverage_dot
from repro.geometry.index import BucketIndex, UniformGridIndex
from repro.geometry.ranges import Box, Halfspace
from repro.geometry.sparse import sparse_containment_dot, sparse_coverage_dot
from repro.observability import default_registry


def _grid_buckets(per_dim: int):
    """``per_dim**2`` equal cells tiling the unit square."""
    edges = np.linspace(0.0, 1.0, per_dim + 1)
    xs, ys = np.meshgrid(edges[:-1], edges[:-1], indexing="ij")
    lows = np.column_stack([xs.ravel(), ys.ravel()])
    return lows, lows + 1.0 / per_dim


def _calls(path: str) -> float:
    return default_registry().get("repro_sparse_calls_total").value(kernel="box", path=path)


def _predict(queries, index):
    volumes = np.prod(index.b_highs - index.b_lows, axis=1)
    weights = np.full(index.m, 1.0 / index.m)
    got = sparse_coverage_dot(queries, index, volumes, weights)
    dense = coverage_dot(queries, index.b_lows, index.b_highs, volumes, weights)
    np.testing.assert_allclose(got, dense, atol=1e-12, rtol=0)


def test_whole_domain_box_runs_dense_without_a_lookup(monkeypatch):
    index = UniformGridIndex(*_grid_buckets(32))  # 1024 buckets

    def no_lookup(*args, **kwargs):
        raise AssertionError("the rule looked up a row it sends dense")

    monkeypatch.setattr(index, "candidates_for_boxes", no_lookup)
    before = _calls("dense")
    _predict([Box([0.0, 0.0], [1.0, 1.0])] * 64, index)
    assert _calls("dense") - before == 64


def test_tiny_boxes_on_many_buckets_run_sparse():
    index = UniformGridIndex(*_grid_buckets(128))  # 16384 buckets
    lows = np.random.default_rng(0).uniform(0.0, 0.99, size=(200, 2))
    before = _calls("sparse")
    _predict([Box(lo, lo + 0.005) for lo in lows], index)
    assert _calls("sparse") - before == 200


def test_mixed_batch_splits_rows_between_paths():
    tiny = 100
    index = UniformGridIndex(*_grid_buckets(128))
    rng = np.random.default_rng(1)
    queries = [Box(lo, lo + 0.005) for lo in rng.uniform(0.0, 0.99, size=(tiny, 2))]
    queries += [Box([0.0, 0.0], [1.0, 1.0])] * 20
    order = rng.permutation(len(queries))
    dense_before, sparse_before = _calls("dense"), _calls("sparse")
    _predict([queries[i] for i in order], index)
    assert _calls("sparse") - sparse_before == tiny
    assert _calls("dense") - dense_before == 20


def test_halfspace_rows_stay_dense_when_sparse_is_forced(monkeypatch):
    """A halfspace has no finite bounding box, and its corner test costs
    more per bucket than a dense entry: its rows run dense even when the
    rule would send every row sparse, and the corner test never runs."""
    monkeypatch.setattr(
        sparse_mod, "_sparse_rows", lambda n, dense_ns, sparse_ns: np.ones(n, dtype=bool)
    )

    def no_corner_test(*args, **kwargs):
        raise AssertionError("a halfspace row took the corner test")

    monkeypatch.setattr(BucketIndex, "halfspace_candidates", no_corner_test)
    index = UniformGridIndex(*_grid_buckets(64))  # 4096 buckets
    rng = np.random.default_rng(2)
    queries = [Halfspace(n, float(n @ [0.9, 0.9])) for n in rng.normal(size=(40, 2)) + 1.0]
    calls = default_registry().get("repro_sparse_calls_total")
    before = {path: calls.value(kernel="halfspace", path=path) for path in ("dense", "sparse")}
    _predict(queries, index)
    weights = np.full(index.m, 1.0 / index.m)
    got = sparse_containment_dot(queries, index, weights)
    np.testing.assert_array_equal(got, containment_matrix(queries, index.b_lows) @ weights)
    assert calls.value(kernel="halfspace", path="dense") - before["dense"] == 80
    assert calls.value(kernel="halfspace", path="sparse") - before["sparse"] == 0
