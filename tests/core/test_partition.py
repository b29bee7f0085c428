"""The level-synchronous partition against the sequential descent.

QuadHist and KdHist build their partition one tree level at a time from
the batch kernels.  The oracle is the one-query, one-node descent of
Algorithm 2 (``descent_oracle.py``), which uses the single-pair volume
functions.  For arbitrary small workloads — boxes, halfspaces, balls and
a mix of the three, in 1–3 dimensions, with no cap and with a binding
``max_leaves`` cap, for ``fit`` and for K-batch ``partial_fit`` — the
leaf arrays must be bitwise the oracle's, in the same column order, and
every update must report the oracle's reused and recomputed columns.
The same must hold when the share blocks are chunked to 64 entries.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import KdHist, QuadHist
from repro.geometry import batch
from repro.geometry.ranges import Ball, Box, Halfspace, unit_box

from tests.core.descent_oracle import DescentTree

ESTIMATORS = {"quadhist": QuadHist, "kdhist": KdHist}
FAMILIES = ("box", "halfspace", "ball", "mixed")


def _query(family: str, dim: int, rng: np.random.Generator):
    if family == "mixed":
        family = ("box", "halfspace", "ball")[rng.integers(3)]
    if family == "box":
        lows = rng.uniform(0.0, 0.8, size=dim)
        return Box(lows, np.minimum(lows + rng.uniform(0.02, 0.5, size=dim), 1.0))
    if family == "halfspace":
        return Halfspace.through_point(rng.random(dim), rng.normal(size=dim))
    return Ball(rng.random(dim), 0.05 + 0.4 * rng.random())


def _workload(seed: int, family: str, dim: int, n: int):
    rng = np.random.default_rng(seed)
    queries = [_query(family, dim, rng) for _ in range(n)]
    labels = rng.uniform(0.05, 1.0, size=n)
    labels[rng.random(n) < 0.1] = 0.0  # queries the descent skips
    return queries, labels


def _batches(queries, labels, k: int):
    bounds = np.linspace(0, len(queries), k + 1).astype(int)
    return [(queries[a:b], labels[a:b]) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _assert_leaves_equal(est, oracle_arrays):
    lows, highs, volumes = oracle_arrays
    for name, expected in (
        ("_leaf_lows", lows),
        ("_leaf_highs", highs),
        ("_leaf_volumes", volumes),
    ):
        actual = getattr(est, name)
        assert actual.shape == expected.shape, name
        assert actual.dtype == expected.dtype, name
        assert actual.tobytes() == expected.tobytes(), name


def _check_against_descent(name, seed, family, dim, tau, cap_share, n_batches):
    queries, labels = _workload(seed, family, dim, 12)
    max_depth = ESTIMATORS[name]().max_depth
    max_leaves = None
    if cap_share is not None:
        uncapped = DescentTree(unit_box(dim), tau, None, max_depth, name)
        uncapped.absorb(queries, labels)
        leaves = uncapped.leaf_arrays()[0].shape[0]
        max_leaves = max(1, int(cap_share * (leaves - 1)))  # < leaves: the cap binds
    batches = _batches(queries, labels, n_batches)

    oracle = DescentTree(unit_box(dim), tau, max_leaves, max_depth, name)
    expected = []
    for batch_q, batch_s in batches:
        reused = oracle.absorb(batch_q, batch_s)
        arrays = oracle.leaf_arrays()
        expected.append((arrays, reused, arrays[0].shape[0] - reused))

    for chunk in (batch.CHUNK_ELEMENTS, 64):
        with mock.patch.object(batch, "CHUNK_ELEMENTS", chunk):
            est = ESTIMATORS[name](tau=tau, max_leaves=max_leaves)
            for step, ((batch_q, batch_s), (arrays, reused, recomputed)) in enumerate(
                zip(batches, expected)
            ):
                if step == 0:
                    est.fit(batch_q, batch_s)
                else:
                    est.partial_fit(batch_q, batch_s)
                    report = est.update_report_
                    assert report.columns_reused == reused
                    assert report.columns_recomputed == recomputed
                _assert_leaves_equal(est, arrays)
    if max_leaves is not None:
        assert est.model_size <= max_leaves


workload_args = dict(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(FAMILIES),
    dim=st.integers(1, 3),
    tau=st.sampled_from([0.02, 0.05, 0.1]),
)


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
class TestMatchesSequentialDescent:
    @settings(max_examples=30, deadline=None)
    @given(**workload_args)
    # Quasi-Monte-Carlo ball volumes (d = 3) are not monotone under box
    # containment: here a query whose share of a node falls to τ exceeds
    # it at a grandchild, which the descent never visits with it.
    @example(seed=221331877, family="ball", dim=3, tau=0.02)
    def test_fit(self, name, seed, family, dim, tau):
        _check_against_descent(name, seed, family, dim, tau, None, 1)

    @settings(max_examples=30, deadline=None)
    @given(**workload_args, cap_share=st.floats(0.1, 0.95))
    def test_fit_under_binding_cap(self, name, seed, family, dim, tau, cap_share):
        _check_against_descent(name, seed, family, dim, tau, cap_share, 1)

    @settings(max_examples=30, deadline=None)
    @given(
        **workload_args,
        cap_share=st.none() | st.floats(0.1, 0.95),
        n_batches=st.integers(2, 4),
    )
    # The same effect one update later: the leaf's ancestors decide whether
    # a new query reaches it.
    @example(seed=3778073021, family="ball", dim=3, tau=0.02, cap_share=None, n_batches=3)
    def test_partial_fit(self, name, seed, family, dim, tau, cap_share, n_batches):
        _check_against_descent(name, seed, family, dim, tau, cap_share, n_batches)


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_small_cap_prunes_the_frontier(name):
    """A cap far below the uncapped tree keeps the partition about as
    small as the capped descent.  The whole-domain query would split every
    node to a volume of ``τ`` (4^9 QuadHist leaves) without the pruning."""
    queries = [Box([0.0, 0.0], [1.0, 1.0])] * 3
    labels = [1.0] * 3
    cap = 64
    est = ESTIMATORS[name](tau=1e-5, max_leaves=cap)
    oracle = DescentTree(unit_box(2), 1e-5, cap, est.max_depth, name)
    oracle.absorb(queries, labels)
    with mock.patch.object(
        batch, "intersection_volume_matrix", wraps=batch.intersection_volume_matrix
    ) as kernel:
        est.fit(queries, labels)
    evaluated = sum(call.args[1].shape[0] for call in kernel.call_args_list)
    _assert_leaves_equal(est, oracle.leaf_arrays())
    assert est.model_size == oracle.leaf_count
    assert evaluated <= est._fanout(2) * cap * est.max_depth
