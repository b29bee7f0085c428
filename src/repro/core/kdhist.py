"""KdHist — a kd-tree variant of QuadHist for higher dimensions.

QuadHist splits a leaf into ``2^d`` children, which breaks down as ``d``
grows: a single split at ``d = 10`` creates 1024 buckets, instantly
exhausting any reasonable model-size budget (our Figure 18/19 benchmark
measures exactly that degeneration).  KdHist keeps the paper's bucket-
design *rule* — split a leaf whose estimated density share
``Vol(u ∩ R)/Vol(R) · s(R)`` exceeds ``τ`` — but replaces the split
*shape* with a kd-tree bisection: one leaf becomes two halves along a
single axis (cycling through axes by depth, halving at the midpoint).

KdHist is QuadHist with that split (``_split``, fanout 2) and a deeper
``max_depth`` default; the level-synchronous partition, ``partial_fit``,
prediction and persistence are QuadHist's.  The buckets are disjoint
boxes partitioning the domain, weights solve Eq. (8) on the simplex, and
the model supports any query class with computable box-intersection
volumes.

Like QuadHist, the partition is order-invariant: the split rule for a
fixed node depends only on whether *some* training query pushes it over
``τ``, and splitting is monotone (more refinement never prevents other
refinement) — the same argument as Lemma A.4.
"""

from __future__ import annotations

from typing import ClassVar

import numpy as np

from repro.core.config import KdHistConfig
from repro.core.quadhist import QuadHist
from repro.geometry.ranges import Box

__all__ = ["KdHist"]


class KdHist(QuadHist):
    """Binary-split histogram: QuadHist's rule with kd-tree geometry.

    Parameters mirror :class:`~repro.core.quadhist.QuadHist`; ``max_depth``
    defaults higher because each level only halves one axis (depth ``d*k``
    in KdHist reaches the granularity of depth ``k`` in QuadHist).  A fit
    capped at ``max_leaves`` keeps the first ``max_leaves − 1`` splits,
    in QuadHist's order.
    """

    Config: ClassVar = KdHistConfig

    def __init__(
        self,
        tau: float = 0.01,
        max_leaves: int | None = None,
        max_depth: int = 60,
        objective: str = "l2",
        solver: str = "penalty",
        domain: Box | None = None,
    ):
        super().__init__(tau, max_leaves, max_depth, objective, solver, domain)

    @staticmethod
    def _fanout(dim: int) -> int:
        return 2

    @staticmethod
    def _split(lows: np.ndarray, highs: np.ndarray, depths: np.ndarray) -> tuple:
        """Halve each box at the midpoint of axis ``depth % d``, lower half first."""
        rows = np.arange(lows.shape[0])
        axis = depths % lows.shape[1]
        mid = 0.5 * (lows[rows, axis] + highs[rows, axis])
        child_lows = np.repeat(lows, 2, axis=0)
        child_highs = np.repeat(highs, 2, axis=0)
        child_highs[2 * rows, axis] = mid
        child_lows[2 * rows + 1, axis] = mid
        return child_lows, child_highs
