"""KdHist — a kd-tree variant of QuadHist for higher dimensions.

QuadHist splits a leaf into ``2^d`` children, which breaks down as ``d``
grows: a single split at ``d = 10`` creates 1024 buckets, instantly
exhausting any reasonable model-size budget (our Figure 18/19 benchmark
measures exactly that degeneration).  KdHist keeps the paper's bucket-
design *rule* — split a leaf whose estimated density share
``Vol(u ∩ R)/Vol(R) · s(R)`` exceeds ``τ`` — but replaces the split
*shape* with a kd-tree bisection: one leaf becomes two halves along a
single axis (cycling through axes by depth, halving at the midpoint).

KdHist is QuadHist with that node type and a deeper ``max_depth``
default; fitting, ``partial_fit``, prediction and persistence are
QuadHist's.  The buckets are disjoint boxes partitioning the domain,
weights solve Eq. (8) on the simplex, and the model supports any query
class with computable box-intersection volumes.

Like QuadHist, the partition is order-invariant: the split rule for a
fixed node depends only on whether *some* training query pushes it over
``τ``, and splitting is monotone (more refinement never prevents other
refinement) — the same argument as Lemma A.4.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.config import KdHistConfig
from repro.core.quadhist import QuadHist, _Node
from repro.geometry.ranges import Box

__all__ = ["KdHist"]


class _KdNode(_Node):
    """A kd-tree node: splits into two halves along its axis."""

    __slots__ = ("axis",)

    fanout = 2

    def __init__(self, box: Box, axis: int = 0):
        super().__init__(box)
        self.axis = axis  # the axis this node splits on (when split)

    def split(self) -> None:
        mid = 0.5 * (self.box.lows[self.axis] + self.box.highs[self.axis])
        left_highs = self.box.highs.copy()
        left_highs[self.axis] = mid
        right_lows = self.box.lows.copy()
        right_lows[self.axis] = mid
        next_axis = (self.axis + 1) % self.box.dim
        self.children = [
            _KdNode(Box(self.box.lows.copy(), left_highs), next_axis),
            _KdNode(Box(right_lows, self.box.highs.copy()), next_axis),
        ]


class KdHist(QuadHist):
    """Binary-split histogram: QuadHist's rule with kd-tree geometry.

    Parameters mirror :class:`~repro.core.quadhist.QuadHist`; ``max_depth``
    defaults higher because each level only halves one axis (depth ``d*k``
    in KdHist reaches the granularity of depth ``k`` in QuadHist).
    """

    Config: ClassVar = KdHistConfig
    _node_type: ClassVar[type] = _KdNode

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
