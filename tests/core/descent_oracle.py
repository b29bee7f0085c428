"""The sequential Algorithm 2 descent, kept as a test oracle.

QuadHist and KdHist partition the domain one tree level at a time
(:mod:`repro.core.incremental`).  This module keeps the one-query,
one-node recursive descent they replaced: each training query walks the
tree from the root, a node is visited only while the query's density
share there exceeds ``τ``, and a visited leaf below ``max_depth`` splits
unless the ``max_leaves`` cap would be passed.  Shares come from the
single-pair :func:`repro.geometry.volume.intersection_volume`, so the
oracle shares no kernel code with the code under test.

The leaves come back in DFS pre-order, the learners' column order.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.geometry.ranges import Box, Range
from repro.geometry.volume import intersection_volume, range_volume


class _Node:
    """A quadtree node: splits into its box's ``2^d`` children."""

    __slots__ = ("box", "children")

    def __init__(self, box: Box):
        self.box = box
        self.children: list | None = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    @property
    def fanout(self) -> int:
        return 1 << self.box.dim

    def split(self) -> None:
        self.children = [_Node(child) for child in self.box.split()]

    def leaves(self) -> Iterator["_Node"]:
        if self.is_leaf:
            yield self
        else:
            for child in self.children:
                yield from child.leaves()


class _KdNode(_Node):
    """A kd-tree node: splits into two halves along its axis."""

    __slots__ = ("axis",)

    fanout = 2

    def __init__(self, box: Box, axis: int = 0):
        super().__init__(box)
        self.axis = axis

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


class DescentTree:
    """Algorithm 2 run one query and one node at a time.

    ``kind`` is ``"quadhist"`` (``2^d``-way midpoint splits) or
    ``"kdhist"`` (halving along axis ``depth % d``).
    """

    def __init__(
        self,
        domain: Box,
        tau: float,
        max_leaves: int | None = None,
        max_depth: int = 20,
        kind: str = "quadhist",
    ):
        self.root = _KdNode(domain) if kind == "kdhist" else _Node(domain)
        self.tau = tau
        self.max_leaves = max_leaves
        self.max_depth = max_depth
        self.leaf_count = 1

    def absorb(self, queries: Sequence[Range], selectivities: Sequence[float]) -> int:
        """Refine the tree with a batch; returns how many leaves existed
        before the batch and are still leaves after it."""
        before = {id(leaf) for leaf in self.root.leaves()}
        for query, selectivity in zip(queries, selectivities):
            volume = range_volume(query, self.root.box)
            if volume <= 0.0 or selectivity <= 0.0:
                continue
            self._descend(self.root, query, selectivity / volume, 0)
        return sum(id(leaf) in before for leaf in self.root.leaves())

    def _descend(self, node: _Node, query: Range, density: float, depth: int) -> None:
        overlap = intersection_volume(node.box, query)
        if overlap * density <= self.tau:
            return
        if node.is_leaf:
            if depth >= self.max_depth:
                return
            if self.max_leaves is not None and self.leaf_count + node.fanout - 1 > self.max_leaves:
                return
            node.split()
            self.leaf_count += node.fanout - 1
        for child in node.children:
            self._descend(child, query, density, depth + 1)

    def leaf_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lows, highs, volumes)`` of the leaves in DFS pre-order."""
        leaves = list(self.root.leaves())
        lows = np.stack([leaf.box.lows for leaf in leaves])
        highs = np.stack([leaf.box.highs for leaf in leaves])
        return lows, highs, np.prod(highs - lows, axis=1)
