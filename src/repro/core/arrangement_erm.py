"""Arrangement-based exact empirical-risk minimiser (Section 3.1).

The generic procedure of Section 3.1 chooses buckets from the arrangement
of the training ranges, then estimates weights with Eq. (8).  By Lemma 3.1
the result minimises the empirical loss over *all* histograms (resp. all
discrete distributions) — no bounded-complexity family can do better on the
training sample.  Its cost grows exponentially with dimension, which is the
paper's motivation for the bounded-complexity QuadHist/PtsHist learners.

Two modes:

* ``mode="histogram"`` — exact grid refinement of the box arrangement
  (orthogonal ranges only; low dimension),
* ``mode="discrete"`` — one representative point per distinct arrangement
  cell, discovered by Monte-Carlo sign vectors (any query class).

The histogram mode keeps only its bucket design (the arrangement cells):
prediction, the ``distribution`` view and persistence (under ``cell_*``
keys) come from :class:`~repro.core.quadhist.BucketHistogram`.  The discrete
mode predicts through its :class:`~repro.distributions.discrete.DiscreteDistribution`.
"""

from __future__ import annotations

from typing import ClassVar, Dict, Sequence

import numpy as np

from repro.core.config import ArrangementERMConfig
from repro.core.quadhist import BucketHistogram
from repro.core.workload import TrainingSet
from repro.distributions.discrete import DiscreteDistribution
from repro.geometry.arrangement import box_arrangement_cells, sign_vector_cells
from repro.geometry.index import build_bucket_index
from repro.geometry.sparse import sparse_containment_matrix
from repro.geometry.ranges import Box, Range, unit_box
from repro.core._solve import solve_weights
from repro.observability.tracing import span
from repro.solvers.simplex_ls import SOLVERS, SolveReport

__all__ = ["ArrangementERM"]


class ArrangementERM(BucketHistogram):
    """Exact ERM over histograms / discrete distributions (Lemma 3.1).

    Parameters
    ----------
    mode:
        ``"histogram"`` (boxes only) or ``"discrete"`` (any ranges).
    seed:
        Seed for the sign-vector sampler in discrete mode.
    samples:
        Monte-Carlo points used to discover arrangement cells in discrete
        mode.
    max_cells:
        Guard on the exact grid size in histogram mode.
    solver:
        Simplex-LS method (``"pgd"`` by default: Lemma 3.1's optimality
        claim needs the exact constrained minimiser, not the penalty
        approximation).
    """

    Config: ClassVar = ArrangementERMConfig
    _state_prefix = "cell"

    def __init__(
        self,
        mode: str = "discrete",
        seed: int = 0,
        samples: int = 4096,
        max_cells: int = 250_000,
        solver: str = "pgd",
        domain: Box | None = None,
    ):
        super().__init__()
        if mode not in ("histogram", "discrete"):
            raise ValueError(f"mode must be 'histogram' or 'discrete', got {mode!r}")
        if solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}, got {solver!r}")
        self.mode = mode
        self.seed = int(seed)
        self.samples = int(samples)
        self.max_cells = int(max_cells)
        self.solver = solver
        self.domain = domain
        #: How the last weight solve was produced (fallback ladder record).
        self.solve_report_: SolveReport | None = None
        self._discrete: DiscreteDistribution | None = None

    def _fit(self, training: TrainingSet) -> None:
        domain = self.domain if self.domain is not None else unit_box(training.dim)
        if self.mode == "histogram":
            if not all(isinstance(q, Box) for q in training.queries):
                raise TypeError("histogram mode requires orthogonal-range (Box) queries")
            with span("fit/partition", mode=self.mode) as partition_span:
                cells = box_arrangement_cells(
                    list(training.queries), domain=domain, max_cells=self.max_cells
                )
                cells = [c for c in cells if c.volume() > 0.0]
                partition_span.annotate(cells=len(cells))
            self._set_buckets(np.stack([c.lows for c in cells]), np.stack([c.highs for c in cells]))
            self._weights, self.solve_report_ = solve_weights(
                self._design(training.queries), training.selectivities, solver=self.solver
            )
        else:
            rng = np.random.default_rng(self.seed)
            with span("fit/partition", mode=self.mode) as partition_span:
                points = sign_vector_cells(
                    list(training.queries), rng, domain=domain, samples=self.samples
                )
                partition_span.annotate(cells=len(points))
            point_index = build_bucket_index(points, points)
            with span("fit/design-matrix", rows=len(training), buckets=len(points)):
                design = sparse_containment_matrix(training.queries, point_index)
            weights, self.solve_report_ = solve_weights(
                design, training.selectivities, solver=self.solver
            )
            self._discrete = DiscreteDistribution(points, weights)
            self._discrete._index = point_index

    def _predict_one(self, query: Range) -> float:
        if self.mode == "histogram":
            return super()._predict_one(query)
        return self._discrete.selectivity(query)

    def _predict_batch(self, queries: Sequence[Range]) -> np.ndarray:
        if self.mode == "histogram":
            return super()._predict_batch(queries)
        return self._discrete.selectivity_many(queries)

    @property
    def model_size(self) -> int:
        if self.mode == "histogram":
            return super().model_size
        self._check_fitted()
        return self._discrete.size

    @property
    def distribution(self):
        """The learned distribution (histogram or discrete, per ``mode``)."""
        if self.mode == "histogram":
            return super().distribution
        self._check_fitted()
        return self._discrete

    def _state_dict(self) -> Dict[str, object]:
        if self.mode == "histogram":
            return super()._state_dict()
        return {
            f"distribution.{key}": value
            for key, value in self._discrete.to_state().items()
        }

    def _load_state_dict(self, state: Dict[str, object]) -> None:
        if self.mode == "histogram":
            super()._load_state_dict(state)
            return
        self._discrete = DiscreteDistribution.from_state(
            {
                key.split(".", 1)[1]: value
                for key, value in state.items()
                if key.startswith("distribution.")
            }
        )
        self._discrete.attach_index()
