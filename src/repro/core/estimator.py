"""Public estimator API.

Every learner — QuadHist, PtsHist, the arrangement ERM, and the ISOMER /
QuickSel baselines — implements the same sklearn-flavoured interface:

.. code-block:: python

    est = QuadHist(tau=0.01)
    est.fit(train_queries, train_selectivities)
    predictions = est.predict_many(test_queries)

All estimators are *query-driven*: ``fit`` sees only queries and their
observed selectivities, never the underlying data (the paper's "fair
comparison" constraint in Section 4).
"""

from __future__ import annotations

import abc
import dataclasses
from typing import ClassVar, Dict, Sequence

import numpy as np

from repro.core.config import EstimatorConfig
from repro.core.workload import TrainingSet
from repro.geometry.ranges import Range
from repro.observability.metrics import default_registry
from repro.observability.tracing import span
from repro.robustness.errors import ModelUnavailableError
from repro.robustness.sanitize import SanitizationReport

__all__ = ["SelectivityEstimator", "NotFittedError"]

_PREDICT_QUERIES = default_registry().counter(
    "repro_predict_queries_total",
    "Queries answered through predict_many across all estimators",
)


class NotFittedError(ModelUnavailableError):
    """Raised when ``predict`` is called before ``fit``.

    (A :class:`~repro.robustness.errors.ModelUnavailableError`, and — for
    backward compatibility — still a ``RuntimeError``.)
    """


class SelectivityEstimator(abc.ABC):
    """Base class for query-driven selectivity estimators."""

    #: Typed config dataclass for this estimator, when it has one.  Set on
    #: registry estimators (``QuadHist.Config = QuadHistConfig`` etc.), so
    #: ``cls.from_config(cfg)`` builds the same estimator as the keyword
    #: constructor.
    Config: ClassVar[type[EstimatorConfig] | None] = None

    def __init__(self):
        self._fitted = False
        #: Quarantine outcome of the last ``fit`` (None without a policy).
        self.sanitization_: SanitizationReport | None = None

    @classmethod
    def from_config(cls, config: EstimatorConfig) -> "SelectivityEstimator":
        """Build an estimator from its typed config."""
        if cls.Config is None:
            raise TypeError(f"{cls.__name__} has no Config dataclass")
        if not isinstance(config, cls.Config):
            raise TypeError(
                f"{cls.__name__}.from_config needs a {cls.Config.__name__}, "
                f"got {type(config).__name__}"
            )
        return cls(**config.kwargs())

    @property
    def config(self) -> EstimatorConfig:
        """The typed config this estimator was constructed from.

        Reconstructed field-for-field from the constructor attributes, so
        it reflects the *actual* construction arguments and round-trips:
        ``type(est).from_config(est.config)`` builds an equivalent
        (unfitted) estimator.
        """
        cfg_cls = type(self).Config
        if cfg_cls is None:
            raise TypeError(f"{type(self).__name__} has no Config dataclass")
        values = {}
        for f in dataclasses.fields(cfg_cls):
            value = getattr(self, f.name)
            if isinstance(value, list):
                value = tuple(value)
            values[f.name] = value
        return cfg_cls(**values)

    # ------------------------------------------------------------------
    # Persistence hooks (see repro.persistence)
    # ------------------------------------------------------------------

    def _state_dict(self) -> Dict[str, object]:
        """Fitted state as a flat dict of arrays and JSON-able scalars.

        ``np.ndarray`` values land in the artifact's npz payload; plain
        scalars/strings/lists land in the manifest.  Keys prefixed with
        ``"distribution."`` carry nested distribution state.  Must contain
        everything :meth:`_load_state_dict` needs to reproduce
        ``predict_many`` bitwise.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support persistence"
        )

    def _load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore fitted state produced by :meth:`_state_dict`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support persistence"
        )

    def fit(
        self,
        queries: Sequence[Range],
        selectivities: Sequence[float],
        policy: str | None = None,
    ) -> "SelectivityEstimator":
        """Learn a model from ``(query, selectivity)`` pairs.

        ``policy`` ("raise" / "drop" / "clamp") runs training-set
        sanitization first (see :class:`~repro.core.workload.TrainingSet`);
        the resulting quarantine report lands on ``self.sanitization_``.

        Returns ``self`` for chaining.

        The whole fit runs under a ``fit`` tracing span (labelled with
        the concrete estimator class); subclass stages open child spans
        (``fit/partition``, ``fit/design-matrix``, ``fit/solve``), so one
        trace shows where training time went.
        """
        with span("fit", estimator=type(self).__name__) as fit_span:
            with span("fit/sanitize"):
                training = TrainingSet(queries, selectivities, policy=policy)
            self.sanitization_ = training.sanitization
            fit_span.annotate(samples=len(training))
            self._fit(training)
            self._fitted = True
        return self

    @abc.abstractmethod
    def _fit(self, training: TrainingSet) -> None:
        """Subclass hook: fit from a validated training set."""

    def _predict_one(self, query: Range) -> float:
        """Subclass hook: the raw estimate of one query.

        Defaults to a one-query :meth:`_predict_batch`, so a learner with
        a batch path predicts through that one path.  Learners without a
        batch path, or whose one-query arithmetic is cheaper than a
        one-query batch, override it.
        """
        return float(self._predict_batch([query])[0])

    def _predict_batch(self, queries: Sequence[Range]) -> np.ndarray | None:
        """Subclass hook: raw estimates for a whole workload at once.

        Returning ``None`` (the default) makes :meth:`predict_many` fall
        back to the per-query :meth:`predict` loop.  Implementations
        return the *raw* (unclamped) estimates; the base class applies the
        same NaN→0.5 / [0, 1]-clamp semantics as :meth:`predict` in one
        vectorised pass.
        """
        return None

    def predict(self, query: Range) -> float:
        """Estimated selectivity of ``query``, always in ``[0, 1]``.

        The base class enforces the unit-interval invariant for every
        learner and baseline: finite raw estimates are clamped, and a
        non-finite raw estimate (a numerically broken model state) maps
        to 0.5 — the maximum-uncertainty answer — rather than leaking NaN
        into an optimizer's cost model.
        """
        self._check_fitted()
        raw = float(self._predict_one(query))
        if not np.isfinite(raw):
            return 0.5
        return float(np.clip(raw, 0.0, 1.0))

    def predict_many(self, queries: Sequence[Range]) -> np.ndarray:
        """Estimated selectivities for a sequence of queries.

        Runs the estimator's vectorised batch path when it provides one
        (:meth:`_predict_batch`), falling back to the scalar loop
        otherwise.  Either way the per-query semantics of
        :meth:`predict` hold: finite raw estimates are clamped to
        ``[0, 1]`` and non-finite ones map to 0.5.
        """
        self._check_fitted()
        queries = list(queries)
        if not queries:
            return np.zeros(0)
        _PREDICT_QUERIES.inc(len(queries))
        raw = self._predict_batch(queries)
        if raw is None:
            return np.array([self.predict(q) for q in queries])
        raw = np.asarray(raw, dtype=float)
        if raw.shape != (len(queries),):
            raise ValueError(
                f"_predict_batch returned shape {raw.shape}, expected ({len(queries)},)"
            )
        with np.errstate(invalid="ignore"):
            return np.where(np.isfinite(raw), np.clip(raw, 0.0, 1.0), 0.5)

    @property
    @abc.abstractmethod
    def model_size(self) -> int:
        """Model complexity: the number of buckets / mixture components."""

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} must be fitted before predicting")

    def __repr__(self) -> str:
        state = "fitted" if self._fitted else "unfitted"
        return f"{type(self).__name__}({state})"
