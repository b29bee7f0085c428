"""Estimator registry: one canonical name per learner/baseline.

The CLI, the property-test suite, the persistence layer, and the serving
layer all need "every estimator we ship, by name, with sensible default
hyper-parameters for a given training size".  Keeping that list in one
place means a newly added estimator is automatically covered by the
registry-wide invariant tests (``tests/core/test_estimator_properties.py``,
``tests/persistence/test_roundtrip.py``) and selectable from the command
line.

Each entry binds a registry name to an estimator class and a *sizer* —
a function mapping the training-set size ``n`` to a typed
:class:`~repro.core.config.EstimatorConfig` (several models peg their
complexity to ``4 × n``, the paper's Section 4.1 convention).
Construction always goes through ``cls.from_config(config)``, so a
registry-made estimator can always name its exact constructor — which is
what lets :mod:`repro.persistence` record ``(name, config)`` in an
artifact manifest and rebuild the estimator elsewhere.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from typing import Callable, Dict, NamedTuple

from repro.core.config import EstimatorConfig
from repro.core.estimator import SelectivityEstimator

__all__ = [
    "estimator_factories",
    "make_estimator",
    "available_estimators",
    "estimator_class",
    "default_config",
]

Factory = Callable[[int], SelectivityEstimator]


class _Entry(NamedTuple):
    cls: type[SelectivityEstimator]
    sizer: Callable[[int], EstimatorConfig]


@functools.cache
def _entries() -> Dict[str, _Entry]:
    # Imports are deferred so this module can live inside ``repro.core``
    # without creating an import cycle with ``repro.baselines``.
    from repro.baselines import Isomer, MeanEstimator, QuickSel, UniformEstimator
    from repro.baselines.stholes import STHoles
    from repro.core.arrangement_erm import ArrangementERM
    from repro.core.config import (
        ArrangementERMConfig,
        GaussianMixtureConfig,
        IsomerConfig,
        KdHistConfig,
        MeanConfig,
        PtsHistConfig,
        QuadHistConfig,
        QuickSelConfig,
        STHolesConfig,
        UniformConfig,
    )
    from repro.core.gmm import GaussianMixtureHist
    from repro.core.kdhist import KdHist
    from repro.core.ptshist import PtsHist
    from repro.core.quadhist import QuadHist

    return {
        "quadhist": _Entry(
            QuadHist, lambda n: QuadHistConfig(tau=0.005, max_leaves=4 * n)
        ),
        "kdhist": _Entry(KdHist, lambda n: KdHistConfig(tau=0.005, max_leaves=4 * n)),
        "ptshist": _Entry(PtsHist, lambda n: PtsHistConfig(size=4 * n, seed=0)),
        "gmm": _Entry(
            GaussianMixtureHist,
            lambda n: GaussianMixtureConfig(components=4 * n, seed=0),
        ),
        "arrangement": _Entry(
            ArrangementERM, lambda n: ArrangementERMConfig(mode="discrete")
        ),
        "isomer": _Entry(Isomer, lambda n: IsomerConfig(max_buckets=10_000)),
        "quicksel": _Entry(QuickSel, lambda n: QuickSelConfig()),
        "stholes": _Entry(STHoles, lambda n: STHolesConfig(max_buckets=4 * n)),
        "uniform": _Entry(UniformEstimator, lambda n: UniformConfig()),
        "mean": _Entry(MeanEstimator, lambda n: MeanConfig()),
    }


def available_estimators() -> list[str]:
    """Sorted names of every registered estimator."""
    return sorted(_entries())


def _entry(name: str) -> _Entry:
    try:
        return _entries()[name]
    except KeyError:
        raise KeyError(
            f"unknown estimator {name!r}; choose from {available_estimators()}"
        ) from None


def estimator_class(name: str) -> type[SelectivityEstimator]:
    """The estimator class registered under ``name``."""
    return _entry(name).cls


def default_config(name: str, train_size: int = 200) -> EstimatorConfig:
    """The default config for ``name`` sized for ``train_size`` samples."""
    return _entry(name).sizer(train_size)


def estimator_factories() -> Dict[str, Factory]:
    """All registered factories, name → factory."""

    def bind(entry: _Entry) -> Factory:
        return lambda n: entry.cls.from_config(entry.sizer(n))

    return {name: bind(entry) for name, entry in _entries().items()}


def make_estimator(
    name: str,
    train_size: int = 200,
    config: EstimatorConfig | None = None,
    **overrides,
) -> SelectivityEstimator:
    """Instantiate the named estimator sized for ``train_size`` samples.

    ``config`` replaces the default config outright; ``overrides`` patch
    individual fields of the default (e.g. ``make_estimator("quadhist",
    train_size=100, tau=0.02)``).  Unknown names raise :class:`KeyError`
    listing every registered estimator, so typos fail at construction
    time rather than surfacing later as a missing model.
    """
    entry = _entry(name)
    if config is None:
        config = entry.sizer(train_size)
    if overrides:
        config = replace(config, **overrides)
    return entry.cls.from_config(config)
