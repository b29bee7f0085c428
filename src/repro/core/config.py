"""Typed estimator configurations.

Every registry estimator is constructed from a frozen dataclass config
(``QuadHistConfig``, ``PtsHistConfig``, …) via
``Estimator.from_config(cfg)``; a fitted estimator exposes the exact
config it was built from as ``estimator.config``.  This makes model
construction *explicit and replayable*: a persisted artifact
(:mod:`repro.persistence`) records ``(registry name, config dict)`` in
its manifest and can therefore name its exact constructor when the
model is reloaded in another process, months later.

Design rules:

* Config field names map 1:1 to the estimator's constructor keywords
  (and to the attributes the constructor stores), so
  ``cls.from_config(cfg)`` and ``est.config`` round-trip losslessly.
* Configs are JSON-serialisable through :meth:`EstimatorConfig.to_dict`
  / :meth:`EstimatorConfig.from_dict`.  The only non-scalar field types
  are the optional ``domain`` :class:`~repro.geometry.ranges.Box`
  (encoded as ``{"lows": [...], "highs": [...]}``) and numeric tuples
  (encoded as JSON lists).

The mapping from registry names to config classes lives in
``CONFIG_TYPES`` so artifact manifests can be validated without
importing every estimator module.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Dict

from repro.geometry.ranges import Box

__all__ = [
    "EstimatorConfig",
    "QuadHistConfig",
    "KdHistConfig",
    "PtsHistConfig",
    "GaussianMixtureConfig",
    "ArrangementERMConfig",
    "IsomerConfig",
    "QuickSelConfig",
    "STHolesConfig",
    "UniformConfig",
    "MeanConfig",
    "CONFIG_TYPES",
    "config_from_dict",
]


@dataclass(frozen=True)
class EstimatorConfig:
    """Base class for typed, JSON-round-trippable estimator configs."""

    #: Registry name of the estimator this config constructs.
    estimator: ClassVar[str] = ""

    def kwargs(self) -> dict:
        """Constructor keyword arguments, field-for-field."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_dict(self) -> dict:
        """JSON-serialisable rendering (inverse of :meth:`from_dict`)."""
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Box):
                value = {"lows": value.lows.tolist(), "highs": value.highs.tolist()}
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "EstimatorConfig":
        """Rebuild a config from its :meth:`to_dict` encoding.

        Unknown keys raise — a manifest naming fields this version does
        not know about is a format skew, not something to ignore.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"{cls.__name__}.from_dict needs a dict, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown {cls.__name__} field(s) {unknown}; known: {sorted(known)}"
            )
        kwargs: dict = {}
        for name, value in data.items():
            if name == "domain" and isinstance(value, dict):
                value = Box(value["lows"], value["highs"])
            elif name == "bandwidths" and isinstance(value, list):
                value = tuple(value)
            kwargs[name] = value
        return cls(**kwargs)


@dataclass(frozen=True)
class QuadHistConfig(EstimatorConfig):
    """Config for :class:`~repro.core.quadhist.QuadHist` (Section 3.2)."""

    estimator: ClassVar[str] = "quadhist"

    tau: float = 0.01
    max_leaves: int | None = None
    max_depth: int = 20
    objective: str = "l2"
    solver: str = "penalty"
    domain: Box | None = None


@dataclass(frozen=True)
class KdHistConfig(EstimatorConfig):
    """Config for :class:`~repro.core.kdhist.KdHist`."""

    estimator: ClassVar[str] = "kdhist"

    tau: float = 0.01
    max_leaves: int | None = None
    max_depth: int = 60
    objective: str = "l2"
    solver: str = "penalty"
    domain: Box | None = None


@dataclass(frozen=True)
class PtsHistConfig(EstimatorConfig):
    """Config for :class:`~repro.core.ptshist.PtsHist` (Section 3.3)."""

    estimator: ClassVar[str] = "ptshist"

    size: int = 400
    interior_fraction: float = 0.9
    seed: int = 0
    objective: str = "l2"
    solver: str = "penalty"
    domain: Box | None = None


@dataclass(frozen=True)
class GaussianMixtureConfig(EstimatorConfig):
    """Config for :class:`~repro.core.gmm.GaussianMixtureHist`."""

    estimator: ClassVar[str] = "gmm"

    components: int = 200
    bandwidths: tuple[float, ...] = (0.02, 0.05, 0.12)
    interior_fraction: float = 0.9
    seed: int = 0
    objective: str = "l2"
    solver: str = "penalty"
    domain: Box | None = None


@dataclass(frozen=True)
class ArrangementERMConfig(EstimatorConfig):
    """Config for :class:`~repro.core.arrangement_erm.ArrangementERM`."""

    estimator: ClassVar[str] = "arrangement"

    mode: str = "discrete"
    seed: int = 0
    samples: int = 4096
    max_cells: int = 250_000
    solver: str = "pgd"
    domain: Box | None = None


@dataclass(frozen=True)
class IsomerConfig(EstimatorConfig):
    """Config for :class:`~repro.baselines.isomer.Isomer`."""

    estimator: ClassVar[str] = "isomer"

    max_buckets: int = 20_000
    slack: float = 1e-3
    domain: Box | None = None


@dataclass(frozen=True)
class QuickSelConfig(EstimatorConfig):
    """Config for :class:`~repro.baselines.quicksel.QuickSel`."""

    estimator: ClassVar[str] = "quicksel"

    constraint_weight: float = 1e4
    ridge: float = 1e-8
    domain: Box | None = None


@dataclass(frozen=True)
class STHolesConfig(EstimatorConfig):
    """Config for :class:`~repro.baselines.stholes.STHoles`."""

    estimator: ClassVar[str] = "stholes"

    max_buckets: int = 500
    domain: Box | None = None


@dataclass(frozen=True)
class UniformConfig(EstimatorConfig):
    """Config for :class:`~repro.baselines.trivial.UniformEstimator`."""

    estimator: ClassVar[str] = "uniform"

    domain: Box | None = None


@dataclass(frozen=True)
class MeanConfig(EstimatorConfig):
    """Config for :class:`~repro.baselines.trivial.MeanEstimator`."""

    estimator: ClassVar[str] = "mean"


#: Registry name → config class (what an artifact manifest's ``estimator``
#: field resolves to when rebuilding the constructor arguments).
CONFIG_TYPES: Dict[str, type[EstimatorConfig]] = {
    cfg.estimator: cfg
    for cfg in (
        QuadHistConfig,
        KdHistConfig,
        PtsHistConfig,
        GaussianMixtureConfig,
        ArrangementERMConfig,
        IsomerConfig,
        QuickSelConfig,
        STHolesConfig,
        UniformConfig,
        MeanConfig,
    )
}


def config_from_dict(estimator: str, data: dict) -> EstimatorConfig:
    """Rebuild the config for registry estimator ``estimator`` from JSON."""
    try:
        cfg_cls = CONFIG_TYPES[estimator]
    except KeyError:
        raise KeyError(
            f"no config class for estimator {estimator!r}; "
            f"known: {sorted(CONFIG_TYPES)}"
        ) from None
    return cfg_cls.from_dict(data)
