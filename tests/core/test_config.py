"""Typed estimator configs: round-tripping and registry factories."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import (
    ArrangementERMConfig,
    GaussianMixtureConfig,
    PtsHistConfig,
    QuadHist,
    QuadHistConfig,
    available_estimators,
    default_config,
    estimator_class,
    make_estimator,
)
from repro.core.config import CONFIG_TYPES, config_from_dict
from repro.geometry.ranges import Box


def test_available_estimators_lists_registry():
    names = available_estimators()
    assert names == sorted(names)
    for expected in ("quadhist", "kdhist", "ptshist", "gmm", "arrangement",
                     "isomer", "quicksel", "stholes", "uniform", "mean"):
        assert expected in names


@pytest.mark.parametrize("name", sorted(CONFIG_TYPES))
def test_config_dict_roundtrip(name):
    config = default_config(name, train_size=120)
    rebuilt = config_from_dict(name, config.to_dict())
    assert rebuilt == config


def test_config_roundtrip_with_domain():
    domain = Box([0.0, 0.0], [1.0, 2.0])
    config = QuadHistConfig(tau=0.02, domain=domain)
    data = config.to_dict()
    assert data["domain"] == {"lows": [0.0, 0.0], "highs": [1.0, 2.0]}
    rebuilt = config_from_dict("quadhist", data)
    assert rebuilt.domain.lows.tolist() == [0.0, 0.0]
    assert rebuilt.tau == 0.02


def test_config_rejects_unknown_keys():
    with pytest.raises((TypeError, ValueError)):
        config_from_dict("quadhist", {"tau": 0.1, "bogus": 1})


def test_config_from_dict_unknown_estimator():
    with pytest.raises(KeyError, match="quadhist"):
        config_from_dict("no-such", {})


def test_estimator_config_property_roundtrips():
    """from_config(est.config) rebuilds an equivalent estimator."""
    config = PtsHistConfig(size=64, interior_fraction=0.5, seed=3)
    estimator = estimator_class("ptshist").from_config(config)
    assert estimator.config == config
    clone = type(estimator).from_config(estimator.config)
    assert clone.config == config


def test_bandwidths_restore_as_tuple():
    config = GaussianMixtureConfig(bandwidths=(0.1, 0.2))
    rebuilt = config_from_dict("gmm", config.to_dict())
    assert rebuilt.bandwidths == (0.1, 0.2)
    assert isinstance(rebuilt.bandwidths, tuple)


def test_make_estimator_unknown_name_lists_choices():
    with pytest.raises(KeyError) as excinfo:
        make_estimator("nope")
    assert "quadhist" in str(excinfo.value)


def test_make_estimator_overrides():
    estimator = make_estimator("quadhist", train_size=100, tau=0.5)
    assert estimator.tau == 0.5
    with pytest.raises(TypeError):
        make_estimator("quadhist", bogus_knob=1)


def test_make_estimator_explicit_config():
    config = ArrangementERMConfig(mode="histogram", samples=256)
    estimator = make_estimator("arrangement", config=config)
    assert estimator.mode == "histogram"


def test_default_config_scales_with_train_size():
    small = default_config("quadhist", train_size=50)
    large = default_config("quadhist", train_size=500)
    assert large.max_leaves > small.max_leaves


def test_from_config_does_not_warn(recwarn):
    QuadHist.from_config(QuadHistConfig(tau=0.02))
    QuadHist(tau=0.02)
    assert not [w for w in recwarn.list if w.category is DeprecationWarning]


def test_from_config_type_checked():
    with pytest.raises(TypeError, match="QuadHistConfig"):
        QuadHist.from_config(PtsHistConfig())


def test_config_fields_are_frozen():
    config = QuadHistConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.tau = 0.5
