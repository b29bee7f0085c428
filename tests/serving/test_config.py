"""ServingConfig: validation, round-tripping."""

from __future__ import annotations

import pytest

from repro.serving import ServingConfig


def test_defaults_are_valid():
    config = ServingConfig()
    assert config.workers == 2
    assert config.max_concurrency == 8
    assert config.to_dict()["queue_depth"] == 32
    assert "max_batch" not in config.to_dict()


def test_rejects_bad_values():
    with pytest.raises(ValueError, match="workers"):
        ServingConfig(workers=0)
    with pytest.raises(ValueError, match="queue_depth"):
        ServingConfig(queue_depth=-1)
    with pytest.raises(ValueError, match="deadline_ms"):
        ServingConfig(deadline_ms=0.0)
    with pytest.raises(ValueError, match="heartbeat_timeout_s"):
        ServingConfig(heartbeat_interval_s=1.0, heartbeat_timeout_s=0.5)
    with pytest.raises(ValueError, match="restart_storm_threshold"):
        ServingConfig(restart_storm_threshold=0)


def test_unlimited_deadline_allowed():
    assert ServingConfig(deadline_ms=None).deadline_ms is None


def test_frozen():
    config = ServingConfig()
    with pytest.raises(AttributeError):
        config.workers = 4
