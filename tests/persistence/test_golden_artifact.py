"""Backwards-compatibility gate: the committed golden artifact must load.

The artifact under ``data/`` was written by an earlier revision of the
codebase (regenerate with ``make_golden.py`` *only* on an intentional
FORMAT_VERSION bump).  If a refactor of the estimators, configs, or the
artifact format breaks loading — or changes a single bit of the
predictions — this test fails before any user's saved model does.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.geometry.ranges import Box
from repro.persistence import FORMAT_VERSION, load_manifest, load_model

DATA_DIR = Path(__file__).parent / "data"
STEM = f"golden-quadhist-v{FORMAT_VERSION}"


@pytest.fixture(scope="module")
def golden():
    artifact = DATA_DIR / f"{STEM}.rma"
    sidecar = DATA_DIR / f"{STEM}.json"
    if not artifact.exists():
        pytest.fail(
            f"golden artifact {artifact} missing; regenerate with "
            "tests/persistence/make_golden.py after a FORMAT_VERSION bump"
        )
    return artifact, json.loads(sidecar.read_text())


def test_golden_manifest_loads(golden):
    artifact, sidecar = golden
    manifest = load_manifest(artifact)
    assert manifest["format_version"] == sidecar["format_version"] == FORMAT_VERSION
    assert manifest["estimator"] == "quadhist"
    assert manifest["fit"]["n_train"] == 80


def test_golden_predictions_bitwise(golden):
    artifact, sidecar = golden
    estimator = load_model(artifact)
    queries = [
        Box(item["lows"], item["highs"]) for item in sidecar["test_queries"]
    ]
    predictions = [float(v) for v in estimator.predict_many(queries)]
    assert predictions == sidecar["predictions"]


def test_fresh_fit_reproduces_golden_state(golden):
    """A fresh fit of the golden workload under the golden config rebuilds
    the artifact's leaf arrays and weights bit for bit.

    The ``max_leaves=128`` cap binds on this fit (127 leaves, against 157
    uncapped), so this pins which splits a capped partition keeps and in
    which column order.
    """
    from repro.core.config import QuadHistConfig
    from repro.core.quadhist import QuadHist

    from tests.persistence.make_golden import golden_workload

    artifact, _ = golden
    queries, labels, _ = golden_workload()
    config = QuadHistConfig(tau=0.01, max_leaves=128, domain=Box([0.0, 0.0], [1.0, 1.0]))
    fresh = QuadHist.from_config(config).fit(queries, labels)
    uncapped = QuadHist(tau=0.01, domain=Box([0.0, 0.0], [1.0, 1.0])).fit(queries, labels)
    assert fresh.model_size == 127 < uncapped.model_size == 157

    stored = load_model(artifact)
    for name in ("_lows", "_highs", "_volumes", "_weights"):
        expected, actual = getattr(stored, name), getattr(fresh, name)
        assert actual.dtype == expected.dtype and actual.shape == expected.shape, name
        assert actual.tobytes() == expected.tobytes(), name
