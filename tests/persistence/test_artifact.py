"""Artifact save/load: registry-wide bitwise round-trips + strict rejection."""

from __future__ import annotations

import io
import json
import zipfile

import numpy as np
import pytest

from repro.core.config import ArrangementERMConfig
from repro.core.registry import available_estimators, estimator_class, make_estimator
from repro.persistence import (
    ARTIFACT_SUFFIX,
    FORMAT_VERSION,
    load_manifest,
    load_model,
    save_model,
    training_fingerprint,
)
from repro.robustness.errors import ArtifactError, PersistenceError

REGISTRY_NAMES = sorted(available_estimators())


def _fit(name, workload):
    train_q, train_s, _, _ = workload
    estimator = make_estimator(name, train_size=len(train_q))
    estimator.fit(train_q, train_s)
    return estimator


@pytest.fixture(scope="module")
def workload(request):
    return request.getfixturevalue("power2d_box_workload")


# -- round trips ---------------------------------------------------------


def _assert_distribution_bitwise(estimator, restored):
    """The restored ``distribution`` has bit-identical arrays: ``lows``,
    ``highs``, ``volumes`` or ``points``, and ``weights``."""
    saved_state = estimator.distribution.to_state()
    restored_state = restored.distribution.to_state()
    assert saved_state.keys() == restored_state.keys()
    for key, value in saved_state.items():
        assert value.dtype == restored_state[key].dtype, key
        assert value.shape == restored_state[key].shape, key
        assert value.tobytes() == restored_state[key].tobytes(), key


@pytest.mark.parametrize("name", REGISTRY_NAMES)
def test_roundtrip_bitwise(name, workload, tmp_path):
    """Every registry estimator survives save→load with bitwise-equal
    predictions — the acceptance bar for the artifact format."""
    train_q, train_s, test_q, _ = workload
    estimator = _fit(name, workload)
    path = tmp_path / f"{name}{ARTIFACT_SUFFIX}"
    save_model(estimator, path, training=(train_q, train_s))

    restored = load_model(path)
    assert type(restored) is type(estimator)
    before = estimator.predict_many(test_q)
    after = restored.predict_many(test_q)
    np.testing.assert_array_equal(before, after)
    assert restored.model_size == estimator.model_size
    if hasattr(type(estimator), "distribution"):
        _assert_distribution_bitwise(estimator, restored)


@pytest.mark.parametrize(
    "name, overrides",
    [
        ("quadhist", {}),
        ("kdhist", {}),
        ("isomer", {}),
        ("arrangement", {"mode": "histogram", "max_cells": 20_000}),
    ],
    ids=["quadhist", "kdhist", "isomer", "arrangement-histogram"],
)
def test_histogram_payload_stores_buckets_once(name, overrides, workload, tmp_path):
    """The histogram learners persist their bucket arrays and weights
    once, with no nested ``distribution.`` copy of them."""
    train_q, train_s, _, _ = workload
    estimator = make_estimator(name, train_size=60, **overrides)
    estimator.fit(train_q[:60], train_s[:60])
    path = tmp_path / "hist.rma"
    save_model(estimator, path)
    with zipfile.ZipFile(path) as archive:
        payload = archive.read("payload.npz")
        manifest = json.loads(archive.read("manifest.json"))
    with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
        members = list(npz.files)
    assert "weights" in members
    assert not [key for key in members if key.startswith("distribution.")]
    assert not [key for key in manifest.get("state", {}) if key.startswith("distribution.")]


def test_roundtrip_arrangement_histogram_mode(workload, tmp_path):
    """The non-default histogram mode persists its cell geometry too."""
    train_q, train_s, test_q, _ = workload
    cls = estimator_class("arrangement")
    estimator = cls.from_config(
        ArrangementERMConfig(mode="histogram", samples=512, max_cells=20_000)
    )
    estimator.fit(train_q, train_s)
    path = tmp_path / "arr-hist.rma"
    save_model(estimator, path)
    restored = load_model(path)
    np.testing.assert_array_equal(
        estimator.predict_many(test_q), restored.predict_many(test_q)
    )
    assert restored.mode == "histogram"
    _assert_distribution_bitwise(estimator, restored)


def test_roundtrip_twice_is_identical(workload, tmp_path):
    """save(load(save(x))) produces the same payload checksum."""
    estimator = _fit("quadhist", workload)
    first = tmp_path / "a.rma"
    second = tmp_path / "b.rma"
    save_model(estimator, first)
    save_model(load_model(first), second)
    assert (
        load_manifest(first)["payload_sha256"]
        == load_manifest(second)["payload_sha256"]
    )


# -- manifest contents ---------------------------------------------------


def test_manifest_records_provenance(workload, tmp_path):
    train_q, train_s, _, _ = workload
    estimator = _fit("ptshist", workload)
    path = tmp_path / "m.rma"
    save_model(
        estimator, path, training=(train_q, train_s), metadata={"note": "x"}
    )
    manifest = load_manifest(path)
    assert manifest["format_version"] == FORMAT_VERSION
    assert manifest["estimator"] == "ptshist"
    assert manifest["config"]["size"] == estimator.size
    assert manifest["model_size"] == estimator.model_size
    fit = manifest["fit"]
    assert fit["n_train"] == len(train_q)
    assert fit["training_fingerprint"] == training_fingerprint(train_q, train_s)
    assert fit["note"] == "x"
    assert fit["saved_at"] > 0


def test_training_fingerprint_is_stable_and_sensitive(workload):
    train_q, train_s, _, _ = workload
    base = training_fingerprint(train_q, train_s)
    assert base == training_fingerprint(train_q, list(train_s))
    perturbed = np.array(train_s, dtype=float)
    perturbed[0] += 1e-9
    assert base != training_fingerprint(train_q, perturbed)
    assert base != training_fingerprint(train_q[:-1], train_s[:-1])


# -- save-side rejection -------------------------------------------------


def test_save_unfitted_rejected(tmp_path):
    estimator = make_estimator("quadhist")
    with pytest.raises(PersistenceError, match="unfitted"):
        save_model(estimator, tmp_path / "x.rma")


def test_failed_save_leaves_no_partial_file(workload, tmp_path, monkeypatch):
    """A crash mid-write must not leave a half-written artifact behind."""
    estimator = _fit("mean", workload)
    target = tmp_path / "crash.rma"

    def boom(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", boom)
    with pytest.raises(OSError):
        save_model(estimator, target)
    assert list(tmp_path.iterdir()) == []


# -- load-side rejection -------------------------------------------------


@pytest.fixture
def saved(workload, tmp_path):
    estimator = _fit("quadhist", workload)
    path = tmp_path / "good.rma"
    save_model(estimator, path)
    return path


def test_load_missing_file(tmp_path):
    with pytest.raises(PersistenceError, match="not found"):
        load_model(tmp_path / "nope.rma")


def test_load_not_a_zip(tmp_path):
    path = tmp_path / "garbage.rma"
    path.write_bytes(b"this is not a zip archive")
    with pytest.raises(ArtifactError, match="not a valid archive"):
        load_model(path)


def test_load_truncated(saved):
    data = saved.read_bytes()
    saved.write_bytes(data[: len(data) // 2])
    with pytest.raises(ArtifactError):
        load_model(saved)


def test_load_corrupted_payload(saved):
    """Flipping payload bytes trips the checksum, not a numpy error."""
    data = bytearray(saved.read_bytes())
    # Flip bytes in the middle of the archive (inside the stored npz).
    mid = len(data) // 2
    for i in range(mid, mid + 8):
        data[i] ^= 0xFF
    saved.write_bytes(bytes(data))
    with pytest.raises(ArtifactError):
        load_model(saved)


def _rewrite_manifest(path, mutate):
    with zipfile.ZipFile(path, "r") as archive:
        manifest = json.loads(archive.read("manifest.json"))
        payload = archive.read("payload.npz")
    mutate(manifest)
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("manifest.json", json.dumps(manifest))
        archive.writestr("payload.npz", payload)


def test_load_version_skew(saved):
    _rewrite_manifest(
        saved, lambda m: m.__setitem__("format_version", FORMAT_VERSION + 1)
    )
    with pytest.raises(ArtifactError, match="format version"):
        load_model(saved)
    with pytest.raises(ArtifactError, match="format version"):
        load_manifest(saved)


def test_load_checksum_mismatch(saved):
    _rewrite_manifest(saved, lambda m: m.__setitem__("payload_sha256", "0" * 64))
    with pytest.raises(ArtifactError, match="checksum"):
        load_model(saved)


def test_load_unknown_estimator(saved):
    def mutate(manifest):
        manifest["payload_sha256"] = manifest["payload_sha256"]
        manifest["estimator"] = "no-such-estimator"

    _rewrite_manifest(saved, mutate)
    with pytest.raises(ArtifactError, match="no-such-estimator"):
        load_model(saved)


def test_load_missing_member(saved, tmp_path):
    stripped = tmp_path / "stripped.rma"
    with zipfile.ZipFile(saved, "r") as archive:
        manifest = archive.read("manifest.json")
    with zipfile.ZipFile(stripped, "w") as archive:
        archive.writestr("manifest.json", manifest)
    with pytest.raises(ArtifactError, match="missing member"):
        load_model(stripped)


def test_load_state_mismatch(saved):
    """A manifest naming the wrong estimator class for its payload is
    rejected by the state-restore step, not silently mis-restored."""

    def mutate(manifest):
        manifest["estimator"] = "mean"
        manifest["config"] = {}

    _rewrite_manifest(saved, mutate)
    with pytest.raises(ArtifactError, match="does not match"):
        load_model(saved)
