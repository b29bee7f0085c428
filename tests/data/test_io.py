"""Workload serialization round-trips."""

import json

import numpy as np
import pytest

from repro.data import load_workload, range_from_dict, range_to_dict, save_workload
from repro.geometry import Ball, Box, DiscIntersectionRange, Halfspace
from repro.geometry.ranges import SemiAlgebraicRange


class TestRangeDicts:
    @pytest.mark.parametrize(
        "range_",
        [
            Box([0.1, 0.2], [0.5, 0.9]),
            Halfspace([0.6, -0.8], 0.25),
            Ball([0.3, 0.7], 0.15),
            DiscIntersectionRange([0.4, 0.4], 0.2, max_data_radius=0.5),
        ],
        ids=["box", "halfspace", "ball", "disc-intersection"],
    )
    def test_roundtrip_preserves_membership(self, range_, rng):
        restored = range_from_dict(range_to_dict(range_))
        points = rng.random((300, range_.dim))
        np.testing.assert_array_equal(
            np.asarray(range_.contains(points)), np.asarray(restored.contains(points))
        )

    def test_dicts_are_json_serialisable(self):
        encoded = json.dumps(range_to_dict(Box([0.0], [1.0])))
        assert "box" in encoded

    def test_semialgebraic_rejected(self):
        r = SemiAlgebraicRange(dim=1, predicates=[lambda p: p[:, 0] - 0.5])
        with pytest.raises(TypeError):
            range_to_dict(r)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            range_from_dict({"type": "triangle"})

    @pytest.mark.parametrize("encoded", ["box", [0.1, 0.2], 1, None])
    def test_non_object_rejected_naming_its_type(self, encoded):
        with pytest.raises(TypeError, match=f"got {type(encoded).__name__}"):
            range_from_dict(encoded)


class TestWorkloadFiles:
    def test_roundtrip(self, tmp_path, rng):
        queries = [
            Box([0.1, 0.1], [0.4, 0.6]),
            Ball([0.5, 0.5], 0.2),
            Halfspace([1.0, 0.0], 0.3),
        ]
        labels = np.array([0.25, 0.1, 0.7])
        path = tmp_path / "workload.json"
        save_workload(path, queries, labels)
        loaded_queries, loaded_labels = load_workload(path)
        np.testing.assert_allclose(loaded_labels, labels)
        points = rng.random((200, 2))
        for original, restored in zip(queries, loaded_queries):
            np.testing.assert_array_equal(
                np.asarray(original.contains(points)),
                np.asarray(restored.contains(points)),
            )

    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_workload(tmp_path / "w.json", [Box([0.0], [1.0])], [0.5, 0.6])

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"version": 99, "queries": [], "selectivities": []}))
        with pytest.raises(ValueError):
            load_workload(path)

    def test_trained_model_from_loaded_workload(self, tmp_path, power2d_box_workload):
        """The round-tripped workload trains to identical predictions."""
        from repro.core import QuadHist

        train_q, train_s, test_q, _ = power2d_box_workload
        path = tmp_path / "power.json"
        save_workload(path, train_q, train_s)
        loaded_q, loaded_s = load_workload(path)
        direct = QuadHist(tau=0.02).fit(train_q, train_s).predict_many(test_q)
        via_file = QuadHist(tau=0.02).fit(loaded_q, loaded_s).predict_many(test_q)
        np.testing.assert_allclose(direct, via_file, atol=1e-12)
