"""Workload (de)serialization.

Real deployments collect query feedback in one process and train in
another, so labeled workloads need a stable on-disk format.  Ranges are
encoded as tagged JSON objects; a workload file is::

    {"version": 1,
     "queries": [{"type": "box", "lows": [...], "highs": [...]}, ...],
     "selectivities": [...]}

Only the closed-form range types round-trip (boxes, halfspaces, balls,
disc-intersection queries); semi-algebraic ranges hold arbitrary callables
and are rejected with a clear error.
"""

from __future__ import annotations

import json
import pathlib
from typing import Sequence

import numpy as np

from repro.geometry.ranges import Ball, Box, DiscIntersectionRange, Halfspace, Range

__all__ = ["range_to_dict", "range_from_dict", "save_workload", "load_workload"]

_FORMAT_VERSION = 1


def range_to_dict(range_: Range) -> dict:
    """Encode a range as a tagged, JSON-serialisable dict."""
    if isinstance(range_, Box):
        return {
            "type": "box",
            "lows": range_.lows.tolist(),
            "highs": range_.highs.tolist(),
        }
    if isinstance(range_, Halfspace):
        return {
            "type": "halfspace",
            "normal": range_.normal.tolist(),
            "offset": range_.offset,
        }
    if isinstance(range_, Ball):
        return {
            "type": "ball",
            "center": range_.ball_center.tolist(),
            "radius": range_.radius,
        }
    if isinstance(range_, DiscIntersectionRange):
        return {
            "type": "disc-intersection",
            "center": range_.query_center.tolist(),
            "radius": range_.query_radius,
            "max_data_radius": range_.max_data_radius,
        }
    raise TypeError(
        f"{type(range_).__name__} is not serialisable (only closed-form range types are)"
    )


def range_from_dict(data: dict) -> Range:
    """Decode a range from its tagged dict encoding."""
    if not isinstance(data, dict):
        raise TypeError(f"a range encoding must be a JSON object, got {type(data).__name__}")
    kind = data.get("type")
    if kind == "box":
        return Box(data["lows"], data["highs"])
    if kind == "halfspace":
        return Halfspace(data["normal"], data["offset"])
    if kind == "ball":
        return Ball(data["center"], data["radius"])
    if kind == "disc-intersection":
        return DiscIntersectionRange(
            data["center"], data["radius"], data.get("max_data_radius", 1.0)
        )
    raise ValueError(f"unknown range type {kind!r}")


def save_workload(
    path: str | pathlib.Path,
    queries: Sequence[Range],
    selectivities: Sequence[float],
) -> None:
    """Write a labeled workload to a JSON file."""
    labels = np.asarray(selectivities, dtype=float)
    if labels.shape != (len(queries),):
        raise ValueError(
            f"{len(queries)} queries but selectivities of shape {labels.shape}"
        )
    payload = {
        "version": _FORMAT_VERSION,
        "queries": [range_to_dict(q) for q in queries],
        "selectivities": labels.tolist(),
    }
    pathlib.Path(path).write_text(json.dumps(payload))


def load_workload(path: str | pathlib.Path) -> tuple[list[Range], np.ndarray]:
    """Read a labeled workload written by :func:`save_workload`."""
    payload = json.loads(pathlib.Path(path).read_text())
    version = payload.get("version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported workload format version {version!r}")
    queries = [range_from_dict(d) for d in payload["queries"]]
    selectivities = np.asarray(payload["selectivities"], dtype=float)
    if selectivities.shape != (len(queries),):
        raise ValueError("corrupt workload file: length mismatch")
    return queries, selectivities
