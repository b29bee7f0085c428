"""Timing shims for the traced run, installed from outside the program.

The traced run wraps the public entry points of each layer — the module
attributes callers look up at call time, and the public methods — in
:func:`repro.observability.tracing.span`, so shim spans nest with the
program's own spans (``fit/*``, ``service/update``) on one stack.  A span
observer records every completed span with its parent and request id.
Per-query calls (``range_from_dict``) are too frequent for a span each;
they are timed as leaves and summed per request.

The benchmark installs the shims before it boots the pool, so the forked
worker inherits them; the worker's service factory then calls
:meth:`Tracer.start_worker`, which drops the records inherited from the
parent and flushes its own to ``spans-<pid>.jsonl`` every 250 ms.
"""

from __future__ import annotations

import collections
import importlib
import itertools
import json
import os
import threading
import time

from repro.observability.logs import current_request_id
from repro.observability.tracing import (
    add_span_observer,
    current_span,
    remove_span_observer,
    span,
)

FLUSH_SECONDS = 0.25
_SID = "_bench_sid"


def _len_arg(position: int):
    return lambda args: len(args[position])


def _rows_arg(position: int):
    return lambda args: int(args[position].shape[0])


#: (module, attribute, span name, size of the call or None).
SPANS = (
    ("repro.server", "EstimatorService.estimate_many", "service.estimate_many", _len_arg(1)),
    ("repro.server", "EstimatorService.update", "service.update", None),
    ("repro.server", "EstimatorService.retrain", "service.retrain", None),
    ("repro.core.estimator", "SelectivityEstimator.predict_many", "core.predict_many", _len_arg(1)),
    ("repro.core.incremental", "IncrementalTreeHistogram.partial_fit", "core.partial_fit", None),
    ("repro.core.quadhist", "sparse_coverage_dot", "geometry.sparse", _len_arg(0)),
    ("repro.core.quadhist", "coverage_dot", "geometry.dense", _len_arg(0)),
    ("repro.geometry.sparse", "coverage_dot", "geometry.dense", _len_arg(0)),
    ("repro.geometry.index", "BucketIndex.halfspace_candidates", "geometry.index", _rows_arg(1)),
    ("repro.geometry.index", "UniformGridIndex.candidates_for_boxes", "geometry.index", _rows_arg(1)),
    ("repro.geometry.index", "PackedRTreeIndex.candidates_for_boxes", "geometry.index", _rows_arg(1)),
    ("repro.persistence.snapshots", "save_model", "persistence.save", None),
    ("repro.persistence.snapshots", "load_model", "persistence.load", None),
    ("repro.persistence", "load_model", "persistence.load", None),
)

#: (module, attribute, leaf name): per-query calls timed without a span.
LEAVES = (("repro.server", "range_from_dict", "server.decode"),)


def _resolve(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Shim installer plus the in-memory span buffer of one process."""

    def __init__(self):
        self.spans: collections.deque = collections.deque()
        self.leaves: collections.deque = collections.deque()
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _sid(self, record) -> int:
        # A parent's id is assigned when its first child completes, so
        # children can point at a span that is still open.
        sid = record.attrs.get(_SID)
        if sid is None:
            sid = record.attrs[_SID] = next(self._ids)
        return sid

    def _observe(self, record) -> None:
        parent = current_span()  # the span() exit already popped ``record``
        self.spans.append(
            {
                "pid": self._pid,
                "sid": self._sid(record),
                "parent": self._sid(parent) if parent is not None else None,
                "name": record.name,
                "start": record.start,
                "end": record.start + record.duration,
                "rid": current_request_id(),
                "n": record.attrs.get("n"),
                "fallback": record.attrs.get("fallback"),
            }
        )

    def _wrap_span(self, fn, name: str, size):
        def shim(*args, **kwargs):
            attrs = {}
            if size is not None:
                try:
                    attrs["n"] = size(args)
                except (TypeError, AttributeError, IndexError):
                    pass
            with span(name, **attrs):
                return fn(*args, **kwargs)

        return shim

    def _wrap_leaf(self, fn, name: str):
        leaves = self.leaves

        def shim(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                leaves.append((name, current_request_id(), start, time.perf_counter()))

        return shim

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        for module_name, attribute, name, size in SPANS:
            self._patch(
                module_name, attribute, lambda fn, n=name, s=size: self._wrap_span(fn, n, s)
            )
        for module_name, attribute, name in LEAVES:
            self._patch(module_name, attribute, lambda fn, n=name: self._wrap_leaf(fn, n))
        add_span_observer(self._observe)

    def _patch(self, module_name: str, attribute: str, make) -> None:
        owner, name = _resolve(module_name, attribute)
        original = owner.__dict__[name]
        self._patched.append((owner, name, original))
        setattr(owner, name, make(original))

    def uninstall(self) -> None:
        remove_span_observer(self._observe)
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- worker side ---------------------------------------------------------

    def start_worker(self, trace_dir: str) -> None:
        """In a forked worker: forget the parent's records, flush our own."""
        self._pid = os.getpid()
        self.spans.clear()
        self.leaves.clear()
        path = os.path.join(trace_dir, f"spans-{self._pid}.jsonl")
        threading.Thread(
            target=self._flush_loop, args=(path,), name="bench-span-flush", daemon=True
        ).start()

    def _flush_loop(self, path: str) -> None:
        while True:  # a daemon thread: ends with the worker
            time.sleep(FLUSH_SECONDS)
            records = self.drain()
            if records:
                with open(path, "a", encoding="utf-8") as handle:
                    handle.writelines(json.dumps(r) + "\n" for r in records)

    def drain(self) -> list[dict]:
        """Remove and return the buffered records; leaves summed per request."""
        records = []
        while True:
            try:
                records.append(self.spans.popleft())
            except IndexError:
                break
        summed: dict[tuple, dict] = {}
        while True:
            try:
                name, rid, start, end = self.leaves.popleft()
            except IndexError:
                break
            entry = summed.setdefault(
                (name, rid),
                {"pid": self._pid, "leaf": name, "rid": rid, "count": 0,
                 "seconds": 0.0, "start": start, "end": end},
            )
            entry["count"] += 1
            entry["seconds"] += end - start
            entry["start"] = min(entry["start"], start)
            entry["end"] = max(entry["end"], end)
        records.extend(summed.values())
        return records


def load_records(trace_dir: str) -> list[dict]:
    """Every record the workers flushed into ``trace_dir``."""
    records = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(trace_dir, name), encoding="utf-8") as handle:
                records.extend(json.loads(line) for line in handle if line.strip())
    return records
