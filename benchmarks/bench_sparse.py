"""Sub-linear predict: sparse coverage dots vs. the dense PR-2 path.

The spatial bucket index (:mod:`repro.geometry.index`) plus the sparse
prediction dots (:mod:`repro.geometry.sparse`) replace the dense
``O(n x m)`` prediction contraction with work proportional to the number
of (query, bucket) pairs that actually overlap.  Design matrices are
always built dense, so only predictions are timed.  This bench sweeps the
two axes that decide the win:

* **leaf count** ``m`` — a QuadHist refined to 1k/4k/16k leaves on a
  Power-like 2-D marginal (index build time is recorded; it is paid once
  at fit time and amortised over every predict call),
* **query extent** — small ranges touch few buckets (sparse wins big),
  wide ranges make the index visit many cells, where the cost rule must
  send the rows to the dense kernel instead of losing.

For each cell we time ``predict_many`` with the index attached (the cost
rule picks each row's path) vs. stripped (``est._index = None`` runs the
dense path only), the two sides alternating so that host load hits both
alike (the median of the alternations, and the range), and record the
index's lookup-work estimate per query, the share of rows the rule sent
sparse (read from ``repro_sparse_calls_total``), and the max absolute
prediction difference (acceptance: ``<= 1e-12``).  A second section
checks data-centred ball and halfspace queries the same way at every leaf
count, with every routed row forced through the sparse pair kernels:
every ball row must go sparse and match, and no halfspace row may go
sparse, forced or not.  The script exits non-zero when any acceptance
fails.

A last section measures the per-unit costs the rule's constants in
:mod:`repro.geometry.sparse` come from: dense kernel ns per entry per
family and, with every row forced sparse, the fixed ns of a call, the
lookup's ns per estimated visit or entry, and the remaining ns per
estimated entry (see :func:`_calibrate`).

Results land in ``benchmarks/results/BENCH_sparse.json``::

    PYTHONPATH=src python benchmarks/bench_sparse.py          # full
    PYTHONPATH=src python benchmarks/bench_sparse.py --smoke  # CI-sized
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.core.quadhist import QuadHist
from repro.data.selectivity import label_queries
from repro.data.synthetic import power_like
from repro.data.workloads import WorkloadSpec, generate_workload
from repro.geometry import sparse
from repro.geometry.batch import containment_matrix, coverage_dot
from repro.geometry.index import UniformGridIndex, build_bucket_index
from repro.geometry.ranges import Ball, Box
from repro.observability import default_registry

RESULTS_DIR = Path(__file__).resolve().parent / "results"

FULL = {
    "mode": "full",
    "rows": 25_000,
    "train_queries": 800,
    "leaf_counts": [1024, 4096, 16384],
    "extents": [0.01, 0.05, 0.2],
    "eval_queries": 2_000,
    "family_queries": 200,
    "alternations": 7,
    "calibration_buckets": 4096,
}
SMOKE = {
    "mode": "smoke",
    "rows": 4_000,
    "train_queries": 150,
    "leaf_counts": [256, 1024],
    "extents": [0.05, 0.2],
    "eval_queries": 300,
    "family_queries": 60,
    "alternations": 5,
    "calibration_buckets": 1024,
}


def _best_of(repeats: int, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _fixed_extent_queries(rng, n: int, extent: float) -> list[Box]:
    """``n`` square boxes of side ``extent`` with uniform centers."""
    lows = rng.uniform(0.0, 1.0 - extent, size=(n, 2))
    return [Box(low, low + extent) for low in lows]


def _alternating(repeats: int, first, second) -> tuple[list, list, object, object]:
    """Time ``first`` and ``second`` in turn, ``repeats`` times each."""
    times = ([], [])
    results = [None, None]
    for _ in range(repeats):
        for k, fn in enumerate((first, second)):
            start = time.perf_counter()
            results[k] = fn()
            times[k].append(time.perf_counter() - start)
    return times[0], times[1], results[0], results[1]


def _dataset(config: dict):
    return power_like(rows=config["rows"], seed=7).project([0, 3])


def _fit_quadhist(config: dict, max_leaves: int) -> QuadHist:
    rng = np.random.default_rng(20220612)
    data = _dataset(config)
    spec = WorkloadSpec(query_kind="box", center_kind="data")
    train = generate_workload(
        config["train_queries"], data.dim, rng, spec=spec, dataset=data
    )
    labels = label_queries(data, train)
    est = QuadHist(tau=1e-9, max_leaves=max_leaves)
    est.fit(train, labels)
    return est


def _lookup_work(index, queries: list[Box]) -> tuple[float, float]:
    """Mean cells visited and bucket entries gathered per query."""
    lows = np.stack([q.lows for q in queries])
    highs = np.stack([q.highs for q in queries])
    visits, entries = index.lookup_estimate(lows, highs)
    return float(np.mean(visits)), float(np.mean(entries))


def _box_rows(path: str) -> float:
    calls = default_registry().get("repro_sparse_calls_total")
    return calls.value(kernel="box", path=path)


class _ForcedSparse:
    """Send every row to the sparse path (the rule's cost comparison off)."""

    def __enter__(self):
        self._rule = sparse._sparse_rows
        sparse._sparse_rows = lambda n, dense_ns, sparse_ns: np.ones(n, dtype=bool)

    def __exit__(self, *exc):
        sparse._sparse_rows = self._rule


def _family_checks(config: dict, est: QuadHist, rng) -> list[dict]:
    """Data-centred balls and halfspaces through both paths of one model.

    The share of rows the cost rule sends sparse is recorded, then every
    routed row is forced sparse: ball predictions must then all run
    sparse and match the dense path's within :data:`PREDICT_TOL`, and
    halfspace rows must stay dense.
    """
    data = _dataset(config)
    index = est._index
    calls = default_registry().get("repro_sparse_calls_total")
    points = []
    for family in ("ball", "halfspace"):
        spec = WorkloadSpec(query_kind=family, center_kind="data")
        queries = generate_workload(
            config["family_queries"], data.dim, rng, spec=spec, dataset=data
        )

        def routed():
            before = [calls.value(kernel=family, path=path) for path in ("sparse", "dense")]
            predictions = est.predict_many(queries)
            went = calls.value(kernel=family, path="sparse") - before[0]
            stayed = calls.value(kernel=family, path="dense") - before[1]
            return predictions, went / (went + stayed)

        _, share = routed()
        with _ForcedSparse():
            p_sparse, forced_share = routed()
        est._index = None
        p_dense = est.predict_many(queries)
        est._index = index
        point = {
            "leaves": est.model_size,
            "family": family,
            "queries": len(queries),
            "sparse_share": round(share, 4),
            "forced_sparse_share": round(forced_share, 4),
            "max_abs_diff": float(np.max(np.abs(p_sparse - p_dense))),
        }
        points.append(point)
        print(
            f"  {family}: rule sparse_share={share:.2f}, forced {forced_share:.2f}; "
            f"forced vs dense maxdiff {point['max_abs_diff']:.1e}"
        )
    return points


def _calibrate(config: dict) -> dict:
    """Per-unit costs of the sparse/dense rule, in ns, on ~uniform buckets.

    Dense: kernel time per (query, bucket) entry.  Sparse, with every row
    forced sparse: the fixed cost of a one-query call; the lookup's cost
    per estimated visit or gathered entry; and the remaining time per
    estimated entry (pair kernel and scatter).
    """
    rng = np.random.default_rng(3)
    side = int(round(np.sqrt(config["calibration_buckets"])))
    edges = np.linspace(0.0, 1.0, side + 1)[:-1]
    xs, ys = np.meshgrid(edges, edges, indexing="ij")
    b_lows = np.column_stack([xs.ravel(), ys.ravel()])
    b_highs = b_lows + rng.uniform(0.5, 1.5, size=b_lows.shape) / side
    m = b_lows.shape[0]
    volumes = np.prod(b_highs - b_lows, axis=1)
    weights = np.full(m, 1.0 / m)
    index = UniformGridIndex(b_lows, b_highs)
    points = UniformGridIndex(b_lows, b_lows)
    centers = rng.uniform(0.1, 0.9, size=(400, 2))

    def boxes(ext):
        return [Box(c - ext / 2, c + ext / 2) for c in centers]

    def balls(ext):
        return [Ball(c, ext / 2) for c in centers]

    def timed(fn):
        return _best_of(3, fn)[0] * 1e9

    dense = {}
    for kind, make in (("box", boxes), ("ball", balls)):
        queries = make(0.1)
        t = timed(lambda: coverage_dot(queries, b_lows, b_highs, volumes, weights))
        dense[kind] = t / (len(queries) * m)
    queries = boxes(0.1)  # built before the timed call, as for the kernels above
    t = timed(lambda: containment_matrix(queries, b_lows) @ weights)
    dense["contains"] = t / (len(queries) * m)

    def bounds(queries):
        if isinstance(queries[0], Box):
            return np.stack([q.lows for q in queries]), np.stack([q.highs for q in queries])
        c = np.stack([q.ball_center for q in queries])
        r = np.array([q.radius for q in queries])[:, None]
        return c - r, c + r

    pair, visit = {}, []
    with _ForcedSparse():
        one = boxes(0.005)[:1]
        call = timed(lambda: sparse.sparse_coverage_dot(one, index, volumes, weights))
        for kind, make, idx, fn in (
            ("box", boxes, index, lambda q, i: sparse.sparse_coverage_dot(q, i, volumes, weights)),
            ("ball", balls, index, lambda q, i: sparse.sparse_coverage_dot(q, i, volumes, weights)),
            ("contains", boxes, points, lambda q, i: sparse.sparse_containment_dot(q, i, weights)),
        ):
            per_entry = []
            for ext in (0.02, 0.05, 0.1):
                queries = make(ext)
                lows, highs = bounds(queries)
                visits, entries = idx.lookup_estimate(lows, highs)
                t_lookup = timed(lambda: idx.candidates_for_boxes(lows, highs))
                t_call = timed(lambda: fn(queries, idx))
                visit.append(t_lookup / (visits.sum() + entries.sum()))
                per_entry.append((t_call - t_lookup - call) / entries.sum())
            pair[kind] = float(np.median(per_entry))

    def rounded(values: dict) -> dict:
        return {k: round(v, 2) for k, v in values.items()}

    return {
        "buckets": m,
        "constants_in_use": {
            "DENSE_NS": sparse.DENSE_NS,
            "PAIR_NS": sparse.PAIR_NS,
            "VISIT_NS": sparse.VISIT_NS,
            "CALL_NS": sparse.CALL_NS,
        },
        "dense_ns": rounded(dense),
        "pair_ns": rounded(pair),
        "visit_ns": round(float(np.median(visit)), 2),
        "call_ns": round(call, 1),
    }


def run(config: dict) -> dict:
    rng = np.random.default_rng(99)
    sweep = []
    families = []
    for max_leaves in config["leaf_counts"]:
        est = _fit_quadhist(config, max_leaves)
        m = est.model_size
        index = est._index
        t_build, _ = _best_of(
            2, lambda: build_bucket_index(index.b_lows, index.b_highs)
        )
        print(f"m={m} leaves (requested {max_leaves}), index={index.kind}, "
              f"build {t_build * 1e3:.1f}ms")

        for extent in config["extents"]:
            queries = _fixed_extent_queries(rng, config["eval_queries"], extent)
            visits, entries = _lookup_work(index, queries)

            est._index = index
            before = _box_rows("sparse"), _box_rows("dense")
            est.predict_many(queries)
            sparse_rows = _box_rows("sparse") - before[0]
            share = sparse_rows / (sparse_rows + _box_rows("dense") - before[1])

            def routed():
                est._index = index
                return est.predict_many(queries)

            def dense():
                est._index = None
                try:
                    return est.predict_many(queries)
                finally:
                    est._index = index

            ts, td, p_sparse, p_dense = _alternating(config["alternations"], routed, dense)
            t_sparse, t_dense = float(np.median(ts)), float(np.median(td))
            ratios = [d / s for s, d in zip(ts, td)]

            diff = float(np.max(np.abs(np.asarray(p_sparse) - np.asarray(p_dense))))
            point = {
                "leaves": m,
                "index_kind": index.kind,
                "index_build_seconds": round(t_build, 4),
                "extent": extent,
                "queries": len(queries),
                "lookup_visits_per_query": round(visits, 1),
                "lookup_entries_per_query": round(entries, 1),
                "sparse_share": round(share, 4),
                "sparse_seconds": round(t_sparse, 4),
                "dense_seconds": round(t_dense, 4),
                "sparse_seconds_range": [round(min(ts), 4), round(max(ts), 4)],
                "dense_seconds_range": [round(min(td), 4), round(max(td), 4)],
                "speedup": round(t_dense / t_sparse, 2),
                "speedup_range": [round(min(ratios), 2), round(max(ratios), 2)],
                "max_abs_diff": diff,
            }
            sweep.append(point)
            print(
                f"  extent={extent}: visits={visits:.1f} sparse_share={share:.2f}  "
                f"sparse {t_sparse:.4f}s vs dense {t_dense:.4f}s (medians of "
                f"{len(ts)})  speedup {point['speedup']}x "
                f"[{point['speedup_range'][0]}-{point['speedup_range'][1]}]  "
                f"maxdiff {diff:.1e}"
            )

        families.extend(_family_checks(config, est, rng))

    big = [p for p in sweep if p["leaves"] >= 10_000]
    headline = max((p["speedup"] for p in big), default=None)
    return {
        "config": config,
        "headline_speedup_at_10k_leaves": headline,
        "min_speedup": min(p["speedup"] for p in sweep),
        "max_abs_diff": max(p["max_abs_diff"] for p in sweep),
        "predict_sweep": sweep,
        "families": families,
        "calibration": _calibrate(config),
    }


#: Acceptance: sparse and dense predictions differ only in summation order.
PREDICT_TOL = 1e-12


def failures(result: dict) -> list[str]:
    """The acceptance checks ``result`` fails, as messages."""
    found = []
    if not result["max_abs_diff"] <= PREDICT_TOL:
        found.append(
            f"sparse-vs-dense prediction diff {result['max_abs_diff']:.2e} > {PREDICT_TOL:g}"
        )
    for point in result["families"]:
        where = f"{point['family']} rows at {point['leaves']} leaves"
        if not point["max_abs_diff"] <= PREDICT_TOL:
            found.append(
                f"{where}: sparse-vs-dense prediction diff {point['max_abs_diff']:.2e} "
                f"> {PREDICT_TOL:g}"
            )
        if point["family"] == "halfspace" and (
            point["sparse_share"] != 0.0 or point["forced_sparse_share"] != 0.0
        ):
            found.append(f"{where}: went sparse (halfspace rows must run dense)")
        if point["family"] == "ball" and point["forced_sparse_share"] != 1.0:
            found.append(f"{where}: forced rows stayed dense (the check ran no sparse pair)")
    return found


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run (seconds, not minutes)"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=RESULTS_DIR / "BENCH_sparse.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args()

    result = run(SMOKE if args.smoke else FULL)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(result, indent=2) + "\n")

    if result["headline_speedup_at_10k_leaves"] is not None:
        print(
            f"best predict_many speedup at >=10k leaves: "
            f"{result['headline_speedup_at_10k_leaves']}x"
        )
    print(f"min predict speedup: {result['min_speedup']}x")
    print(f"max sparse-vs-dense prediction diff: {result['max_abs_diff']:.2e}")
    print(f"calibration: {json.dumps(result['calibration'])}")
    print(f"wrote {args.output}")
    problems = failures(result)
    if problems:
        raise SystemExit("FAILED: " + "; ".join(problems))


if __name__ == "__main__":
    main()
