"""Command line: ``run`` a workload, ``compare`` two sets of result files.

The last line ``run`` prints is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics.  The command exits
non-zero when any answer was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from benchmarks.e2e import compare as compare_mod
from benchmarks.e2e import ledger
from benchmarks.e2e.runner import END_TO_END, run_pass
from benchmarks.e2e.workloads import WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK_DIR = HERE / ".work"

WINDOW_S = 15.0
WARMUP_S = 3.0
SETUPS = 3
SMOKE = {"seconds": 3.0, "warmup_s": 1.0, "setups": 1}


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def header(mode: str, seed: int, seconds: float, warmup_s: float, setups: int) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "mode": mode,
        "seed": seed,
        "loadgen": {
            "processes": 1,
            "connections": {w.name: w.connections for w in WORKLOADS.values()},
            "open_loop_rate": {w.name: w.rate for w in WORKLOADS.values()},
            "window_s": seconds,
            "warmup_s": warmup_s,
            "setups": setups,
        },
    }


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def _print_pass(name: str, label: str, result) -> None:
    print(f"== {name} ({label})")
    for metric, unit, _ in END_TO_END:
        print(f"  {metric:<34} {_fmt(result.metrics[metric]):>12} {unit}")
    for key, value in result.diagnostics.items():
        if not isinstance(value, list):
            print(f"  [diagnostic] {key:<44} {_fmt(value)}")
    for problem in result.problems:
        print(f"  WRONG: {problem}")


def _print_trace(name: str, untraced, traced, per_layer: dict) -> None:
    print(f"== {name} tracing overhead (traced minus untraced)")
    for metric, unit, _ in END_TO_END:
        a, b = untraced.metrics[metric], traced.metrics[metric]
        share = (b - a) / a if a else 0.0
        print(f"  {metric:<34} {_fmt(a):>12} -> {_fmt(b):>12} {unit}  ({share:+.1%})")
    print(f"== {name} per-layer metrics")
    units = dict(ledger.PER_LAYER)
    for metric, value in per_layer.items():
        print(f"  {metric:<40} {_fmt(value):>12} {units[metric]}")
    for metric, value in traced.extra.items():
        print(f"  [extra] {metric:<40} {_fmt(value):>12}")
    book = traced.request_ledger
    print(f"== {name} server time per request (us), traced")
    for row, us in book["us_per_request"].items():
        print(f"  {row:<40} {us:>12.2f}")
    print(f"  {'server total (scraped)':<40} {book['server_total_us']:>12.2f}")
    print(f"  closure: attributed + unattributed misses the total by {book['closure']:+.2%}")


def run(args) -> int:
    mode = "smoke" if args.smoke else "full"
    settings = SMOKE if args.smoke else {
        "seconds": args.seconds, "warmup_s": WARMUP_S, "setups": SETUPS
    }
    names = [args.workload] if args.workload else list(WORKLOADS)
    report = {"header": header(mode, args.seed, **settings), "runs": []}
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        for name in names:
            workload = WORKLOADS[name]
            inputs = make_inputs(workload, args.seed, settings["warmup_s"], settings["seconds"])
            passes = [("untraced", run_pass(workload, inputs, workdir=workdir, **settings))]
            if args.trace:
                passes.append(
                    ("traced", run_pass(workload, inputs, workdir=workdir, traced=True, **settings))
                )
            for label, result in passes:
                _print_pass(name, label, result)
                summary["correct"] &= result.correct
                summary["attempted"] += result.attempted
                summary["failed"] += result.failed
                report["runs"].append({
                    "workload": name,
                    "seed": args.seed,
                    "pass": label,
                    "correct": result.correct,
                    "attempted": result.attempted,
                    "failed": result.failed,
                    "metrics": result.metrics,
                    "diagnostics": result.diagnostics,
                    "per_layer": {**result.layers, **(result.traced_layers or {})},
                    "extra": result.extra,
                    "request_ledger": result.request_ledger,
                    "problems": result.problems,
                })
            untraced = passes[0][1]
            if args.trace:
                traced = passes[1][1]
                layer = {**untraced.layers, **traced.traced_layers}
                values = {m: layer[m] for m, _ in ledger.PER_LAYER}
                _print_trace(name, untraced, traced, values)
                units = dict(ledger.PER_LAYER)
            else:
                values = untraced.metrics
                units = {m: u for m, u, _ in END_TO_END}
            prefix = "" if len(names) == 1 else f"{name}."
            for metric, value in values.items():
                summary["metrics"][prefix + metric] = {"value": value, "unit": units[metric]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if mode == "smoke":
        print("smoke mode: 3 s windows, correctness only; the numbers are not comparable")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def run_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python -m benchmarks.e2e run", description=__doc__)
    p.add_argument("--workload", choices=list(WORKLOADS), help="default: all four")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=WINDOW_S, help="measured window")
    p.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="also run the traced pass and report per-layer metrics",
    )
    p.add_argument("--smoke", action="store_true", help="3 s windows, correctness only")
    p.add_argument("--out", help="write the result file here")
    return p


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    command, rest = (argv[0], argv[1:]) if argv else (None, [])
    if command == "run":
        return run(run_parser().parse_args(rest))
    if command == "compare":
        return compare_mod.main(rest)
    print("usage: python -m benchmarks.e2e {run,compare} ...", file=sys.stderr)
    return 2
