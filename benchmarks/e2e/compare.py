"""``compare A.json... -- B.json...``: medians, quartiles and bounds.

For every workload and end-to-end metric, prints each side's median and
quartiles and applies the regression bound ``BENCHMARK.json`` fixes for
the metric; ``error_share`` may not increase at all, and the tail
percentiles are shown without a verdict.  A metric whose
spread on side A is wider than its bound is ``unresolved`` unless every
B run reads better than every A run.  Exits 1 when any metric regressed.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from pathlib import Path

from benchmarks.e2e.stats import quartiles, spread

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: Gated with a zero bound on top of BENCHMARK.json's metrics, which must
#: never read 0 and so cannot include it.
ZERO_BOUND = {"error_share": "lower"}
#: Printed side by side but not gated: their spread exceeds any bound on
#: at least one workload.
DIAGNOSTICS = ("latency_p90_ms", "latency_p99_ms", "update_p50_ms", "client.late_p99_ms")


def bounds(path: Path = BENCHMARK_JSON) -> dict[str, tuple[str, float]]:
    spec = json.loads(path.read_text())
    gates = {m["name"]: (m["better"], float(m["bound"])) for m in spec["end_to_end"]}
    gates.update({name: (better, 0.0) for name, better in ZERO_BOUND.items()})
    return gates


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """``(status, change)``: status is ok, regression or unresolved; change
    is B's median relative to A's, signed so that positive is worse."""
    _, med_a, _ = quartiles(a)
    _, med_b, _ = quartiles(b)
    if med_a:
        change = (med_b - med_a) / abs(med_a)
    else:
        change = 0.0 if med_b == med_a else math.copysign(math.inf, med_b - med_a)
    worse = change if better == "lower" else -change
    b_wins = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if spread(a) > bound and not b_wins:
        return "unresolved", worse
    return ("regression" if worse > bound else "ok"), worse


def collect(paths: list[str]) -> tuple[dict, list[dict]]:
    """``{(workload, metric): [values]}`` of the untraced runs, and headers."""
    values: dict = defaultdict(list)
    headers = []
    for path in paths:
        report = json.loads(Path(path).read_text())
        headers.append(report["header"])
        for run in report["runs"]:
            if run["pass"] != "untraced":
                continue
            for metric, value in run["metrics"].items():
                values[(run["workload"], metric)].append(value)
            for name in ("error_share", *DIAGNOSTICS):
                value = run["diagnostics"].get(name)
                if value is not None:
                    values[(run["workload"], name)].append(value)
    return values, headers


def compare(a_paths: list[str], b_paths: list[str], gates: dict) -> tuple[list[dict], bool]:
    a, a_headers = collect(a_paths)
    b, b_headers = collect(b_paths)
    for side, headers in (("A", a_headers), ("B", b_headers)):
        shas = sorted({str(h["git_sha"])[:10] for h in headers})
        cpus = sorted({h["cpu_count"] for h in headers})
        modes = sorted({h["mode"] for h in headers})
        print(f"{side}: {len(headers)} files, git {', '.join(shas)}, cpu_count {cpus}, mode {modes}")
    rows, regressed = [], False
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        if metric in gates:
            better, bound = gates[metric]
            status, worse = verdict(a[key], b[key], better, bound)
        elif metric in DIAGNOSTICS:
            bound = math.nan
            status, worse = "diagnostic", verdict(a[key], b[key], "lower", math.inf)[1]
        else:
            continue
        regressed |= status == "regression"
        rows.append({
            "workload": workload, "metric": metric, "bound": bound, "status": status,
            "worse_by": worse, "a": quartiles(a[key]), "b": quartiles(b[key]),
            "runs": (len(a[key]), len(b[key])),
        })
    return rows, regressed


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: python -m benchmarks.e2e compare A.json... -- B.json...", file=sys.stderr)
        return 2
    cut = argv.index("--")
    a_paths, b_paths = argv[:cut], argv[cut + 1 :]
    if not a_paths or not b_paths:
        print("compare needs at least one result file on each side", file=sys.stderr)
        return 2
    rows, regressed = compare(a_paths, b_paths, bounds())
    print(f"{'workload':<16} {'metric':<16} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'worse by':>9} {'bound':>6}  status")
    for row in rows:
        cells = [
            f"{m:.5g} [{q1:.5g}, {q3:.5g}]" for q1, m, q3 in (row["a"], row["b"])
        ]
        bound = "-" if math.isnan(row["bound"]) else f"{row['bound']:.0%}"
        print(f"{row['workload']:<16} {row['metric']:<16} {cells[0]:>34} {cells[1]:>34} "
              f"{row['worse_by']:>+9.1%} {bound:>6}  {row['status']}")
    return 1 if regressed else 0
