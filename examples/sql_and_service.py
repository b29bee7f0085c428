"""DB-facing integration: SQL predicates, CSV data, and the HTTP service.

The adoption path for this library inside a database:

1. load a real table (here: a CSV written on the fly; swap in the actual
   UCI Power export),
2. express query predicates as SQL WHERE clauses,
3. run the estimation sidecar: feed observed selectivities as feedback,
   retrain, and serve estimates over HTTP.

Run:  python examples/sql_and_service.py
"""

import json
import tempfile
import urllib.request
from pathlib import Path

import numpy as np

from repro.core import QuadHist
from repro.data import (
    WorkloadSpec,
    dataset_from_csv,
    generate_workload,
    label_queries,
    parse_predicate,
    range_to_dict,
    true_selectivity,
)
from repro.server import EstimatorService, serve


def write_demo_csv(path: Path) -> None:
    """A small correlated table standing in for a real export."""
    gen = np.random.default_rng(4)
    n = 8000
    load = gen.beta(1.5, 5.0, n)
    current = np.clip(load * 4.5 + gen.normal(0, 0.1, n), 0, None)
    room = gen.choice(["kitchen", "garage", "attic"], size=n, p=[0.6, 0.3, 0.1])
    lines = ["load,current,room"]
    lines += [f"{l:.5f},{c:.5f},{r}" for l, c, r in zip(load, current, room)]
    path.write_text("\n".join(lines))


def main() -> None:
    # 1. Load the table.
    csv_path = Path(tempfile.mkdtemp()) / "power_export.csv"
    write_demo_csv(csv_path)
    table = dataset_from_csv(csv_path).project([0, 1])  # numeric attrs
    attrs = [a.name for a in table.attributes]
    print(f"loaded {table} with attributes {attrs}")

    # 2. SQL predicates -> ranges -> true selectivities.
    clauses = [
        "load BETWEEN 0.1 AND 0.4 AND current <= 0.5",
        "0.0 + 1.0*load - 1.0*current >= 0",
        "(load-0.2)^2 + (current-0.2)^2 <= 0.04",
    ]
    print("\nSQL predicates against the table:")
    for clause in clauses:
        query = parse_predicate(clause, attrs)
        sel = true_selectivity(table, query)
        print(f"  WHERE {clause:<55} -> {type(query).__name__:<10} s = {sel:.4f}")

    # 3. The estimation service over HTTP.
    service = EstimatorService(lambda: QuadHist(tau=0.01), min_feedback=30)
    server = serve(service, port=0)
    host, port = server.server_address
    base = f"http://{host}:{port}"

    def post(path, payload):
        request = urllib.request.Request(
            base + path, data=json.dumps(payload).encode(), method="POST"
        )
        with urllib.request.urlopen(request) as response:
            return json.loads(response.read())

    rng = np.random.default_rng(11)
    spec = WorkloadSpec(query_kind="box", center_kind="data")
    feedback = generate_workload(80, 2, rng, spec=spec, dataset=table)
    labels = label_queries(table, feedback)
    for query, label in zip(feedback, labels):
        post("/v1/feedback", {"query": range_to_dict(query), "selectivity": float(label)})
    trained = post("/v1/retrain", {})
    print(f"\nservice trained: {trained}")

    probe = parse_predicate(clauses[0], attrs)
    estimate = post("/v1/estimate", {"query": range_to_dict(probe)})["selectivity"]
    truth = true_selectivity(table, probe)
    print(
        f"HTTP estimate for the first predicate: {estimate:.4f} "
        f"(true {truth:.4f})"
    )
    server.shutdown()


if __name__ == "__main__":
    main()
