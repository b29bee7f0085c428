import pytest

import repro.server
from repro.observability.logs import bind_request_id
from repro.observability.tracing import span

from benchmarks.e2e import ledger
from benchmarks.e2e.tracer import SPANS, Tracer, _resolve


def _span(sid, parent, name, start, end, n=None, pid=1):
    return {"pid": pid, "sid": sid, "parent": parent, "name": name,
            "start": start, "end": end, "rid": "r", "n": n, "fallback": None}


#   estimate_many 0..10
#   +-- predict_many 1..9 (n=2)
#       +-- index 2..3 (n=2)
#       +-- dense 4..8 (n=2)
#   update 20..30
#   +-- partial_fit 21..25
#   |   +-- fit/solve 22..24
#   +-- other 26..29
#       +-- save 27..28
TREE = [
    _span(1, None, "service.estimate_many", 0, 10),
    _span(2, 1, "core.predict_many", 1, 9, n=2),
    _span(3, 2, "geometry.index", 2, 3, n=2),
    _span(4, 2, "geometry.dense", 4, 8, n=2),
    _span(5, None, "service.update", 20, 30),
    _span(6, 5, "core.partial_fit", 21, 25),
    _span(7, 6, "fit/solve", 22, 24),
    _span(8, 5, "other", 26, 29),
    _span(9, 8, "persistence.save", 27, 28),
]


def test_self_time_subtracts_direct_children_only():
    tree = ledger.SpanTree(TREE)
    self_times = {r["name"]: tree.self_time(r) for r in tree.spans}
    assert self_times["service.estimate_many"] == 2  # 10 - 8
    assert self_times["core.predict_many"] == 3  # 8 - 1 - 4
    assert self_times["geometry.dense"] == 4
    assert self_times["service.update"] == 3  # 10 - 4 - 3
    assert [a["name"] for a in tree.ancestors(TREE[3])] == [
        "core.predict_many", "service.estimate_many"
    ]


def test_outermost_descendants_reach_through_unlisted_spans():
    tree = ledger.SpanTree(TREE)
    update = TREE[4]
    # partial_fit (4) counts whole; save (1) is found below "other".
    assert tree.outermost(update, {"core.partial_fit", "persistence.save", "fit/solve"}) == 5


def test_read_path_self_times_add_up_to_the_read_root():
    tree = ledger.SpanTree(TREE)
    rows = ledger.read_path(tree, worker_pid=1, window=(0, 100))
    assert set(rows) == {"service.estimate_many", "core.predict_many",
                         "geometry.index", "geometry.dense"}
    assert sum(rows.values()) == 10


def test_request_ledger_closes_on_the_scraped_total():
    stages = {"total": (10.0, 4), "queue": (1.0, 4), "coalesce": (2.0, 4), "kernel": (3.0, 4)}
    # Traced read path adds up to the scraped kernel stage exactly.
    book = ledger.request_ledger(stages, {"service.estimate_many": 1.0, "geometry.dense": 2.0}, 0.5)
    assert book["us_per_request"]["server.http.unattributed"] == pytest.approx(3.5 / 4 * 1e6)
    assert book["server_total_us"] == pytest.approx(2.5e6)
    assert book["closure"] == pytest.approx(0.0)
    # A traced read path 0.5 s longer than the kernel stage misses by 5%.
    book = ledger.request_ledger(stages, {"service.estimate_many": 3.5}, 0.5)
    assert book["closure"] == pytest.approx(0.05)


def test_traced_layers_from_records():
    records = TREE + [
        {"pid": 1, "leaf": "server.decode", "rid": "r", "count": 4, "seconds": 2e-6,
         "start": 0.5, "end": 0.6},
        _span(10, None, "fit/partition", -5, -4, pid=2),
    ]
    tree = ledger.SpanTree(records)
    layers = ledger.traced(tree, worker_pid=1, window=(0, 100), setup=(-10, -1))
    assert layers["core.predict_many_self_us_per_query"] == pytest.approx(1.5e6)
    assert layers["geometry.kernel.dense_us_per_query"] == pytest.approx(2e6)
    assert layers["server.decode_us_per_query"] == pytest.approx(0.5)
    assert layers["core.fit.partition_s"] == 1
    assert layers["solvers.solve_ms"] == pytest.approx(2e3)
    assert layers["extra"]["service.update_self_ms"] == pytest.approx(5e3)  # 10 - 4 - 1


def test_tracer_records_parents_and_request_ids_and_uninstalls():
    original = repro.server.range_from_dict
    tracer = Tracer()
    tracer.install()
    try:
        assert repro.server.range_from_dict is not original
        with bind_request_id("req-1"):
            with span("outer"):
                with span("inner"):
                    repro.server.range_from_dict({"type": "box", "lows": [0, 0], "highs": [1, 1]})
    finally:
        tracer.uninstall()
    assert repro.server.range_from_dict is original
    for module, attribute, _, _ in SPANS:
        owner, name = _resolve(module, attribute)
        assert not getattr(owner.__dict__[name], "__name__", "").startswith("shim")
    records = tracer.drain()
    spans = {r["name"]: r for r in records if "sid" in r}
    assert spans["inner"]["parent"] == spans["outer"]["sid"]
    assert spans["outer"]["parent"] is None
    assert spans["inner"]["rid"] == "req-1"
    [leaf] = [r for r in records if "leaf" in r]
    assert leaf["leaf"] == "server.decode" and leaf["count"] == 1 and leaf["rid"] == "req-1"
