"""Concurrent serving under instrumentation: counters stay consistent and
the exposition endpoint renders valid text while traffic is in flight."""

import json
import re
import threading
import urllib.request

import pytest

from repro.core import QuadHist
from repro.observability import parse_exposition
from repro.observability.metrics import Gauge, MetricsRegistry
from repro.server import EstimatorService, serve

_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})? "
    r"(NaN|[+-]Inf|[-+0-9.e]+)$"
)


@pytest.fixture
def labeled_feedback(power2d_box_workload):
    train_q, train_s, test_q, test_s = power2d_box_workload
    return list(zip(train_q, train_s)), list(zip(test_q, test_s))


def _trained_service(labeled_feedback, **kwargs):
    feedback, holdout = labeled_feedback
    service = EstimatorService(lambda: QuadHist(tau=0.02), **kwargs)
    for query, label in feedback[:50]:
        service.feedback(query, label)
    service.retrain()
    return service, feedback, holdout


class TestConcurrentCounters:
    def test_cache_counters_account_for_every_query(self, labeled_feedback):
        """hits + misses == total queries submitted, even with feedback and
        retrain threads racing the readers."""
        registry = MetricsRegistry()
        service, feedback, holdout = _trained_service(
            labeled_feedback, registry=registry
        )
        queries = [q for q, _ in holdout]
        rounds, batch, readers = 20, 10, 4
        errors: list[Exception] = []

        def read(offset):
            try:
                for i in range(rounds):
                    start = (offset + i) % (len(queries) - batch)
                    service.estimate_many(queries[start : start + batch])
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        def write():
            try:
                for query, label in feedback[50:90]:
                    service.feedback(query, label)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def retrain():
            try:
                for _ in range(3):
                    service.retrain()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=read, args=(i * 7,)) for i in range(readers)]
        threads.append(threading.Thread(target=write))
        threads.append(threading.Thread(target=retrain))
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert errors == []
        hits = registry.get("repro_prediction_cache_hits_total").value()
        misses = registry.get("repro_prediction_cache_misses_total").value()
        assert hits + misses == readers * rounds * batch
        # Feedback accounting: every submitted pair is accepted or quarantined.
        accepted = registry.get("repro_feedback_accepted_total").value()
        quarantined = registry.get("repro_feedback_quarantined_total").value()
        assert accepted + quarantined == 50 + 40
        assert registry.get("repro_retrain_total").value(outcome="success") >= 1

    def test_isolated_registry_does_not_leak(self, labeled_feedback):
        registry = MetricsRegistry()
        service, _, holdout = _trained_service(labeled_feedback, registry=registry)
        service.estimate_many([q for q, _ in holdout[:5]])
        other = MetricsRegistry()
        assert other.names() == []
        assert registry.get("repro_service_queries_total").value() > 0


class TestMetricsOverHTTP:
    @pytest.fixture
    def server(self, labeled_feedback):
        # Default registry on purpose: the exposition must span the
        # service, HTTP, solver and kernel layers in one scrape.
        service, _, holdout = _trained_service(labeled_feedback, min_feedback=20)
        server = serve(service, port=0)
        yield server, holdout
        server.shutdown()

    def _scrape(self, server) -> str:
        host, port = server.server_address
        with urllib.request.urlopen(f"http://{host}:{port}/metrics") as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            return response.read().decode("utf-8")

    def test_exposition_parses_under_concurrent_traffic(self, server):
        server, holdout = server
        host, port = server.server_address
        errors: list[Exception] = []

        def hammer():
            try:
                from repro.data.io import range_to_dict

                for query, _ in holdout[:10]:
                    body = json.dumps({"query": range_to_dict(query)}).encode()
                    request = urllib.request.Request(
                        f"http://{host}:{port}/v1/estimate",
                        data=body,
                        headers={"Content-Type": "application/json"},
                    )
                    urllib.request.urlopen(request).read()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for t in threads:
            t.start()
        bodies = [self._scrape(server) for _ in range(5)]
        for t in threads:
            t.join()
        assert errors == []
        for body in bodies:
            for line in body.strip().splitlines():
                if line.startswith("#"):
                    continue
                assert _SAMPLE_RE.match(line), f"unparseable line: {line!r}"

    def test_scrape_covers_all_layers(self, server):
        server, _ = server
        body = self._scrape(server)
        names = {
            line.split()[2]
            for line in body.splitlines()
            if line.startswith("# TYPE")
        }
        assert len(names) >= 12
        for expected in (
            "repro_service_requests_total",  # service layer
            "repro_http_requests_total",  # HTTP layer
            "repro_solve_total",  # solver ladder
            "repro_kernel_queries_total",  # geometry kernels
            "repro_span_seconds",  # tracing bridge
        ):
            assert expected in names, f"missing {expected}"

    def test_page_is_one_locked_snapshot(self, labeled_feedback):
        """The page reads the service counters in one hold of the service
        lock, so an estimate that lands mid-page waits for it and the
        page keeps ``hits + misses == queries``."""
        registry = MetricsRegistry()
        service, _, holdout = _trained_service(
            labeled_feedback, registry=registry, min_feedback=20
        )
        queries = [q for q, _ in holdout[:5]]
        service.estimate_many(queries)
        # The probe sorts between the cache-miss counter and the query
        # counter.  Reading it runs one more estimate on another thread,
        # which a page read one family at a time would split in two.
        probe = registry.gauge("repro_probe", "runs one estimate when read")
        estimates: list[threading.Thread] = []

        def series():
            thread = threading.Thread(target=service.estimate_many, args=(queries,))
            thread.start()
            thread.join(timeout=0.2)
            estimates.append(thread)
            return Gauge.series(probe)

        probe.series = series
        server = serve(service, port=0)
        try:
            body = self._scrape(server)
        finally:
            server.shutdown()
        assert len(estimates) == 1
        estimates[0].join(timeout=10.0)
        assert not estimates[0].is_alive()
        families, problems = parse_exposition(body)
        assert problems == []

        def value(name):
            return sum(v for _, _, v, _ in families[name]["samples"])

        assert value("repro_prediction_cache_hits_total") + value(
            "repro_prediction_cache_misses_total"
        ) == value("repro_service_queries_total")
        assert registry.get("repro_service_queries_total").value() == 10
