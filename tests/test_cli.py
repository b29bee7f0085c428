"""CLI: both subcommands, argument validation, and file round-trip."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_observability_flags(self):
        args = build_parser().parse_args(["serve"])
        assert args.log_json is False
        assert args.access_log is False
        args = build_parser().parse_args(["serve", "--log-json", "--access-log"])
        assert args.log_json is True
        assert args.access_log is True

    def test_metrics_defaults(self):
        args = build_parser().parse_args(["metrics"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.url is None
        args = build_parser().parse_args(["metrics", "--url", "http://x:1/metrics"])
        assert args.url == "http://x:1/metrics"
        # The ops endpoint serves the fleet page on the same path, so
        # --port <ops-port> is the whole of the old --aggregate flag.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["metrics", "--aggregate"])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "--out", "w.json"])
        assert args.dataset == "power"
        assert args.attrs == [0, 3]
        assert args.queries == 200

    def test_attrs_parsing(self):
        args = build_parser().parse_args(
            ["generate", "--out", "w.json", "--attrs", "1,4,6"]
        )
        assert args.attrs == [1, 4, 6]

    def test_bad_attrs_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--out", "w.json", "--attrs", "a,b"])

    def test_bad_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--out", "w", "--dataset", "tpch"])


class TestGenerate:
    def test_writes_workload_file(self, tmp_path, capsys):
        out = tmp_path / "train.json"
        code = main(
            [
                "generate",
                "--rows", "3000",
                "--queries", "25",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["queries"]) == 25
        assert "wrote 25" in capsys.readouterr().out


class TestEvaluate:
    def test_end_to_end_table(self, capsys):
        code = main(
            [
                "evaluate",
                "--rows", "3000",
                "--train", "30",
                "--test", "20",
                "--methods", "quadhist,uniform",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "quadhist" in out and "uniform" in out
        assert "rms" in out

    def test_unknown_method_fails_cleanly(self, capsys):
        code = main(
            [
                "evaluate",
                "--rows", "3000",
                "--train", "10",
                "--test", "10",
                "--methods", "resnet",
            ]
        )
        assert code == 2
        assert "unknown method" in capsys.readouterr().err

    def test_train_from_file(self, tmp_path, capsys):
        out = tmp_path / "train.json"
        main(["generate", "--rows", "3000", "--queries", "30", "--out", str(out)])
        capsys.readouterr()
        code = main(
            [
                "evaluate",
                "--rows", "3000",
                "--train-file", str(out),
                "--test", "15",
                "--methods", "ptshist",
            ]
        )
        assert code == 0
        assert "train=30" in capsys.readouterr().out


class TestMetricsCommand:
    def test_dumps_exposition_from_running_sidecar(self, capsys):
        from repro.core import QuadHist
        from repro.server import EstimatorService, serve

        service = EstimatorService(lambda: QuadHist(tau=0.02))
        server = serve(service, port=0)
        try:
            host, port = server.server_address
            code = main(["metrics", "--host", host, "--port", str(port)])
        finally:
            server.shutdown()
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_service_requests_total counter" in out
        assert "repro_http_requests_total" in out

    def test_explicit_url_overrides_host_port(self, capsys):
        from repro.core import QuadHist
        from repro.server import EstimatorService, serve

        service = EstimatorService(lambda: QuadHist(tau=0.02))
        server = serve(service, port=0)
        try:
            host, port = server.server_address
            code = main(
                ["metrics", "--port", "1", "--url", f"http://{host}:{port}/metrics"]
            )
        finally:
            server.shutdown()
        assert code == 0
        assert "# TYPE" in capsys.readouterr().out

    def test_unreachable_sidecar_fails_cleanly(self, capsys):
        code = main(["metrics", "--url", "http://127.0.0.1:9/metrics", "--timeout", "0.5"])
        assert code == 1
        assert "could not scrape" in capsys.readouterr().err
