"""CLI smoke tests for ``python -m repro serve`` and the ``list`` polish."""

import json

import pytest

from repro.cli import main

FAST = ["--rate", "2", "--duration", "1", "--sf", "0.5", "--seed", "5"]


class TestServe:
    def test_smoke_text_report(self, capsys):
        assert main(["serve", "--policy", "static", *FAST]) == 0
        out = capsys.readouterr().out
        assert "latency p95 (s)" in out
        assert "throughput (q/s)" in out

    def test_json_report(self, capsys):
        assert main(["serve", "--policy", "adaptive", *FAST, "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["policy"] == "adaptive"
        for key in ("p50", "p95", "p99"):
            assert key in payload["latency"]
        for key in ("throughput_qps", "admitted", "dropped", "timed_out", "completed"):
            assert key in payload

    def test_unknown_policy_one_line_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--policy", "mystery", *FAST])
        assert exc.value.code == "repro serve: unknown policy 'mystery' (choose from: static, adaptive)"
        assert "\n" not in str(exc.value.code)

    def test_unknown_arrival_one_line_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--arrival", "tsunami", *FAST])
        assert "unknown arrival" in str(exc.value.code)
        assert "\n" not in str(exc.value.code)

    def test_unknown_workload_one_line_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--workload", "everything", *FAST])
        assert "unknown serve workload" in str(exc.value.code)

    def test_missing_trace_file_one_line_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--arrival", "trace", "--trace", "/nonexistent/trace.txt", *FAST])
        assert str(exc.value.code).startswith("repro serve:")

    def test_bad_service_config_one_line_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--queue-capacity", "0", *FAST])
        # The config refuses the value; the message names the flag.
        assert exc.value.code == "repro serve: --queue-capacity must be >= 1"


class TestListPolicies:
    def test_list_shows_policies_and_arrivals(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "policies (serve)" in out
        assert "static" in out and "adaptive" in out
        assert "arrivals (serve)" in out
        assert "poisson" in out and "burst" in out
