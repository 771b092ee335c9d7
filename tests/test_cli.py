"""Tests for the command-line interface."""

import pytest

from repro.cli import CONFIGS, WORKLOADS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.config == "qpipe-sp"
        assert args.workload == "q32-random"
        assert args.n == 16

    def test_unknown_config_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--config", "mysql"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--gqp-kernels"],
            ["sweep", "--gqp-ordering", "adaptive"],
            ["serve", "--gqp-ordering", "static"],
        ],
    )
    def test_removed_plane_flags_are_unrecognized(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "fig6"])
        assert args.name == "fig6"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in CONFIGS:
            assert name in out
        for name in WORKLOADS:
            assert name in out

    def test_run_small_workload(self, capsys):
        rc = main(["run", "--config", "qpipe-sp", "--workload", "q32-plans",
                   "-n", "4", "--plans", "2", "--sf", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "QPipe-SP" in out
        assert "mean response" in out
        assert "sharing events" in out  # 2 plans x 4 queries must share

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_run_every_workload(self, workload, capsys):
        rc = main(["run", "--workload", workload, "-n", "2", "--sf", "0.2"])
        assert rc == 0
        assert f"{workload} x2 on QPipe-SP" in capsys.readouterr().out

    def test_run_hybrid_selector(self, capsys):
        rc = main(["run", "--config", "hybrid", "-n", "2", "--sf", "0.2"])
        assert rc == 0
        assert "on Hybrid" in capsys.readouterr().out

    def test_run_postgres_selector(self, capsys):
        rc = main(["run", "--config", "postgres", "-n", "2", "--sf", "0.5"])
        assert rc == 0
        assert "Postgres" in capsys.readouterr().out

    def test_query_command(self, capsys):
        rc = main(["query", "Q3.2", "--sf", "0.5", "--limit", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Q3.2 on QPipe-SP" in out
        assert "revenue" in out

    def test_query_rejects_non_engine_config(self):
        with pytest.raises(SystemExit):
            main(["query", "Q3.2", "--config", "postgres", "--sf", "0.5"])

    def test_experiment_fig2(self, capsys):
        rc = main(["experiment", "fig2"])
        assert rc == 0
        assert "Window of Opportunity" in capsys.readouterr().out

    def test_experiment_spl_maxsize(self, capsys):
        rc = main(["experiment", "spl-maxsize"])
        assert rc == 0
        assert "SPL maximum size" in capsys.readouterr().out

    def test_experiment_json_flag(self, capsys):
        import json

        rc = main(["experiment", "spl-maxsize", "--json"])
        assert rc == 0
        out = capsys.readouterr().out
        payload = out[out.index("{") :]
        assert json.loads(payload)["experiment"] == "spl_maxsize"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--shards", "1", "--result-cache-mb", "4"], "--result-cache-mb does not apply with --shards N"),
            (["--shards", "1", "--disk"], "--disk does not apply with --shards N"),
            (["--shards", "1", "--direct-io"], "--direct-io does not apply with --shards N"),
            (["--shards", "1", "--threshold", "3"], "--threshold does not apply with --shards N"),
            (["--shards", "1", "--policy", "static"], "--policy does not apply with --shards N"),
            (["--partition", "range"], "--partition needs --shards N"),
            (["--shard-engine", "qpipe-sp"], "--shard-engine needs --shards N"),
            (["--shard-timeout", "5"], "--shard-timeout needs --shards N"),
            (["--fingerprints", "fp.txt"], "--fingerprints needs --shards N"),
        ],
    )
    def test_serve_rejects_flags_of_the_other_executor(self, flags, message):
        fast = ["--rate", "2", "--duration", "0.5", "--sf", "0.2", "--workload", "q32-random"]
        with pytest.raises(SystemExit) as exc:
            main(["serve", *fast, *flags])
        assert exc.value.code == f"repro serve: {message}"

    def test_experiment_chart_flag(self, capsys):
        rc = main(["experiment", "fig6", "--chart"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "CS(SPL)" in out
        assert "overlap" in out  # the chart legend rendered
