"""Tests for the command-line interface."""

import os

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
        args = build_parser().parse_args(["sweep", "fig6"])
        assert args.names == ["fig6"]
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "fig99"])
        assert exc.value.code == "repro sweep: unknown experiment(s) fig99 (see: repro list)"

    def test_experiment_subcommand_is_gone(self, capsys):
        # `repro sweep NAME` is the one CLI runner of a registered figure.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig6"])
        err = capsys.readouterr().err
        assert "invalid choice" in err and "'experiment'" in err


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
        rc = main(["sweep", "fig2"])
        assert rc == 0
        assert "Window of Opportunity" in capsys.readouterr().out

    def test_experiment_spl_maxsize(self, capsys):
        rc = main(["sweep", "spl-maxsize"])
        assert rc == 0
        assert "SPL maximum size" in capsys.readouterr().out

    def test_experiment_json_dir(self, tmp_path, capsys):
        import json

        rc = main(["sweep", "spl-maxsize", "--quiet", "--json-dir", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        assert json.loads((tmp_path / "spl-maxsize.json").read_text())["experiment"] == "spl_maxsize"

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
        ],
    )
    def test_serve_rejects_flags_of_the_other_executor(self, flags, message):
        fast = ["--rate", "2", "--duration", "0.5", "--sf", "0.2", "--workload", "q32-random"]
        with pytest.raises(SystemExit) as exc:
            main(["serve", *fast, *flags])
        assert exc.value.code == f"repro serve: {message}"

    def test_serve_fingerprints_are_the_same_in_process_and_sharded(self, tmp_path, capsys):
        # The CI shard-smoke trace: one '<seq> <sha256>' line per answered
        # query, and the in-process engines' answers are the shard
        # gather's, bit for bit.
        trace = ["--arrival", "uniform", "--rate", "4", "--duration", "1", "--sf", "0.2",
                 "--seed", "5", "--workload", "q32-random"]
        inproc, sharded = tmp_path / "fp-inproc.txt", tmp_path / "fp-1shard.txt"
        assert main(["serve", *trace, "--fingerprints", str(inproc)]) == 0
        assert main(["serve", "--shards", "1", *trace, "--fingerprints", str(sharded)]) == 0
        capsys.readouterr()
        lines = inproc.read_text().splitlines()
        assert [line.split()[0] for line in lines] == ["0", "1", "2"]
        assert lines == sharded.read_text().splitlines()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--disk", "--bufferpool-gb", "-1"], "repro run: --bufferpool-gb must be positive"),
            (["run", "--result-cache-mb", "nan"], "repro run: --result-cache-mb must be >= 0"),
            (["query", "Q3.2", "--bufferpool-gb", "nan"], "repro query: --bufferpool-gb must be positive"),
            (["serve", "--timeout", "nan"], "repro serve: --timeout must be positive or None"),
            (
                ["serve", "--shards", "1", "--shard-timeout", "nan"],
                "repro serve: --shard-timeout must be positive",
            ),
        ],
        ids=["run-bufferpool-negative", "run-cache-nan", "query-bufferpool-nan", "serve-timeout-nan",
             "serve-shard-timeout-nan"],
    )
    def test_bad_config_values_exit_with_one_line(self, argv, message):
        # The config refuses the value; the command names the flag.
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--sf", "0.2"])
        assert exc.value.code == message

    def test_sweep_restores_the_callers_environment(self, monkeypatch, capsys):
        # The sweep's job count, progress lines and cell timeout hold for
        # the command only: later library sweeps must not inherit them.
        names = ("REPRO_JOBS", "REPRO_PROGRESS", "REPRO_CELL_TIMEOUT")
        for name in names:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert main(["sweep", "fig2", "--timeout", "5"]) == 0
        assert "fig2" in capsys.readouterr().out
        assert {name: os.environ.get(name) for name in names} == {
            "REPRO_JOBS": "1",
            "REPRO_PROGRESS": None,
            "REPRO_CELL_TIMEOUT": None,
        }

    @pytest.mark.parametrize(
        "argv, env, message",
        [
            (["sweep", "fig2", "--timeout", "0"], {}, "repro sweep: timeout must be > 0 seconds, got 0.0"),
            (["sweep", "fig2", "--timeout", "-1"], {}, "repro sweep: timeout must be > 0 seconds, got -1.0"),
            (["sweep", "fig2", "--timeout", "nan"], {}, "repro sweep: timeout must be > 0 seconds, got nan"),
            (["sweep", "fig2", "--jobs", "0"], {}, "repro sweep: jobs must be >= 1, got 0"),
            (
                ["sweep", "fig2"],
                {"REPRO_CELL_TIMEOUT": "abc"},
                "repro sweep: REPRO_CELL_TIMEOUT='abc' is not a number",
            ),
            (
                ["sweep", "fig2"],
                {"REPRO_CELL_TIMEOUT": "0"},
                "repro sweep: timeout must be > 0 seconds, got 0.0",
            ),
        ],
        ids=[
            "timeout-0",
            "timeout-negative",
            "timeout-nan",
            "jobs-0",
            "env-timeout-not-a-number",
            "env-timeout-0",
        ],
    )
    def test_bad_sweep_settings_exit_with_one_line(self, monkeypatch, argv, env, message):
        # A sweep setting that would fail every cell, or crash the command
        # with a traceback, is refused up front instead.
        for name in ("REPRO_JOBS", "REPRO_CELL_TIMEOUT"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == message

    def test_experiment_chart_flag(self, capsys):
        rc = main(["sweep", "fig6", "--chart"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "CS(SPL)" in out
        assert "overlap" in out  # the chart legend rendered
