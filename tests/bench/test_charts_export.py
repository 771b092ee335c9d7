"""Tests for ASCII charts and result export."""

import json

import pytest

from repro.bench.charts import render_chart
from repro.bench.export import experiment_to_json, run_result_to_dict
from repro.bench.experiments import ExperimentResult
from repro.bench.runner import RunResult


class TestCharts:
    def test_basic_render(self):
        text = render_chart(
            "t", [1, 2, 4], {"alpha": [1.0, 2.0, 4.0], "beta": [4.0, 2.0, 1.0]}
        )
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "A=alpha" in text and "B=beta" in text
        # Extremes land on the top and bottom rows.
        assert "A" in lines[-4] or "B" in lines[-4]

    def test_marker_collision_resolved(self):
        text = render_chart("t", [1, 2], {"aaa": [1, 2], "abc": [2, 1]})
        assert "A=aaa" in text
        # Second series falls back to another letter.
        assert "B=abc" in text or "C=abc" in text

    def test_overlap_marker(self):
        text = render_chart("t", [1], {"x": [5.0], "y": [5.0]}, log_y=False)
        assert "*" in text

    def test_linear_scale_flat_series(self):
        text = render_chart("t", [1, 2], {"x": [3.0, 3.0]}, log_y=False)
        assert "X" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            render_chart("t", [1], {})
        with pytest.raises(ValueError):
            render_chart("t", [1, 2], {"x": [1.0]})

    def test_x_labels_present(self):
        text = render_chart("t", [1, 64, 256], {"x": [1.0, 2.0, 3.0]})
        assert "256" in text.splitlines()[-2]


def make_run_result():
    return RunResult(
        config_name="QPipe-SP",
        n_queries=2,
        response_times=[1.0, 3.0],
        sim_seconds=3.5,
        avg_cores_used=4.2,
        avg_read_mb_s=10.0,
        cpu_breakdown={"hashing": 1.0, "joins": 2.0},
        sharing={"tablescan": 3},
        admission_seconds=0.0,
    )


class TestExport:
    def test_run_result_to_dict(self):
        d = run_result_to_dict(make_run_result())
        assert d["config"] == "QPipe-SP"
        assert d["mean_response_s"] == pytest.approx(2.0)
        assert d["sharing"] == {"tablescan": 3}

    def test_experiment_to_json_roundtrip(self):
        r = ExperimentResult(
            "figX",
            ["table"],
            {"xs": [1, 2], "rt": {"a": [1.0, 2.0]}, "cells": {"a": [make_run_result()]}},
        )
        parsed = json.loads(experiment_to_json(r))
        assert parsed["experiment"] == "figX"
        assert parsed["data"]["rt"]["a"] == [1.0, 2.0]
        assert parsed["data"]["cells"]["a"][0]["config"] == "QPipe-SP"
