"""The CI tick diff (``benchmarks/tick_diff.py``) on synthetic results."""

import copy
import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("tick_diff", ROOT / "benchmarks" / "tick_diff.py")
tick_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tick_diff)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def result(**values) -> dict:
    e2e = {m["name"]: {"value": values.get(m["name"], 1.0), "unit": m["unit"]} for m in SPEC["end_to_end"]}
    return {
        "workloads": {
            w["name"]: {"workload_digest": "d", "fingerprint": "f", "end_to_end": copy.deepcopy(e2e)}
            for w in SPEC["workloads"]
        }
    }


def moved(doc: dict, **values) -> dict:
    doc = copy.deepcopy(doc)
    w = doc["workloads"]["batch-qc"]
    w["fingerprint"] = "g"
    for name, value in values.items():
        w["end_to_end"][name]["value"] = value
    return doc


def test_the_tick_metrics_are_the_simulated_ones_and_the_answer_share():
    names = [m["name"] for m in tick_diff.tick_metrics(SPEC)]
    assert "answered_ok_share" in names and "sim_latency_p95_s" in names
    assert not {"host_wall_s", "setup_s", "peak_rss_mb"} & set(names)


def test_identical_results_pass_either_way():
    base = result()
    assert tick_diff.diff(SPEC, base, base, moves_ticks=False) == []
    assert tick_diff.diff(SPEC, base, base, moves_ticks=True) == []


def test_a_moved_fingerprint_fails_only_without_the_tag(capsys):
    base = result(sim_latency_p50_s=68.9)
    head = moved(base, sim_latency_p50_s=68.9 * (1 + 1e-11))
    assert tick_diff.diff(SPEC, base, head, moves_ticks=False) != []
    assert tick_diff.diff(SPEC, base, head, moves_ticks=True) == []
    out = capsys.readouterr().out
    assert "batch-qc: fingerprint moved" in out
    assert "sim_latency_p50_s" in out and "68.9 ->" in out


@pytest.mark.parametrize(
    "values",
    [{"sim_latency_p95_s": 1.3}, {"sim_throughput_qps": 0.7}, {"answered_ok_share": 0.99}],
    ids=["latency", "throughput", "answers"],
)
def test_a_metric_worse_than_its_bound_fails_a_tagged_change(values):
    base = result()
    failures = tick_diff.diff(SPEC, base, moved(base, **values), moves_ticks=True)
    assert len(failures) == 1 and next(iter(values)) in failures[0]


def test_a_better_metric_passes_a_tagged_change():
    base = result()
    assert tick_diff.diff(SPEC, base, moved(base, sim_latency_p95_s=0.5), moves_ticks=True) == []


def test_different_inputs_fail_a_tagged_change():
    base = result()
    head = moved(base)
    head["workloads"]["batch-qc"]["workload_digest"] = "e"
    assert tick_diff.diff(SPEC, base, head, moves_ticks=True) == ["batch-qc: inputs differ (workload_digest)"]


def test_main_reads_files(tmp_path):
    base, head = tmp_path / "base.json", tmp_path / "head.json"
    base.write_text(json.dumps(result()))
    head.write_text(json.dumps(moved(result())))
    assert tick_diff.main([str(base), str(head)]) == 1
    assert tick_diff.main([str(base), str(head), "--moves-ticks"]) == 0


def rss(doc: dict, value: float) -> dict:
    """``doc`` with batch-qc's peak RSS at ``value`` (simulated results kept)."""
    doc = copy.deepcopy(doc)
    doc["workloads"]["batch-qc"]["end_to_end"]["peak_rss_mb"]["value"] = value
    return doc


@pytest.mark.parametrize("moves_ticks", [False, True])
def test_resident_memory_worse_than_its_bound_fails_either_way(moves_ticks, capsys):
    base = rss(result(), 40.0)
    failures = tick_diff.diff(SPEC, base, rss(base, 44.5), moves_ticks=moves_ticks)
    assert failures == ["batch-qc: peak_rss_mb worse than the base by 11.2% (bound 10%)"]
    assert "peak_rss_mb          40.00 -> 44.50 MB" in capsys.readouterr().out


@pytest.mark.parametrize("head", [43.9, 30.0], ids=["within-bound", "better"])
def test_resident_memory_within_its_bound_or_better_passes(head):
    base = rss(result(), 40.0)
    assert tick_diff.diff(SPEC, base, rss(base, head), moves_ticks=False) == []
