"""Smoke test of the layered benchmark (``pytest benchmarks/layers``; not
part of tier-1): ``--quick`` must report exactly the workloads and metrics
``BENCHMARK.json`` declares, with units, digests and no failed query."""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def test_quick_run_matches_benchmark_json(tmp_path):
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--quick", "--out", str(out)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    doc = json.loads(out.read_text())
    assert doc["claim"] is None
    assert list(doc["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, w in doc["workloads"].items():
        assert w["correct"] and w["failed"] == 0, name
        assert len(w["workload_digest"]) == 64 and w["workload_digest"][:16] in proc.stdout
        for group in ("end_to_end", "per_layer"):
            assert list(w[group]) == [m["name"] for m in spec[group]], (name, group)
            for m in spec[group]:
                assert w[group][m["name"]]["unit"] == m["unit"]
        assert w["end_to_end"]["answered_ok_share"]["value"] == 1.0
        trace = json.loads((HERE.parents[1] / w["trace"]).read_text())
        assert {s["name"] for s in trace["host_spans"]} >= {"rep", "setup", "run", "verify"}
        assert trace["query_spans"]
