"""Two-clock layered benchmark: one driver for the four workloads.

    python3 benchmarks/layers/bench.py --workload batch-qc --seed 42 --seconds 20 --trace 0
    python3 benchmarks/layers/bench.py --seed 42            # all workloads, timed + traced
    python3 benchmarks/layers/bench.py --quick              # 64-query smoke of the same
    python3 benchmarks/layers/bench.py --compare A.json B.json

The first form is the contract ``BENCHMARK.json`` describes: it prints every
metric by name with its unit and, as its last line, one JSON object.  With
``--trace 0`` the metrics are the end-to-end ones, the host metrics taken
as minima over fresh-process reps run back to back for ``--seconds``; with
``--trace 1`` one rep runs under ``cProfile`` and the metrics are the
per-layer ones.  See README.md for what each metric means and why.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SPEC_PATH = HERE.parents[1] / "BENCHMARK.json"
OUT = HERE / "out"

#: End-to-end metrics on the host clock: noisy, so minima over reps.  Every
#: other end-to-end metric is simulated and must repeat exactly.
HOST_METRICS = ("setup_s", "host_wall_s", "peak_rss_mb")
MIN_REPS = 2
REP_TIMEOUT_S = 80


def run_rep(workload: str, seed: int, quick: bool, verify: bool, trace_path: str = "-") -> dict:
    """One rep in a fresh interpreter; its last stdout line is the result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), workload, str(seed), str(int(quick)), str(int(verify)), trace_path],
        env=dict(os.environ, PYTHONHASHSEED="0"),
        stdout=subprocess.PIPE,
        text=True,
        timeout=REP_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"benchmarks/layers: rep of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _same_run(a: dict, b: dict) -> bool:
    """Did two reps do the same simulated work, checkpoint for checkpoint?"""
    same = all(a[k] == b[k] for k in ("workload_digest", "fingerprint", "sim", "arrived", "completed"))
    return same and len(a["slices_s"]) == len(b["slices_s"])


def timed(workload: str, seed: int, seconds: float, min_reps: int, quick: bool) -> dict:
    """Reps back to back, strictly one at a time (the sandbox has 2 cores
    and gives less of each when both are busy), until ``seconds`` have passed."""
    reps: list[dict] = []
    t0 = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - t0 < seconds:
        reps.append(run_rep(workload, seed, quick, verify=not reps))
    first = reps[0]
    repeatable = all(_same_run(first, r) for r in reps)
    metrics = {name: min(r[name] for r in reps) for name in HOST_METRICS}
    if repeatable:
        # Every rep does identical work between two checkpoints, and neighbour
        # noise comes in bursts shorter than a rep: the sum of the fastest
        # observation of each slice repeats where the fastest whole rep does not.
        metrics["host_wall_s"] = sum(min(col) for col in zip(*(r["slices_s"] for r in reps)))
    metrics.update(first["sim"])
    metrics["answered_ok_share"] = 1.0 - first["failed"] / first["arrived"]
    return {
        "correct": first["failed"] == 0 and repeatable,
        "attempted": first["arrived"],
        "failed": first["failed"],
        "metrics": metrics,
        "reps": {name: [r[name] for r in reps] for name in HOST_METRICS},
        "workload_digest": first["workload_digest"],
        "fingerprint": first["fingerprint"],
        "fastest_rep": min(reps, key=lambda r: r["host_wall_s"]),
    }


def traced(workload: str, seed: int, quick: bool, plain: dict | None = None) -> dict:
    """One profiled rep, set against an untraced one (``plain``, or a fresh
    one); the per-layer metrics are the profiled rep's."""
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"{workload}.trace.json"
    if plain is None:
        plain = run_rep(workload, seed, quick, verify=False)
    prof = run_rep(workload, seed, quick, True, str(trace_path))
    metrics = prof["per_layer"]
    metrics["trace_overhead_ratio"] = prof["host_wall_s"] / plain["host_wall_s"]
    return {
        # The profiler must not move a simulated tick or an answer.
        "correct": prof["failed"] == 0 and _same_run(plain, prof),
        "attempted": prof["arrived"],
        "failed": prof["failed"],
        "metrics": metrics,
        "workload_digest": prof["workload_digest"],
        "fingerprint": prof["fingerprint"],
        "trace": str(trace_path.relative_to(HERE.parents[1])),
    }


def report(result: dict, declared: list[dict], title: str) -> dict:
    """Print every declared metric with its unit; return the contract's
    ``metrics`` object.  Declared and measured names must agree exactly."""
    names = [m["name"] for m in declared]
    measured = result["metrics"]
    if set(names) != set(measured):
        raise SystemExit(
            f"benchmarks/layers: BENCHMARK.json and the harness disagree on {title} metrics: "
            f"{sorted(set(names) ^ set(measured))}"
        )
    print(f"== {title}  digest {result['workload_digest'][:16]}  fingerprint {result['fingerprint'][:16]}")
    out = {}
    for m in declared:
        value = measured[m["name"]]
        line = f"{m['name']:<34} {value:>16.6f} {m['unit']}"
        reps = result.get("reps", {}).get(m["name"])
        if reps and len(reps) > 1:
            q1, med, q3 = statistics.quantiles(reps, n=4)
            line += f"   ({len(reps)} reps: min {min(reps):.4f}, median {med:.4f}, quartiles {q1:.4f}..{q3:.4f})"
        print(line)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def run_all(spec: dict, seed: int, seconds: float, min_reps: int, quick: bool, out_path: pathlib.Path) -> bool:
    doc = {"seed": seed, "quick": quick, "claim": None, "generator_lateness_s": 0.0, "workloads": {}}
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        t = timed(name, seed, seconds, min_reps, quick)
        p = traced(name, seed, quick, plain=t["fastest_rep"])
        e2e = report(t, spec["end_to_end"], f"{name} end-to-end")
        for metric, reps in t["reps"].items():
            e2e[metric]["reps"] = reps
        layers = report(p, spec["per_layer"], f"{name} per-layer (traced)")
        correct = t["correct"] and p["correct"] and t["fingerprint"] == p["fingerprint"]
        ok = ok and correct
        doc["workloads"][name] = {
            "workload_digest": t["workload_digest"],
            "fingerprint": t["fingerprint"],
            "correct": correct,
            "attempted": t["attempted"],
            "failed": max(t["failed"], p["failed"]),
            "end_to_end": e2e,
            "per_layer": layers,
            "trace": p["trace"],
        }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=1)
    print(f"wrote {out_path}")
    return ok


def _verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """What the worsening of ``new`` against ``base``, as a share of
    ``base``, amounts to given both sides' rep ranges."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new["value"] - base["value"]) / base["value"]
    a, b = base.get("reps", [base["value"]]), new.get("reps", [new["value"]])
    disjoint = max(a) < min(b) or max(b) < min(a)
    noise = max((max(r) - min(r)) / min(r) for r in (a, b))
    if abs(worse_by) > bound:
        if not disjoint:
            return "unresolved"
        return "regressed" if worse_by > 0 else "improved"
    return "unchanged" if noise <= bound else "unresolved"


def compare(spec: dict, base_path: str, new_path: str) -> bool:
    """One row per (workload, end-to-end metric); False if any regressed
    or the two sides did not run the same inputs."""
    with open(base_path) as fa, open(new_path) as fb:
        base, new = json.load(fa), json.load(fb)
    ok = True
    print(f"{'workload':<14} {'metric':<20} {'base':>12} {'new':>12} {'new/base':>9} {'bound':>6}  verdict")
    for w in spec["workloads"]:
        a, b = base["workloads"][w["name"]], new["workloads"][w["name"]]
        if a["workload_digest"] != b["workload_digest"]:
            print(f"{w['name']:<14} inputs differ (workload_digest): not comparable")
            ok = False
            continue
        for m in spec["end_to_end"]:
            x, y = a["end_to_end"][m["name"]], b["end_to_end"][m["name"]]
            verdict = _verdict(x, y, m["better"], m["bound"])
            ok = ok and verdict != "regressed"
            print(
                f"{w['name']:<14} {m['name']:<20} {x['value']:>12.4f} {y['value']:>12.4f} "
                f"{y['value'] / x['value']:>9.4f} {m['bound']:>6.3f}  {verdict}"
            )
        same = a["fingerprint"] == b["fingerprint"]
        print(f"{w['name']:<14} result fingerprint {'identical' if same else 'DIFFERS'}")
    return ok


def main() -> int:
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="64-query workloads, 1 rep")
    ap.add_argument("--out", type=pathlib.Path, default=OUT / "result.json")
    ap.add_argument("--compare", nargs=2, metavar=("BASE.json", "NEW.json"))
    args = ap.parse_args()

    if args.compare:
        return 0 if compare(spec, *args.compare) else 1
    min_reps = MIN_REPS
    if args.quick:
        args.seconds, min_reps = 0.0, 1
    if args.workload is None:
        return 0 if run_all(spec, args.seed, args.seconds, min_reps, args.quick, args.out) else 1
    if args.trace:
        result = traced(args.workload, args.seed, args.quick)
        metrics = report(result, spec["per_layer"], f"{args.workload} per-layer (traced)")
    else:
        result = timed(args.workload, args.seed, args.seconds, min_reps, args.quick)
        metrics = report(result, spec["end_to_end"], f"{args.workload} end-to-end")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed")} | {"metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
