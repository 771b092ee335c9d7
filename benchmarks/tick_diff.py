"""Tick diff: two ``bench.py --quick --out`` results, base commit -> head.

    python3 benchmarks/tick_diff.py BASE.json HEAD.json
    python3 benchmarks/tick_diff.py BASE.json HEAD.json --moves-ticks

Both forms fail if a workload's inputs (``workload_digest``) differ from the
base's.  The plain form is the tick-neutrality gate: every workload's
simulated results (``fingerprint``) must equal the base's too.  With
``--moves-ticks`` a fingerprint may move; per workload the script prints
whether it did, and each simulated end-to-end metric (``sim_*``) and
``answered_ok_share`` base -> head with its relative change, and fails only
if one is worse than the base by more than its ``BENCHMARK.json`` bound.

Both forms are also the resident-memory gate: per workload the script
prints the quick run's ``peak_rss_mb`` base -> head and fails if head is
higher than base by more than that metric's ``BENCHMARK.json`` bound.
Quick-mode RSS repeats within about 0.3 MB across runs of one commit on
one machine, so the gate reads a real change, not noise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

SPEC_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def tick_metrics(spec: dict) -> list[dict]:
    """The declared end-to-end metrics a simulated-time change can move."""
    return [m for m in spec["end_to_end"] if m["name"].startswith("sim_") or m["name"] == "answered_ok_share"]


def diff(spec: dict, base: dict, head: dict, moves_ticks: bool) -> list[str]:
    """Print the per-workload diff; return the reasons to fail (none = pass)."""
    a, b = base["workloads"], head["workloads"]
    rss = next(m for m in spec["end_to_end"] if m["name"] == "peak_rss_mb")
    failures = []
    if a.keys() != b.keys():
        failures.append(f"workloads differ: {sorted(a)} vs {sorted(b)}")
    for name in sorted(a.keys() & b.keys()):
        x, y = a[name], b[name]
        if x["workload_digest"] != y["workload_digest"]:
            failures.append(f"{name}: inputs differ (workload_digest)")
            continue
        moved = x["fingerprint"] != y["fingerprint"]
        print(f"{name}: fingerprint {'moved' if moved else 'unchanged'}")
        old, new = x["end_to_end"][rss["name"]]["value"], y["end_to_end"][rss["name"]]["value"]
        change = (new - old) / old  # lower is better
        print(f"  {rss['name']:<20} {old:.2f} -> {new:.2f} MB  ({change:+.1%})")
        if change > rss["bound"]:
            failures.append(f"{name}: {rss['name']} worse than the base by {change:.1%} (bound {rss['bound']:.0%})")
        if not moves_ticks:
            if moved:
                failures.append(f"{name}: simulated results moved against the base commit")
            continue
        for m in tick_metrics(spec):
            old, new = x["end_to_end"][m["name"]]["value"], y["end_to_end"][m["name"]]["value"]
            change = (new - old) / old
            worse_by = change if m["better"] == "lower" else -change
            print(f"  {m['name']:<20} {old:.12g} -> {new:.12g}  ({change:+.3e})")
            if worse_by > m["bound"]:
                failures.append(f"{name}: {m['name']} worse than the base by {worse_by:.3%} (bound {m['bound']:.1%})")
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--moves-ticks", action="store_true", help="the change means to move simulated time")
    args = ap.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    docs = [json.loads(pathlib.Path(p).read_text()) for p in (args.base, args.head)]
    failures = diff(spec, *docs, args.moves_ticks)
    for reason in failures:
        print(f"FAIL {reason}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
