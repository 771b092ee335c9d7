#!/usr/bin/env python
"""Perf-trajectory collation: every committed ``BENCH_*.json`` in one table.

Each optimization PR commits its own benchmark artifact (shard-scaling
curves, fold sweeps, ...) with its own shape.
This harness reads them all and flattens the headline numbers into one
diffable result table -- the offline result-table pattern from
``MBradbury__slp`` noted in ROADMAP.md -- so PR-over-PR speedups show up
as one-line diffs of ``BENCH_trajectory.json`` instead of requiring a
per-artifact archaeology pass.

Rows are ``(artifact, row, metric, value)`` sorted lexicographically; the
collation derives everything from the committed artifacts (no simulation,
no wall clock), so regenerating it is free and byte-stable until an input
artifact changes.

Usage::

    python benchmarks/trajectory.py            # collate + write artifact
    python benchmarks/trajectory.py --check    # verify committed file is current
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.bench.reporting import format_table

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_PATH = ROOT / "BENCH_trajectory.json"


def _row(artifact: str, row: str, metric: str, value) -> dict:
    if isinstance(value, float):
        value = round(value, 4)
    return {"artifact": artifact, "row": row, "metric": metric, "value": value}


def _collate_shard_scaling(doc: dict) -> list[dict]:
    rows = []
    for shards, speedup in sorted(
        doc.get("speedup", {}).items(), key=lambda kv: int(kv[0])
    ):
        rows.append(_row("shard_scaling", f"{shards} shards", "speedup", speedup))
    points = doc.get("points", {})
    if points:
        widest = max(points, key=int)
        point = points[widest]
        rows.append(
            _row("shard_scaling", f"{widest} shards", "throughput_qps",
                 point["throughput_qps"])
        )
        if "prewarm_scatter_s" in point:
            rows.append(
                _row("shard_scaling", f"{widest} shards", "prewarm_scatter_s",
                     point["prewarm_scatter_s"])
            )
    return rows


def _collate_folding(doc: dict) -> list[dict]:
    rows = []
    for overlap, cell in sorted(doc.get("sweep", {}).items()):
        rows.append(_row("folding", f"overlap {overlap}", "p95_ratio",
                         cell["ratio"]))
    best = max(doc.get("sweep", {}).values(),
               key=lambda c: c["ratio"], default=None)
    if best is not None:
        folds = sum(
            v for k, v in best.get("fold_counters", {}).items()
            if k.startswith(("fold_attach:", "fold_cache_hit:"))
        )
        rows.append(_row("folding", "best overlap", "fold_attaches", folds))
        rows.append(_row("folding", "best overlap", "cache_fold_hits",
                         best.get("cache_fold_hits", 0)))
    return rows


#: One collator per known artifact stem; unknown BENCH_*.json files get a
#: generic pass that lifts any top-level numeric "speedup*" keys, so a new
#: benchmark appears in the trajectory before anyone teaches this file its
#: shape.
COLLATORS = {
    "BENCH_shard_scaling": _collate_shard_scaling,
    "BENCH_folding": _collate_folding,
}


def _collate_generic(stem: str, doc: dict) -> list[dict]:
    rows = []
    if not isinstance(doc, dict):
        return rows
    for key, value in sorted(doc.items()):
        if key.startswith("speedup") and isinstance(value, (int, float)):
            rows.append(_row(stem, key, "speedup", value))
        elif key.startswith("speedup") and isinstance(value, dict):
            for sub, v in sorted(value.items()):
                if isinstance(v, (int, float)):
                    rows.append(_row(stem, sub, key, v))
    return rows


def collate(root: pathlib.Path = ROOT) -> dict:
    """Read every ``BENCH_*.json`` under ``root`` (except the trajectory
    itself) and flatten headline numbers into one sorted row list."""
    rows: list[dict] = []
    sources = []
    for path in sorted(root.glob("BENCH_*.json")):
        if path.name == OUT_PATH.name:
            continue
        doc = json.loads(path.read_text())
        stem = path.stem
        collator = COLLATORS.get(stem)
        if collator is not None:
            rows.extend(collator(doc))
        else:
            rows.extend(_collate_generic(stem.removeprefix("BENCH_"), doc))
        sources.append(path.name)
    rows.sort(key=lambda r: (r["artifact"], r["row"], r["metric"]))
    return {"sources": sources, "rows": rows}


def render(trajectory: dict) -> str:
    return format_table(
        "perf trajectory: headline rows from every committed BENCH_*.json",
        ["artifact", "row", "metric", "value"],
        [[r["artifact"], r["row"], r["metric"], r["value"]]
         for r in trajectory["rows"]],
        note=f"sources: {', '.join(trajectory['sources'])}",
    )


def _dump(trajectory: dict) -> str:
    return json.dumps(trajectory, indent=1, sort_keys=True) + "\n"


def bench_trajectory(once, save_report, full_mode):
    """pytest-benchmark entry point (see conftest.py): collation only."""
    trajectory = once(collate)
    save_report("trajectory", render(trajectory))
    assert trajectory["rows"], "no BENCH_*.json artifacts found to collate"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--check", action="store_true",
                        help="fail if the committed artifact is stale")
    parser.add_argument("--out", type=pathlib.Path, default=OUT_PATH,
                        help=f"artifact path (default {OUT_PATH.name} at repo root)")
    args = parser.parse_args(argv)

    trajectory = collate()
    print(render(trajectory))
    if not trajectory["rows"]:
        print("no BENCH_*.json artifacts found", file=sys.stderr)
        return 1
    if args.check:
        committed = args.out.read_text() if args.out.exists() else ""
        if committed != _dump(trajectory):
            print(f"{args.out.name} is stale; rerun benchmarks/trajectory.py",
                  file=sys.stderr)
            return 1
        print(f"{args.out.name} is current")
        return 0
    args.out.write_text(_dump(trajectory))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
