#!/usr/bin/env python
"""MPL sweep: shared join arrangements vs per-query build-side hash tables.

Written to ``BENCH_arrangements.json`` at the repo root: the isolated
build-side indexing cost at each multiprogramming level.  N concurrent SSB
Q3.2-shaped queries each need a single-match index over their (filtered)
dimension build inputs.  A private build pays a full dict build plus
single-match flatten *per query* (what the join stage still does when the
build side is not a unique base-table scan); the shared path pays one
refcounted :class:`~repro.storage.arrangements.Arrangement` build per
(table, key) and memoized view seeds/fetches thereafter.  The crossover is
the story: at MPL 1 the arrangement's up-front index build can lose, and by
MPL >= 8 sharing wins outright -- one build amortized over every concurrent
query.  Build/hit counters come from the real cache, and the two paths'
views are asserted equal.

Usage::

    python benchmarks/bench_arrangements.py          # default sweep
    python benchmarks/bench_arrangements.py --fast   # CI smoke

Exits non-zero only on crash or on a view mismatch between the two paths;
speedup thresholds are warn-only."""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.data import generate_ssb
from repro.query.expr import Between, Cmp
from repro.storage.arrangements import ARRANGEMENTS, single_match_table

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_PATH = ROOT / "BENCH_arrangements.json"

#: Q3.2-shaped build sides: (dim table, key column, predicate pool).
#: Concurrent queries cycle through the pool -- the Figure 14/15
#: similarity knob (distinct plans, repeated across the batch).
NATIONS = ("CHINA", "FRANCE", "RUSSIA", "UNITED STATES")
DIM_BUILDS = [
    ("customer", "c_custkey", [Cmp("=", "c_nation", n) for n in NATIONS]),
    ("supplier", "s_suppkey", [Cmp("=", "s_nation", n) for n in NATIONS]),
    ("date", "d_datekey", [Between("d_year", 1992 + i, 1994 + i) for i in range(4)]),
]


def _timed(fn, reps: int):
    times, out = [], None
    for _ in range(max(reps, 1)):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out


def bench_build_path(ds, mpl: int, reps: int) -> dict:
    """Index MPL concurrent queries' build sides, private vs shared.

    Both modes receive the same pre-filtered build rows (the engine
    drains and charges that scan identically either way); what is timed
    is exactly what differs in the join stage: per-query dict build +
    single-match flatten vs arrangement acquire + memoized view."""
    inputs = []  # (table, key_column, predicate, selected_rows) per query*dim
    for q in range(mpl):
        for name, key, pool in DIM_BUILDS:
            table = ds.tables[name]
            predicate = pool[q % len(pool)]
            pred = predicate.compile(table.schema)
            selected = [r for r in table.iter_rows() if pred(r)]
            inputs.append((table, key, predicate, selected))

    def private():
        views = []
        for table, key, _, selected in inputs:
            key_idx = table.schema.index(key)
            ht: dict = {}
            setdefault = ht.setdefault
            for r in selected:
                setdefault(r[key_idx], []).append(r)
            views.append(single_match_table(ht))
        return views

    def shared():
        ARRANGEMENTS.clear()
        views = []
        for table, key, predicate, selected in inputs:
            arr = ARRANGEMENTS.acquire(table, key)
            views.append(arr.offer_single_view(predicate, selected))
            ARRANGEMENTS.release(arr)
        return views

    private_s, private_views = _timed(private, reps)
    stats0 = ARRANGEMENTS.stats()
    shared_s, shared_views = _timed(shared, reps)
    stats1 = ARRANGEMENTS.stats()
    if private_views != shared_views:
        raise SystemExit(
            f"BUILD VIEWS DIVERGED at MPL {mpl}: the shared arrangement "
            "produced a different single-match view than a private build"
        )
    n_dims = len(DIM_BUILDS)
    return {
        "mpl": mpl,
        "private_s": round(private_s, 4),
        "shared_s": round(shared_s, 4),
        "speedup": round(private_s / shared_s, 2) if shared_s else None,
        # per timed run (the cache is cleared at each one's start)
        "builds": (stats1["builds"] - stats0["builds"]) // max(reps, 1),
        "hits": (stats1["hits"] - stats0["hits"]) // max(reps, 1),
        "indexed_inputs": mpl * n_dims,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--fast", action="store_true",
                        help="small sweep for CI smoke (minutes -> seconds)")
    parser.add_argument("--out", type=pathlib.Path, default=OUT_PATH,
                        help=f"output path (default {OUT_PATH.name} at repo root)")
    parser.add_argument("--reps", type=int, default=None,
                        help="repetitions per timing (best-of-N; default 5, "
                             "2 with --fast)")
    args = parser.parse_args(argv)
    reps = args.reps if args.reps is not None else (2 if args.fast else 5)
    mpls, sf = ((1, 4, 8), 0.5) if args.fast else ((1, 2, 4, 8, 16), 1.0)
    seed = 42

    ds = generate_ssb(sf, seed)
    points: dict = {}
    speedup: dict = {}
    for mpl in mpls:
        cell = bench_build_path(ds, mpl, reps)
        key = f"build/mpl{mpl}"
        points[key] = cell
        speedup[key] = cell["speedup"]
        print(f"  {key:<12} private {cell['private_s']:>9}s  "
              f"shared {cell['shared_s']:>9}s  speedup {cell['speedup']}x  "
              f"(builds {cell['builds']}, hits {cell['hits']})")

    report = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "mode": "fast" if args.fast else "default",
            "cpus": os.cpu_count(),
            "reps": reps,
        },
        "sf": sf,
        "mpls": list(mpls),
        "points": points,
        "speedup": speedup,
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")

    slow = [k for k, v in speedup.items()
            if int(k.rsplit("mpl", 1)[1]) >= 8 and (v or 0) <= 1.0]
    if slow:
        # Warn-only: host load varies.  CI fails only on crash or on a
        # view mismatch.
        print(f"WARNING: no shared-arrangement win at high MPL for: "
              f"{', '.join(slow)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
