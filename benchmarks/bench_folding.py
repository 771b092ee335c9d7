"""Similarity sweep: subsumption-based query folding vs exact-match sharing.

Query folding (``EngineConfig.query_folding``) pays off exactly where
exact-signature sharing misses: queries that *overlap* without being
identical.  The sweep serves the ``folding:<overlap>`` workload -- an
``overlap`` fraction of queries narrows one of four broad Q3.2 templates
to a random year sub-range (sub-ranges rarely coincide, so exact matching
almost never fires on them) -- with folding off and on, both modes
running the same 64 MB result cache, and asserts:

* at 0% overlap folding is free: p95 within +/-3% of fold-off (admission
  probes the lattice and finds nothing; no residuals are built);
* at 50% overlap folding cuts p95 by >= 1.3x: the narrowings attach to
  in-flight broad hosts or replay subsuming cached results through a
  residual filter instead of recomputing.

At 100% overlap the two modes converge again -- the highly recurrent
stream repeats exact sub-ranges often enough that plain exact-match
sharing (WoP + cache) already serves the fold-off baseline.  Folding's
win lives in the partial-overlap middle, which is the paper's Figure
14/15 similarity-knob story.

A second check re-runs the same workload's query specs directly on
QPipe-SP and CJOIN-SP engines, fold-off vs fold-on, and asserts the
per-query simulated results bit-identical (sha256 over row reprs) --
the golden-determinism contract extended to the fold plane.
"""

import dataclasses

from repro.bench.reporting import format_table
from repro.data import generate_ssb
from repro.engine.config import CJOIN_SP, QPIPE_SP
from repro.engine.qpipe import QPipeEngine
from repro.server import serve
from repro.server.service import fingerprint_rows, folding_job_factory
from repro.sim.engine import Simulator
from repro.sim.machine import PAPER_MACHINE
from repro.storage.manager import StorageConfig, StorageManager

FAST_OVERLAPS = (0.0, 0.5)
FULL_OVERLAPS = (0.0, 0.25, 0.5, 0.75, 1.0)
CACHE_MB = 64.0
SF = 0.5
DATA_SEED = 23
SERVE_SEED = 1
#: past the query-centric path's capacity, so queueing makes folded-away
#: work visible in the tail (an idle system hides the sharing win)
ARRIVAL_RATE = 16.0

ENGINES = {"QPipe-SP": QPIPE_SP, "CJOIN-SP": CJOIN_SP}


def _storage() -> StorageConfig:
    # Cache ON in *both* modes: the sweep isolates what subsumption adds
    # on top of exact-match sharing, not what a cache adds over nothing.
    return StorageConfig(
        resident="memory", result_cache_bytes=CACHE_MB * 1024 * 1024
    )


# ----------------------------------------------------------------------
# Section 1: the served similarity sweep.
# ----------------------------------------------------------------------
def sweep(full: bool = False):
    overlaps = FULL_OVERLAPS if full else FAST_OVERLAPS
    duration = 10.0 if full else 5.0
    tables = generate_ssb(SF, seed=DATA_SEED).tables
    cells = {}
    for overlap in overlaps:
        for fold in (False, True):
            cells[(overlap, fold)] = serve(
                tables,
                policy="adaptive",
                arrival="poisson",
                rate=ARRIVAL_RATE,
                duration=duration,
                seed=SERVE_SEED,
                workload=f"folding:{overlap}",
                storage_config=_storage(),
                qc_config=dataclasses.replace(QPIPE_SP, query_folding=fold),
                gqp_config=dataclasses.replace(CJOIN_SP, query_folding=fold),
            )
    return overlaps, cells


def p95(report) -> float:
    return report.metrics.latency_percentiles()["p95"]


def ratio(cells, overlap) -> float:
    """p95(fold-off) / p95(fold-on) at ``overlap`` (>1 means folding wins)."""
    on = p95(cells[(overlap, True)])
    return p95(cells[(overlap, False)]) / on if on > 0 else 1.0


def fold_counters(report) -> dict:
    """Every fold-plane counter the run bumped (attach/cache-hit/cjoin)."""
    return {
        k: v for k, v in sorted(report.metrics.counts.items()) if "fold" in k
    }


def render(overlaps, cells) -> str:
    rows = []
    for overlap in overlaps:
        off, on = cells[(overlap, False)], cells[(overlap, True)]
        counters = fold_counters(on)
        attaches = sum(
            v for k, v in counters.items()
            if k.startswith(("fold_attach:", "fold_cache_hit:"))
        )
        rows.append(
            [
                f"{overlap:.0%}",
                on.metrics.completed,
                f"{p95(off):.3f}",
                f"{p95(on):.3f}",
                f"{ratio(cells, overlap):.2f}x",
                attaches,
                on.metrics.cache_stats.get("fold_hits", 0),
                on.metrics.cache_stats.get("hits", 0),
            ]
        )
    return format_table(
        f"folding sweep: folding:<overlap>, {CACHE_MB:.0f} MB cache both modes",
        ["overlap", "done", "p95 off", "p95 on", "ratio", "folds",
         "cache-fold", "cache-exact"],
        rows,
        note="ratio = p95(fold-off)/p95(fold-on); folds = attach + cache-fold hits",
    )


def check(cells) -> None:
    r0 = ratio(cells, 0.0)
    assert 0.97 <= r0 <= 1.03, (
        f"folding not free at 0% overlap: p95 ratio {r0:.3f}x (need 0.97-1.03x)"
    )
    half = ratio(cells, 0.5)
    assert half >= 1.3, (
        f"only {half:.2f}x p95 improvement at 50% overlap (need >= 1.3x)"
    )
    # The fold-on run actually exercised the lattice end to end.
    counters = fold_counters(cells[(0.5, True)])
    assert counters, "no fold counters bumped at 50% overlap with folding on"
    off_counters = fold_counters(cells[(0.5, False)])
    assert not off_counters, (
        f"fold counters bumped with folding OFF: {off_counters}"
    )


# ----------------------------------------------------------------------
# Section 2: per-query result identity, fold-off vs fold-on.
# ----------------------------------------------------------------------
def check_results_identical(n: int) -> None:
    """Folding must not change a single simulated result row: run the
    same ``folding:0.6`` specs through both modes on one engine each and
    compare per-query sha256 fingerprints."""
    dataset = generate_ssb(SF, seed=DATA_SEED)
    make = folding_job_factory(SERVE_SEED, 0.6)
    specs = [make(k).spec for k in range(n)]
    for name, config in ENGINES.items():
        per_mode = {}
        for fold in (False, True):
            sim = Simulator(PAPER_MACHINE)
            storage = StorageManager(sim, sim.cost, dataset.tables, _storage())
            engine = QPipeEngine(
                sim, storage, dataclasses.replace(config, query_folding=fold)
            )
            handles = [engine.submit(spec) for spec in specs]
            sim.run()
            per_mode[fold] = [fingerprint_rows(h.results) for h in handles]
        for k, (a, b) in enumerate(zip(per_mode[False], per_mode[True])):
            assert a == b, (
                f"{name} query {k} results diverge under folding "
                f"({a[:16]} != {b[:16]})"
            )


def bench_folding(once, save_report, full_mode):
    """pytest-benchmark entry point (see conftest.py)."""
    overlaps, cells = once(sweep, full=full_mode)
    save_report("folding", render(overlaps, cells))
    check(cells)
    check_results_identical(8)
