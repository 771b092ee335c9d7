"""The four workloads, and their inputs as explicit lists made from a seed.

A workload is plain data: which front end runs it, at what scale, under
which arrival schedule and query mix.  :func:`materialise` turns one into
the ``(arrival_time, spec)`` list the program receives -- the program never
sees the seed -- plus a sha256 digest of that list, so two result sets can
be told to have run the same inputs.

Sizes are set by the driver's time cap (about 37 s per invocation, set-up
and several reps included), not by the program: every workload completes at
least 200 queries, so p95 has ten samples beyond it, and one rep's run
phase takes 3-6 s on a 2-core sandbox.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass

import adapters

#: SSB's date dimension spans these years (Q3.2's year-range predicate).
YEAR_LO, YEAR_HI = 1992, 1998

#: Like the database (``adapters.DATA_SEED``), the arrival schedule of the
#: open-loop workloads does not depend on ``--seed``: one Poisson draw per
#: workload.  A fresh draw per seed moves the arrival count per window
#: by ~7% at n = 200 and flips the adaptive router between its two regimes,
#: which would swamp every bound when runs with different seeds are compared.
ARRIVAL_SEED = 42

QUICK_QUERIES = 64
QUICK_MAX_SF = 3.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: which adapter runs it: "batch" | "serve" | "sharded"
    kind: str
    n_queries: int
    sf: float
    #: "qpipe-sp" | "cjoin-sp" (batch engine, shard worker engine); the
    #: serve front end routes between both
    engine: str
    #: "q32-random" | "q32-reuse" | "ssb-mix"
    mix: str
    #: open-loop Poisson rate in queries per simulated second; 0 = one
    #: batch with a fixed submit stagger
    rate_qps: float
    #: a query completing later than this after its arrival misses the SLO
    latency_limit_s: float
    #: reps mark the host clock at these steps of the run -- simulated
    #: seconds, or arrivals on the shard tier whose clock is not a simulator
    #: -- chosen to cut a run into 100-220 slices of identical work, short
    #: enough (15-50 ms) to fall between two bursts of neighbour noise
    checkpoint_every: float
    disk_resident: bool = False
    #: mechanisms that fire on every seed here, so their counters must be
    #: non-zero: a counter missing where its mechanism runs is a renamed
    #: counter, not a zero.  Keys are the ones adapters.py asks about.
    exercises: frozenset[str] = frozenset()


#: Per-query dispatch stagger of a batch (paper section 5.2; the value
#: ``repro.bench.run_batch`` uses).
BATCH_STAGGER_S = 0.004

#: Share of the serve-reuse stream that narrows or re-issues a template.
REUSE_SHARE = 0.4
REUSE_TEMPLATES = 4
#: One in four reuse draws re-issues the broad template itself, so hosts
#: and cache entries exist for the narrowings to fold into.
REISSUE_SHARE = 0.25

WORKLOADS = (
    Workload(
        name="batch-qc",
        why="Query-centric high-concurrency batch (Fig. 10): host time is sim+engine, "
        "one arrangement build amortised over many probes; gqp/cache/server/shard idle.",
        kind="batch",
        n_queries=208,
        sf=5.0,
        engine="qpipe-sp",
        mix="q32-random",
        rate_qps=0.0,
        latency_limit_s=120.0,
        checkpoint_every=0.5,
        exercises=frozenset({"engine.scan", "engine.join", "storage"}),
    ),
    Workload(
        name="batch-gqp",
        why="Large-SF disk-resident GQP batch (Fig. 13): query kernels + sim + gqp dominate, "
        "engine is small; the only workload driving sim.iodev and the buffer pool.",
        kind="batch",
        n_queries=384,
        sf=30.0,
        engine="cjoin-sp",
        mix="q32-random",
        rate_qps=0.0,
        latency_limit_s=400.0,
        checkpoint_every=2.0,
        disk_resident=True,
        exercises=frozenset({"gqp", "storage", "storage.io"}),
    ),
    Workload(
        name="serve-reuse",
        why="Open-loop service with a result cache smaller than the working set: 40% of the "
        "stream can read it (exact+fold hits), the rest only fills and evicts; routes to both engines.",
        kind="serve",
        n_queries=320,
        sf=10.0,
        engine="both",
        mix="q32-reuse",
        rate_qps=2.0,
        latency_limit_s=60.0,
        checkpoint_every=1.25,
        exercises=frozenset({"engine.scan", "gqp", "cache", "storage"}),
    ),
    Workload(
        name="serve-sharded",
        why="Shard tier, one worker process at MPL 1 (a fresh simulator per query): WoP, cache and "
        "fold are bypassed; host time is pipe wait + worker CPU. Sharing optimisations: no change.",
        kind="sharded",
        n_queries=208,
        sf=1.5,
        engine="cjoin-sp",
        mix="ssb-mix",
        rate_qps=0.2,
        latency_limit_s=30.0,
        checkpoint_every=2,
        exercises=frozenset({"shard", "parallel"}),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Stream:
    """The generated inputs of one run."""

    arrivals: list[float]
    specs: list
    digest: str


def _arrivals(w: Workload, n: int) -> list[float]:
    if w.rate_qps == 0.0:
        return [i * BATCH_STAGGER_S for i in range(n)]
    rng = random.Random(f"{ARRIVAL_SEED}/{w.name}")
    out, t = [], 0.0
    for _ in range(n):
        t += rng.expovariate(w.rate_qps)
        out.append(t)
    return out


def _reuse_specs(n: int, seed: int, rng: random.Random) -> list:
    fresh = adapters.random_q32_specs(n, seed)
    templates = [
        adapters.with_year_range(s, YEAR_LO, YEAR_HI)
        for s in adapters.random_q32_specs(REUSE_TEMPLATES, seed + 1_000_003)
    ]
    specs = []
    for k in range(n):
        if rng.random() >= REUSE_SHARE:
            specs.append(fresh[k])
            continue
        template = templates[rng.randrange(REUSE_TEMPLATES)]
        if rng.random() < REISSUE_SHARE:
            specs.append(template)
            continue
        lo = rng.randrange(YEAR_LO, YEAR_HI + 1)
        hi = rng.randrange(lo, YEAR_HI + 1)
        specs.append(adapters.with_year_range(template, lo, hi))
    return specs


def quick(w: Workload) -> Workload:
    """``w`` cut to a smoke test: too few queries on too little data to
    promise that every sharing mechanism fires, so no counter is required
    to be non-zero."""
    return dataclasses.replace(
        w, n_queries=QUICK_QUERIES, sf=min(w.sf, QUICK_MAX_SF), exercises=frozenset()
    )


def materialise(w: Workload, seed: int) -> Stream:
    """The workload's inputs for ``seed``: same seed, same inputs."""
    n = w.n_queries
    rng = random.Random(f"{seed}/{w.name}")
    arrivals = _arrivals(w, n)
    if w.mix == "q32-random":
        specs = adapters.random_q32_specs(n, seed)
    elif w.mix == "ssb-mix":
        specs = adapters.ssb_mix_specs(n, seed)
    elif w.mix == "q32-reuse":
        specs = _reuse_specs(n, seed, rng)
    else:
        raise ValueError(f"unknown query mix {w.mix!r}")
    h = hashlib.sha256()
    for t, spec in zip(arrivals, specs):
        h.update(repr((t, spec.signature)).encode())
    return Stream(arrivals, specs, h.hexdigest())
