"""Ablations of design choices called out in DESIGN.md.

These are not paper figures; they isolate the mechanisms behind them:

* **distributor parts** -- the paper notes "the original CJOIN uses a
  single-threaded distributor which slows the pipeline significantly.  To
  address this bottleneck, we augment the distributor with several
  distributor parts" (Section 3.2).  The ablation shows the single-part
  penalty at high selectivity.
* **filter workers** -- the width of the horizontal configuration.
* **oversubscription penalty** -- the superlinear thrash term that makes
  the query-centric engine collapse past 24 cores; with it ablated to 0
  the machine degrades only linearly.
* **push-based prediction model** -- Johnson et al.'s run-time decision,
  tracking the lower envelope of No-SP and always-share under FIFO.
* **hybrid routing** -- the paper's concluding recommendation: dynamically
  choose query-centric + SP vs GQP + SP by load.

Like the paper figures in :mod:`repro.bench.experiments`, every ablation
enumerates :class:`~repro.parallel.CellSpec`\\ s and runs them through the
parallel fabric (``jobs``/``REPRO_JOBS``).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.bench.experiments import MEMORY, ExperimentResult, _sweep
from repro.bench.reporting import format_series
from repro.bench.runner import HYBRID
from repro.engine.config import CJOIN, QPIPE, QPIPE_CS, QPIPE_SP, CJOIN_SP
from repro.parallel import CellSpec, DatasetSpec, WorkloadSpec
from repro.sim.machine import PAPER_MACHINE


def ablate_distributor_parts(
    parts: Sequence[int] = (1, 2, 4, 8),
    n_queries: int = 128,
    selectivity: float = 0.30,
    sf: float = 10.0,
    seed: int = 42,
    jobs: int | None = None,
) -> ExperimentResult:
    """Single-threaded distributor vs distributor parts."""
    workload = WorkloadSpec("q32-selectivity", n=n_queries, selectivity=selectivity, seed=seed)
    specs = [
        CellSpec(
            key=f"parts{p}",
            config=dataclasses.replace(CJOIN, distributor_parts=p),
            dataset=DatasetSpec("ssb", sf, seed),
            workload=workload,
            storage=MEMORY,
        )
        for p in parts
    ]
    out = _sweep(specs, jobs)
    rts = [out.cell(f"parts{p}").mean_response for p in parts]
    table = format_series(
        f"Ablation: CJOIN distributor parts ({n_queries} queries, {100*selectivity:g}% selectivity)",
        "parts", list(parts), {"response_s": rts},
        note="paper 3.2: the original single-threaded distributor slows the pipeline",
    )
    return ExperimentResult(
        "ablate_distributor", [table], {"parts": list(parts), "rt": rts},
        timings=out.timings(),
    )


def ablate_filter_workers(
    workers: Sequence[int] = (1, 2, 4, 8),
    n_queries: int = 64,
    sf: float = 1.0,
    seed: int = 42,
    jobs: int | None = None,
) -> ExperimentResult:
    """Width of CJOIN's horizontal thread configuration."""
    specs = [
        CellSpec(
            key=f"w{w}",
            config=dataclasses.replace(CJOIN, filter_workers=w),
            dataset=DatasetSpec("ssb", sf, seed),
            workload=WorkloadSpec("q32-random", n=n_queries, seed=seed),
            storage=MEMORY,
        )
        for w in workers
    ]
    out = _sweep(specs, jobs)
    rts = [out.cell(f"w{w}").mean_response for w in workers]
    table = format_series(
        f"Ablation: CJOIN filter workers ({n_queries} random queries, SF={sf:g})",
        "workers", list(workers), {"response_s": rts},
    )
    return ExperimentResult(
        "ablate_filters", [table], {"workers": list(workers), "rt": rts},
        timings=out.timings(),
    )


def ablate_oversubscription(
    penalties: Sequence[float] = (0.0, 0.35, 1.0),
    n_queries: int = 64,
    sf: float = 1.0,
    seed: int = 42,
    jobs: int | None = None,
) -> ExperimentResult:
    """The superlinear thrash term behind the query-centric collapse."""
    specs = [
        CellSpec(
            key=f"k{k:g}",
            config=QPIPE,
            dataset=DatasetSpec("ssb", sf, seed),
            workload=WorkloadSpec("q32-random", n=n_queries, seed=seed),
            storage=MEMORY,
            machine=dataclasses.replace(PAPER_MACHINE, oversub_penalty=k),
        )
        for k in penalties
    ]
    out = _sweep(specs, jobs)
    rts = [out.cell(f"k{k:g}").mean_response for k in penalties]
    table = format_series(
        f"Ablation: CPU oversubscription penalty, QPipe with {n_queries} queries",
        "penalty_k", list(penalties), {"response_s": rts},
        note="k=0 -> fair-share only; the paper's 'excessive and unpredictable' regime needs k>0",
    )
    return ExperimentResult(
        "ablate_oversub", [table], {"penalties": list(penalties), "rt": rts},
        timings=out.timings(),
    )


def ablate_prediction_model(
    concurrency: Sequence[int] = (2, 8, 32, 64),
    sf: float = 1.0,
    seed: int = 42,
    jobs: int | None = None,
) -> ExperimentResult:
    """Push-based SP with and without the run-time prediction model."""
    nosp = QPIPE.with_comm("fifo")
    cs = QPIPE_CS.with_comm("fifo")
    pred = dataclasses.replace(cs, sp_prediction=True, name="CS (FIFO+pred)")
    configs = (nosp, cs, pred)
    specs = [
        CellSpec(
            key=f"{cfg.name}/n{n}",
            config=cfg,
            dataset=DatasetSpec("tpch", sf, seed),
            workload=WorkloadSpec("tpch-q1", n=n, seed=seed),
            storage=MEMORY,
        )
        for n in concurrency
        for cfg in configs
    ]
    out = _sweep(specs, jobs)
    series = {
        cfg.name: [out.cell(f"{cfg.name}/n{n}").mean_response for n in concurrency]
        for cfg in configs
    }
    table = format_series(
        "Ablation: push-based SP prediction model (identical TPC-H Q1)",
        "queries", list(concurrency), series,
        note="the model should track the lower envelope of the other two "
        "(the paper's point: with SPL no model is needed at all)",
    )
    return ExperimentResult(
        "ablate_prediction", [table], {"concurrency": list(concurrency), "rt": series},
        timings=out.timings(),
    )


def ablate_thread_configuration(
    concurrency: Sequence[int] = (8, 64),
    sf: float = 1.0,
    seed: int = 42,
    jobs: int | None = None,
) -> ExperimentResult:
    """CJOIN horizontal vs vertical thread configuration (Section 5.2.2).

    Paper: the vertical (one thread per filter) configuration can reduce
    synchronization but "these configurations, however, do not necessarily
    provide better performance" -- so the expectation is parity within a
    small factor, not a winner."""
    vertical = dataclasses.replace(CJOIN, cjoin_threads="vertical", name="CJOIN-vertical")
    configs = {"horizontal": CJOIN, "vertical": vertical}
    specs = [
        CellSpec(
            key=f"{label}/n{n}",
            config=cfg,
            dataset=DatasetSpec("ssb", sf, seed),
            workload=WorkloadSpec("q32-random", n=n, seed=seed),
            storage=MEMORY,
        )
        for n in concurrency
        for label, cfg in configs.items()
    ]
    out = _sweep(specs, jobs)
    series = {
        label: [out.cell(f"{label}/n{n}").mean_response for n in concurrency]
        for label in configs
    }
    table = format_series(
        "Ablation: CJOIN thread configuration (horizontal pool vs one thread per filter)",
        "queries", list(concurrency), series,
        note="paper 5.2.2: neither configuration necessarily wins",
    )
    return ExperimentResult(
        "ablate_threads", [table], {"concurrency": list(concurrency), "rt": series},
        timings=out.timings(),
    )


def ablate_batched_execution(
    delays: Sequence[float] = (0.0, 0.3, 1.0),
    n_queries: int = 8,
    sf: float = 1.0,
    seed: int = 42,
    jobs: int | None = None,
) -> ExperimentResult:
    """SharedDB-style batched execution vs CJOIN's continuous admission.

    Queries arriving ``delay`` seconds apart: with batching, a late query
    waits for the running generation, so its latency grows with the delay's
    misalignment; continuous admission joins the circular scan immediately.
    (Paper 2.4: "a new query may suffer increased latency, and the latency
    of a batch is dominated by the longest-running query.")"""
    batched_cfg = dataclasses.replace(CJOIN, gqp_batched_execution=True, name="CJOIN-batched")
    configs = {"CJOIN (continuous)": CJOIN, "CJOIN (batched)": batched_cfg}
    specs = [
        CellSpec(
            key=f"{label}/d{d:g}",
            config=cfg,
            dataset=DatasetSpec("ssb", sf, seed),
            workload=WorkloadSpec("q32-random", n=n_queries, seed=seed),
            storage=MEMORY,
            submit_stagger=d,
        )
        for d in delays
        for label, cfg in configs.items()
    ]
    out = _sweep(specs, jobs)
    series = {
        label: [out.cell(f"{label}/d{d:g}").mean_response for d in delays]
        for label in configs
    }
    table = format_series(
        f"Ablation: SharedDB-style batched execution ({n_queries} queries, staggered arrivals)",
        "interarrival_s", list(delays), series,
        note="paper 2.4: batching admits between generations; late arrivals pay latency",
    )
    return ExperimentResult(
        "ablate_batching", [table], {"delays": list(delays), "rt": series},
        timings=out.timings(),
    )


def interarrival_sweep(
    delays: Sequence[float] = (0.0, 0.02, 0.1, 0.5, 2.0),
    n_queries: int = 16,
    sf: float = 1.0,
    seed: int = 42,
    jobs: int | None = None,
) -> ExperimentResult:
    """Sharing opportunities vs interarrival delay (the WoP in action).

    The paper submits everything in one batch "so all queries with common
    sub-plans arrive surely inside the WoP" and defers the interarrival
    study to the original QPipe paper; this extension runs it: identical
    Q3.2 queries arriving ``delay`` seconds apart.

    Expectations: the *step*-WoP joins stop sharing once the delay exceeds
    the host's time-to-first-output; the *linear*-WoP circular scan keeps
    sharing as long as executions overlap at all; response times rise
    accordingly."""
    specs = [
        CellSpec(
            key=f"d{d:g}",
            config=QPIPE_SP,
            dataset=DatasetSpec("ssb", sf, seed),
            workload=WorkloadSpec("q32-fixed", n=n_queries),
            storage=MEMORY,
            submit_stagger=d,
        )
        for d in delays
    ]
    out = _sweep(specs, jobs)
    rts, join_shares, scan_shares = [], [], []
    for d in delays:
        r = out.cell(f"d{d:g}")
        rts.append(r.mean_response)
        join_shares.append(sum(v for k, v in r.sharing.items() if k.startswith("join")))
        scan_shares.append(r.sharing.get("tablescan", 0))
    table = format_series(
        f"Extension: interarrival delay vs sharing ({n_queries} identical Q3.2)",
        "delay_s",
        list(delays),
        {"response_s": rts, "join_shares(step WoP)": join_shares, "scan_shares(linear WoP)": scan_shares},
        note="step-WoP sharing dies once the delay exceeds time-to-first-output; "
        "linear-WoP scan sharing survives while executions overlap",
    )
    return ExperimentResult(
        "interarrival",
        [table],
        {"delays": list(delays), "rt": rts, "join_shares": join_shares, "scan_shares": scan_shares},
        timings=out.timings(),
    )


def ablate_hybrid_routing(
    concurrency: Sequence[int] = (2, 16, 64, 128),
    sf: float = 1.0,
    seed: int = 42,
    jobs: int | None = None,
) -> ExperimentResult:
    """The paper's conclusion as a live policy: hybrid routing (the query
    service under the static policy) vs the two static choices."""
    selectors = {"QPipe-SP": QPIPE_SP, "CJOIN-SP": CJOIN_SP, "Hybrid": HYBRID}
    specs = [
        CellSpec(
            key=f"{name}/n{n}",
            config=sel,
            dataset=DatasetSpec("ssb", sf, seed),
            workload=WorkloadSpec("q32-random", n=n, seed=seed),
            storage=MEMORY,
        )
        for n in concurrency
        for name, sel in selectors.items()
    ]
    out = _sweep(specs, jobs)
    series = {
        name: [out.cell(f"{name}/n{n}").mean_response for n in concurrency]
        for name in selectors
    }
    table = format_series(
        "Ablation: dynamic hybrid routing (random Q3.2, memory-resident)",
        "queries", list(concurrency), series,
        note="hybrid should track the better static choice at both extremes",
    )
    return ExperimentResult(
        "ablate_hybrid", [table], {"concurrency": list(concurrency), "rt": series},
        timings=out.timings(),
    )
