"""One function per table/figure of the paper's evaluation.

Each function runs the corresponding experiment on the simulated testbed
and returns an :class:`ExperimentResult` whose ``render()`` prints the same
rows/series the paper plots.  Parameters default to *fast* settings so the
benchmark suite completes in minutes; pass ``full=True`` (or the explicit
knobs) for the paper-scale sweeps recorded in EXPERIMENTS.md.

Every sweep enumerates its grid as :class:`~repro.parallel.CellSpec`\\ s
and executes them through the parallel fabric (:func:`repro.parallel.
run_cells`): ``jobs=1`` (the default) is the exact serial path, ``jobs=N``
(or ``REPRO_JOBS=N``) fans cells out across a pool of worker processes with
byte-identical results (cells are deterministic in their spec; see
``repro/parallel/cells.py``).

Paper-vs-measured expectations (the *shape* claims each experiment must
reproduce) are documented per function and asserted loosely in
``tests/bench/test_experiments.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.baselines.volcano import VolcanoEngine  # noqa: F401 (re-export convenience)
from repro.bench.reporting import format_series, format_table
from repro.bench.runner import (
    POSTGRES,
    RunResult,
    run_batch,  # noqa: F401 (re-export: ad-hoc single cells)
    run_closed_loop,  # noqa: F401 (re-export)
)
from repro.data.ssb import generate_ssb
from repro.engine.config import CJOIN, CJOIN_SP, QPIPE, QPIPE_CS, QPIPE_SP
from repro.engine.wop import WindowOfOpportunity, wop_gain
from repro.parallel import CellSpec, DatasetSpec, SweepOutcome, WorkloadSpec, run_cells
from repro.sim.machine import GB
from repro.sim.metrics import CATEGORIES
from repro.storage.manager import StorageConfig

MEMORY = StorageConfig(resident="memory")


def disk_config(
    bufferpool_bytes: float = 48 * GB,
    os_cache_bytes: float = 32 * GB,
    direct_io: bool = False,
) -> StorageConfig:
    return StorageConfig(
        resident="disk",
        bufferpool_bytes=bufferpool_bytes,
        os_cache_bytes=os_cache_bytes,
        direct_io=direct_io,
    )


@dataclass
class ExperimentResult:
    """Structured output of one experiment."""

    experiment: str
    tables: list[str] = field(default_factory=list)
    data: dict[str, Any] = field(default_factory=dict)
    #: host-side attribution from the parallel fabric: ``jobs``, total
    #: ``wall_s``, and per-cell ``{wall_s, worker, retried}`` -- see
    #: :meth:`repro.parallel.SweepOutcome.timings`.  Empty for derived
    #: (non-sweep) experiments like fig2.
    timings: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        return "\n\n".join(self.tables)


def _rt_series(results: dict[str, list[RunResult]]) -> dict[str, list[float]]:
    return {name: [r.mean_response for r in rs] for name, rs in results.items()}


def _progress() -> Callable[[str], None] | None:
    """Sweeps print ordered per-cell progress only when the fabric was
    asked for it (``REPRO_PROGRESS=1``); library callers stay quiet."""
    import os

    if os.environ.get("REPRO_PROGRESS"):
        return lambda line: print(line, flush=True)
    return None


def cell_timeout() -> float | None:
    """Per-cell wall-clock budget, settable from the CLI
    (``repro sweep --timeout``) via ``REPRO_CELL_TIMEOUT``."""
    import os

    raw = os.environ.get("REPRO_CELL_TIMEOUT")
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"REPRO_CELL_TIMEOUT={raw!r} is not a number") from None


def _sweep(specs: Sequence[CellSpec], jobs: int | None) -> SweepOutcome:
    return run_cells(specs, jobs=jobs, timeout=cell_timeout(), progress=_progress())


# ---------------------------------------------------------------------------
# Figure 2b: Windows of Opportunity
# ---------------------------------------------------------------------------


def fig2_wop(points: int = 11) -> ExperimentResult:
    """Paper Figure 2b: step vs linear WoP gain curves.

    Expectation: step = 100% gain for any arrival before the host's first
    output, then 0; linear = gain proportional to the remaining progress."""
    xs = [i / (points - 1) for i in range(points)]
    series = {
        "step_gain_%": [100 * wop_gain(WindowOfOpportunity.STEP, x) for x in xs],
        "linear_gain_%": [100 * wop_gain(WindowOfOpportunity.LINEAR, x) for x in xs],
    }
    table = format_series(
        "Figure 2b: Window of Opportunity gain vs host progress at arrival",
        "host_progress", [f"{x:.1f}" for x in xs], series,
    )
    return ExperimentResult("fig2", [table], {"xs": xs, **series})


# ---------------------------------------------------------------------------
# Figure 6: push-based vs pull-based SP (TPC-H Q1, memory-resident, SF=1)
# ---------------------------------------------------------------------------


def fig6_push_vs_pull(
    concurrency: Sequence[int] = (1, 2, 4, 8, 16, 32),
    sf: float = 1.0,
    seed: int = 42,
    full: bool = False,
    jobs: int | None = None,
) -> ExperimentResult:
    """Paper Figure 6a/b/c: identical TPC-H Q1 queries, No-SP vs circular
    scans (CS), with FIFO (push) vs SPL (pull) communication.

    Expectations: CS(FIFO) is worse than No-SP at low concurrency (producer
    serialization) and uses ~3 cores at 64 queries; CS(SPL) is never worse
    than No-SP and cuts CS(FIFO)'s response time by ~82-86% at high
    concurrency; No-SP degrades sharply once plans exceed 24 cores."""
    if full:
        concurrency = (1, 2, 4, 8, 16, 32, 64)
    dataset = DatasetSpec("tpch", sf, seed)
    selectors = {
        "NoSP(FIFO)": QPIPE.with_comm("fifo"),
        "CS(FIFO)": QPIPE_CS.with_comm("fifo"),
        "NoSP(SPL)": QPIPE.with_comm("spl"),
        "CS(SPL)": QPIPE_CS.with_comm("spl"),
    }
    specs = [
        CellSpec(
            key=f"{name}/n{n}",
            config=cfg,
            dataset=dataset,
            workload=WorkloadSpec("tpch-q1", n=n, seed=seed),
            storage=MEMORY,
        )
        for n in concurrency
        for name, cfg in selectors.items()
    ]
    out = _sweep(specs, jobs)
    cells: dict[str, list[RunResult]] = {
        name: [out.cell(f"{name}/n{n}") for n in concurrency] for name in selectors
    }
    rt = _rt_series(cells)
    t_resp = format_series(
        "Figure 6a/6b: TPC-H Q1 response time (s), push vs pull SP",
        "queries", list(concurrency), rt,
    )
    speedups = {
        "speedup_FIFO": [
            rt["NoSP(FIFO)"][i] / rt["CS(FIFO)"][i] for i in range(len(concurrency))
        ],
        "speedup_SPL": [
            rt["NoSP(SPL)"][i] / rt["CS(SPL)"][i] for i in range(len(concurrency))
        ],
    }
    t_speed = format_series(
        "Figure 6c: speedup of sharing (NoSP/CS) per communication model",
        "queries", list(concurrency), speedups,
        note="paper: FIFO < 1 at low concurrency; SPL >= 1 everywhere",
    )
    hi = len(concurrency) - 1
    reduction = 100 * (1 - rt["CS(SPL)"][hi] / rt["CS(FIFO)"][hi])
    t_meta = format_table(
        "Figure 6 measurements at highest concurrency",
        ["metric", "CS(FIFO)", "CS(SPL)"],
        [
            ["response (s)", rt["CS(FIFO)"][hi], rt["CS(SPL)"][hi]],
            ["avg cores used", cells["CS(FIFO)"][hi].avg_cores_used, cells["CS(SPL)"][hi].avg_cores_used],
            ["SPL reduction vs FIFO (%)", "", reduction],
        ],
        note="paper at 64 queries: CS(FIFO) 60s/3.1 cores; CS(SPL) 8s/19.1 cores; 82-86% reduction",
    )
    return ExperimentResult(
        "fig6",
        [t_resp, t_speed, t_meta],
        {"concurrency": list(concurrency), "rt": rt, "speedups": speedups, "reduction": reduction, "cells": cells},
        timings=out.timings(),
    )


# ---------------------------------------------------------------------------
# Figure 10: impact of concurrency (SSB Q3.2, SF=1, memory & disk)
# ---------------------------------------------------------------------------


def fig10_concurrency(
    concurrency: Sequence[int] = (1, 4, 16, 64, 256),
    sf: float = 1.0,
    seed: int = 42,
    resident: Sequence[str] = ("memory", "disk"),
    full: bool = False,
    jobs: int | None = None,
) -> ExperimentResult:
    """Paper Figure 10: random-predicate Q3.2 instances, 1..256 queries.

    Expectations: at high concurrency CJOIN < QPipe-SP < QPipe-CS < QPipe;
    QPipe saturates 24 cores and degrades sharply from ~32 queries; CJOIN
    uses only a few cores; on disk, circular scans cut response 80-97% vs
    independent scans at high concurrency."""
    if full:
        concurrency = (1, 2, 4, 8, 16, 32, 64, 128, 256)
    dataset = DatasetSpec("ssb", sf, seed)
    configs = (QPIPE, QPIPE_CS, QPIPE_SP, CJOIN)
    specs = [
        CellSpec(
            key=f"{res}/{cfg.name}/n{n}",
            config=cfg,
            dataset=dataset,
            workload=WorkloadSpec("q32-random", n=n, seed=seed),
            storage=MEMORY if res == "memory" else disk_config(),
        )
        for res in resident
        for n in concurrency
        for cfg in configs
    ]
    out = _sweep(specs, jobs)
    tables: list[str] = []
    data: dict[str, Any] = {"concurrency": list(concurrency)}
    for res in resident:
        cells: dict[str, list[RunResult]] = {
            cfg.name: [out.cell(f"{res}/{cfg.name}/n{n}") for n in concurrency]
            for cfg in configs
        }
        rt = _rt_series(cells)
        tables.append(
            format_series(
                f"Figure 10 ({res}-resident): SSB Q3.2 response time (s)",
                "queries", list(concurrency), rt,
            )
        )
        hi = len(concurrency) - 1
        meta_rows = [
            [c.name, cells[c.name][hi].avg_cores_used, cells[c.name][hi].avg_read_mb_s]
            for c in configs
        ]
        tables.append(
            format_table(
                f"Figure 10 ({res}) measurements at {concurrency[hi]} queries",
                ["config", "avg cores", "read MB/s"],
                meta_rows,
                note="paper (memory, 256q): cores 23.91/19.72/18.75/3.47; "
                "(disk, 256q): read rate 1.88/74.47/97.67/156.11 MB/s",
            )
        )
        data[res] = {"rt": rt, "cells": cells}
    sp_share = data[resident[0]]["cells"]["QPipe-SP"][-1].sharing
    tables.append(
        format_table(
            "QPipe-SP sharing opportunities at highest concurrency",
            ["join", "times shared"],
            [[k, v] for k, v in sorted(sp_share.items())],
            note="paper (256q): 1st hash-join 126, 2nd 17, 3rd 1 (on average)",
        )
    )
    return ExperimentResult("fig10", tables, data, timings=out.timings())


# ---------------------------------------------------------------------------
# Figure 11: impact of selectivity (8 queries, SF=10, memory-resident)
# ---------------------------------------------------------------------------


def fig11_selectivity(
    selectivities: Sequence[float] = (0.001, 0.01, 0.10, 0.30),
    n_queries: int = 8,
    sf: float = 10.0,
    seed: int = 42,
    full: bool = False,
    jobs: int | None = None,
) -> ExperimentResult:
    """Paper Figure 11: modified Q3.2 at 0.1%..30% fact selectivity, low
    concurrency (8 queries: no CPU contention).

    Expectations: both degrade with selectivity; CJOIN always worse than
    QPipe-SP (admission grows with selected tuples; shared operators pay
    bookkeeping); CJOIN's "Joins" CPU exceeds QPipe-SP's at every
    selectivity while QPipe-SP's "Hashing" grows faster (it hashes per
    query; CJOIN hashes once)."""
    if full:
        selectivities = (0.001, 0.01, 0.10, 0.20, 0.30)
    dataset = DatasetSpec("ssb", sf, seed)
    configs = {"QPipe-SP": QPIPE_SP, "CJOIN": CJOIN}
    specs = [
        CellSpec(
            key=f"{name}/sel{sel:g}",
            config=cfg,
            dataset=dataset,
            workload=WorkloadSpec("q32-selectivity", n=n_queries, selectivity=sel, seed=seed),
            storage=MEMORY,
        )
        for sel in selectivities
        for name, cfg in configs.items()
    ]
    out = _sweep(specs, jobs)
    cells: dict[str, list[RunResult]] = {
        name: [out.cell(f"{name}/sel{sel:g}") for sel in selectivities] for name in configs
    }
    rt = _rt_series(cells)
    rt["CJOIN admission"] = [r.admission_seconds for r in cells["CJOIN"]]
    xs = [f"{100 * s:g}%" for s in selectivities]
    tables = [
        format_series(
            f"Figure 11: response time (s) vs selectivity ({n_queries} queries, SF={sf:g}, memory)",
            "selectivity", xs, rt,
            note="paper: CJOIN worse than QPipe-SP at all selectivities at low concurrency",
        )
    ]
    for name in ("QPipe-SP", "CJOIN"):
        rows = [
            [xs[i]] + [cells[name][i].cpu_breakdown[cat] for cat in CATEGORIES]
            for i in range(len(selectivities))
        ]
        tables.append(
            format_table(
                f"Figure 11 CPU-time breakdown, {name} (core-seconds)",
                ["selectivity", *CATEGORIES],
                rows,
            )
        )
    return ExperimentResult(
        "fig11",
        tables,
        {"selectivities": list(selectivities), "rt": rt, "cells": cells},
        timings=out.timings(),
    )


# ---------------------------------------------------------------------------
# Figure 12: selectivity x concurrency (30% selectivity, 16..256 queries)
# ---------------------------------------------------------------------------


def fig12_selectivity_concurrency(
    concurrency: Sequence[int] = (16, 32, 64),
    selectivity: float = 0.30,
    sf: float = 10.0,
    seed: int = 42,
    full: bool = False,
    jobs: int | None = None,
) -> ExperimentResult:
    """Paper Figure 12: 30% selectivity, rising concurrency.

    Expectations: QPipe-SP's CPU time (and response) grows superlinearly
    with queries; CJOIN's "Hashing" stays flat (hashing is shared) and it
    wins at high concurrency -- the reverse of Figure 11's low-concurrency
    verdict."""
    if full:
        concurrency = (16, 32, 64, 128, 256)
    dataset = DatasetSpec("ssb", sf, seed)
    configs = {"QPipe-SP": QPIPE_SP, "CJOIN": CJOIN}
    specs = [
        CellSpec(
            key=f"{name}/n{n}",
            config=cfg,
            dataset=dataset,
            workload=WorkloadSpec("q32-selectivity", n=n, selectivity=selectivity, seed=seed),
            storage=MEMORY,
        )
        for n in concurrency
        for name, cfg in configs.items()
    ]
    out = _sweep(specs, jobs)
    cells: dict[str, list[RunResult]] = {
        name: [out.cell(f"{name}/n{n}") for n in concurrency] for name in configs
    }
    rt = _rt_series(cells)
    rt["CJOIN admission"] = [r.admission_seconds for r in cells["CJOIN"]]
    tables = [
        format_series(
            f"Figure 12: response time (s) at {100 * selectivity:g}% selectivity (SF={sf:g}, memory)",
            "queries", list(concurrency), rt,
            note="paper: crossover -- CJOIN wins at high concurrency",
        )
    ]
    hashing = {
        name: [cells[name][i].cpu_breakdown["hashing"] for i in range(len(concurrency))]
        for name in cells
    }
    tables.append(
        format_series(
            "Figure 12: 'Hashing' CPU core-seconds (flat for CJOIN = shared hashing)",
            "queries", list(concurrency), hashing,
        )
    )
    return ExperimentResult(
        "fig12",
        tables,
        {"concurrency": list(concurrency), "rt": rt, "hashing": hashing, "cells": cells},
        timings=out.timings(),
    )


# ---------------------------------------------------------------------------
# Figure 13: impact of scale factor (8 queries, disk, +- direct I/O)
# ---------------------------------------------------------------------------


def fig13_scale_factor(
    scale_factors: Sequence[float] = (1.0, 10.0, 30.0),
    n_queries: int = 8,
    seed: int = 42,
    full: bool = False,
    jobs: int | None = None,
) -> ExperimentResult:
    """Paper Figure 13: disk-resident databases, SF 1..100, with and
    without direct I/O.

    Expectations: response grows ~linearly with SF for both; QPipe-SP's
    slope is smaller than CJOIN's; direct I/O (no FS cache/read-ahead)
    exposes the CJOIN preprocessor's overhead -- its read rate drops well
    below QPipe-SP's, while buffered I/O masks it."""
    if full:
        scale_factors = (1.0, 10.0, 30.0, 50.0, 100.0)
    specs = [
        CellSpec(
            key=f"{cfg.name}{' (Direct I/O)' if direct else ''}/sf{sf:g}",
            config=cfg,
            dataset=DatasetSpec("ssb", sf, seed),
            workload=WorkloadSpec("q32-random", n=n_queries, seed=seed),
            storage=disk_config(direct_io=direct),
        )
        for sf in scale_factors
        for direct in (False, True)
        for cfg in (QPIPE_SP, CJOIN)
    ]
    out = _sweep(specs, jobs)
    series: dict[str, list[float]] = {}
    read_rates: dict[str, list[float]] = {}
    for cfg in (QPIPE_SP, CJOIN):
        for direct in (False, True):
            key = f"{cfg.name} (Direct I/O)" if direct else cfg.name
            results = [out.cell(f"{key}/sf{sf:g}") for sf in scale_factors]
            series[key] = [r.mean_response for r in results]
            read_rates[key] = [r.avg_read_mb_s for r in results]
    tables = [
        format_series(
            f"Figure 13: response time (s) vs scale factor ({n_queries} queries, disk)",
            "SF", list(scale_factors), series,
            note="paper at SF=100: read rate QPipe-SP 97 vs CJOIN 70 MB/s buffered; "
            "216 vs 205 MB/s direct",
        ),
        format_series(
            "Figure 13: average read rate (MB/s)",
            "SF", list(scale_factors), read_rates,
        ),
    ]
    return ExperimentResult(
        "fig13",
        tables,
        {"scale_factors": list(scale_factors), "rt": series, "read_rates": read_rates},
        timings=out.timings(),
    )


# ---------------------------------------------------------------------------
# Figure 14: impact of similarity (16 possible plans, SF=1, disk)
# ---------------------------------------------------------------------------


def fig14_similarity(
    concurrency: Sequence[int] = (1, 8, 64, 256),
    n_plans: int = 16,
    sf: float = 1.0,
    seed: int = 42,
    full: bool = False,
    jobs: int | None = None,
) -> ExperimentResult:
    """Paper Figure 14: 16 possible Q3.2 plans, disk-resident SF=1.

    Expectations at 256 queries: CJOIN-SP < QPipe-SP < CJOIN < QPipe-CS;
    QPipe-SP beats plain CJOIN (high similarity favors SP's result reuse);
    CJOIN-SP shares whole CJOIN packets (~239 times in the paper)."""
    if full:
        concurrency = (1, 2, 4, 8, 16, 32, 64, 128, 256)
    dataset = DatasetSpec("ssb", sf, seed)
    configs = (QPIPE_CS, QPIPE_SP, CJOIN, CJOIN_SP)
    specs = [
        CellSpec(
            key=f"{cfg.name}/n{n}",
            config=cfg,
            dataset=dataset,
            workload=WorkloadSpec("q32-plans", n=n, n_plans=min(n_plans, n), seed=seed),
            storage=disk_config(),
        )
        for n in concurrency
        for cfg in configs
    ]
    out = _sweep(specs, jobs)
    cells: dict[str, list[RunResult]] = {
        cfg.name: [out.cell(f"{cfg.name}/n{n}") for n in concurrency] for cfg in configs
    }
    rt = _rt_series(cells)
    hi = len(concurrency) - 1
    tables = [
        format_series(
            f"Figure 14: response time (s), {n_plans} possible plans (SF={sf:g}, disk)",
            "queries", list(concurrency), rt,
            note="paper at 256q: QPipe-CS 50s, QPipe-SP 13s, CJOIN 14s, CJOIN-SP 12s",
        ),
        format_table(
            f"Figure 14 measurements at {concurrency[hi]} queries",
            ["config", "avg cores", "read MB/s", "cjoin shares"],
            [
                [
                    c.name,
                    cells[c.name][hi].avg_cores_used,
                    cells[c.name][hi].avg_read_mb_s,
                    cells[c.name][hi].sharing.get("cjoin", 0),
                ]
                for c in configs
            ],
            note="paper: CJOIN-SP shares CJOIN packets 239 times at 256 queries",
        ),
    ]
    return ExperimentResult(
        "fig14",
        tables,
        {"concurrency": list(concurrency), "rt": rt, "cells": cells},
        timings=out.timings(),
    )


# ---------------------------------------------------------------------------
# Figure 15: number of possible plans at very high concurrency
# ---------------------------------------------------------------------------


def fig15_plan_variety(
    n_queries: int = 128,
    plan_counts: Sequence[int | None] = (1, 32, 128, None),
    sf: float = 10.0,
    seed: int = 42,
    full: bool = False,
    jobs: int | None = None,
) -> ExperimentResult:
    """Paper Figure 15: 512 queries over SF=100 (buffer pool ~10% of the
    database), varying the number of possible plans (None = fully random).

    Expectations: QPipe-SP wins at extreme similarity (1 plan) and degrades
    as variety grows; CJOIN is nearly flat; CJOIN-SP improves on CJOIN by
    20-48% whenever common sub-plans exist and never does worse."""
    if full:
        n_queries, sf = 512, 100.0
        plan_counts = (1, 128, 256, 512, None)
    ds = generate_ssb(sf, seed)  # parent-side: the buffer-pool bound needs its size
    bp = max(ds.real_bytes * 0.10, 1 * GB)
    storage = disk_config(bufferpool_bytes=bp, os_cache_bytes=bp)
    dataset = DatasetSpec("ssb", sf, seed)
    configs = (QPIPE_SP, CJOIN, CJOIN_SP)
    xs = ["Random" if count is None else str(count) for count in plan_counts]

    def _workload(count: int | None) -> WorkloadSpec:
        if count is None:
            return WorkloadSpec("q32-random", n=n_queries, seed=seed)
        return WorkloadSpec("q32-plans", n=n_queries, n_plans=count, seed=seed)

    specs = [
        CellSpec(
            key=f"{cfg.name}/p{x}",
            config=cfg,
            dataset=dataset,
            workload=_workload(count),
            storage=storage,
        )
        for x, count in zip(xs, plan_counts)
        for cfg in configs
    ]
    out = _sweep(specs, jobs)
    cells: dict[str, list[RunResult]] = {
        cfg.name: [out.cell(f"{cfg.name}/p{x}") for x in xs] for cfg in configs
    }
    rt = _rt_series(cells)
    improvements = [
        100 * (1 - rt["CJOIN-SP"][i] / rt["CJOIN"][i]) for i in range(len(xs))
    ]
    tables = [
        format_series(
            f"Figure 15: response time (s), {n_queries} queries (SF={sf:g}, BP~10%)",
            "plans", xs, rt,
            note="paper: CJOIN-SP improves CJOIN by 20-48% with common sub-plans",
        ),
        format_table(
            "Figure 15: sharing opportunities",
            ["plans", "QPipe-SP hj1/hj2/hj3", "CJOIN-SP packets", "CJOIN-SP gain %"],
            [
                [
                    xs[i],
                    "/".join(
                        str(cells["QPipe-SP"][i].sharing.get(f"join:hj{d}", 0))
                        for d in (1, 2, 3)
                    ),
                    cells["CJOIN-SP"][i].sharing.get("cjoin", 0),
                    improvements[i],
                ]
                for i in range(len(xs))
            ],
            note="paper (512q): QPipe-SP 1/0/510 ... 362/82/5; CJOIN-SP 510..12 shares",
        ),
    ]
    return ExperimentResult(
        "fig15",
        tables,
        {"plans": xs, "rt": rt, "improvements": improvements, "cells": cells},
        timings=out.timings(),
    )


# ---------------------------------------------------------------------------
# Figure 16: SSB query mix -- response time and throughput vs Postgres
# ---------------------------------------------------------------------------


def fig16_mix(
    concurrency: Sequence[int] = (1, 16, 128),
    clients: Sequence[int] = (1, 16, 160),
    sf: float = 30.0,
    seed: int = 42,
    duration: float = 600.0,
    full: bool = False,
    jobs: int | None = None,
) -> ExperimentResult:
    """Paper Figure 16: mix of SSB Q1.1/Q2.1/Q3.2, disk-resident SF=30;
    left: batch response times; right: closed-loop throughput.

    Expectations: Postgres (mature, query-centric) wins at 1-2 queries but
    contends beyond; QPipe-SP in between; CJOIN-SP best at high
    concurrency, and its *throughput keeps rising* with clients while the
    query-centric engines flatten or degrade."""
    if full:
        concurrency = (1, 2, 4, 8, 16, 32, 64, 128, 256)
        clients = (1, 16, 64, 160, 256)
        duration = 1800.0
    dataset = DatasetSpec("ssb", sf, seed)
    storage = disk_config()
    selectors = {"Postgres": POSTGRES, "QPipe-SP": QPIPE_SP, "CJOIN-SP": CJOIN_SP}
    specs = [
        CellSpec(
            key=f"batch/{name}/n{n}",
            config=sel,
            dataset=dataset,
            workload=WorkloadSpec("ssb-mix", n=n, seed=seed),
            storage=storage,
        )
        for n in concurrency
        for name, sel in selectors.items()
    ] + [
        CellSpec(
            key=f"closed/{name}/c{c}",
            config=sel,
            dataset=dataset,
            workload=WorkloadSpec("mix-factory", seed=seed),
            storage=storage,
            mode="closed",
            n_clients=c,
            duration=duration,
        )
        for c in clients
        for name, sel in selectors.items()
    ]
    out = _sweep(specs, jobs)
    cells: dict[str, list[RunResult]] = {
        name: [out.cell(f"batch/{name}/n{n}") for n in concurrency] for name in selectors
    }
    rt = _rt_series(cells)
    tables = [
        format_series(
            f"Figure 16 (left): SSB mix response time (s), SF={sf:g}, disk",
            "queries", list(concurrency), rt,
        )
    ]
    tput: dict[str, list[float]] = {
        name: [out.cell(f"closed/{name}/c{c}").queries_per_hour for c in clients]
        for name in selectors
    }
    tables.append(
        format_series(
            f"Figure 16 (right): throughput (queries/hour), {duration:g}s closed loop",
            "clients", list(clients), tput,
            note="paper: CJOIN-SP throughput keeps increasing; "
            "query-centric engines degrade with many clients",
        )
    )
    return ExperimentResult(
        "fig16",
        tables,
        {"concurrency": list(concurrency), "rt": rt, "clients": list(clients), "throughput": tput, "cells": cells},
        timings=out.timings(),
    )


# ---------------------------------------------------------------------------
# Table 1: rules of thumb (derived)
# ---------------------------------------------------------------------------


def table1_rules_of_thumb(
    low: int = 4,
    high: int = 256,
    sf: float = 1.0,
    seed: int = 42,
    jobs: int | None = None,
) -> ExperimentResult:
    """Paper Table 1, derived from measurements: pick the best engine
    configuration at low and at high concurrency (plus shared scans in the
    I/O layer) from an actual sweep over the paper's low-similarity
    random-predicate workload (the regime Table 1 generalizes over).

    Expectation: low concurrency -> query-centric operators + SP;
    high concurrency -> GQP (shared operators) + SP; shared scans always."""
    dataset = DatasetSpec("ssb", sf, seed)
    configs = (QPIPE, QPIPE_CS, QPIPE_SP, CJOIN, CJOIN_SP)
    regimes = (("low", low), ("high", high))
    specs = [
        CellSpec(
            key=f"{label}/{cfg.name}",
            config=cfg,
            dataset=dataset,
            workload=WorkloadSpec("q32-random", n=n, seed=seed),
            storage=disk_config(),
        )
        for label, n in regimes
        for cfg in configs
    ]
    out = _sweep(specs, jobs)
    verdicts = []
    winners: dict[str, str] = {}
    for label, n in regimes:
        results = {cfg.name: out.cell(f"{label}/{cfg.name}") for cfg in configs}
        best = min(results.values(), key=lambda r: r.mean_response)
        winners[label] = best.config_name
        verdicts.append([label, n, best.config_name] + [results[c.name].mean_response for c in configs])
    table = format_table(
        "Table 1 (derived): best sharing strategy by concurrency regime",
        ["regime", "queries", "winner", *[c.name for c in configs]],
        verdicts,
        note="paper: low -> query-centric + SP; high -> GQP + SP; shared scans in the I/O layer always",
    )
    return ExperimentResult(
        "table1", [table], {"winners": winners, "rows": verdicts}, timings=out.timings()
    )


# ---------------------------------------------------------------------------
# Section 4.1 ablation: SPL maximum size
# ---------------------------------------------------------------------------


def spl_max_size_ablation(
    max_pages: Sequence[int] = (1, 2, 8, 64, 512),
    n_queries: int = 8,
    sf: float = 1.0,
    seed: int = 42,
    jobs: int | None = None,
) -> ExperimentResult:
    """Paper Section 4.1 (no graph shown): varying the SPL bound from tiny
    to effectively unbounded "does not heavily affect performance" -- which
    is why the paper picks 256 KB (8 pages).

    Expectation: response time roughly flat across bounds."""
    import dataclasses

    dataset = DatasetSpec("tpch", sf, seed)
    specs = [
        CellSpec(
            key=f"mp{mp}",
            config=dataclasses.replace(QPIPE_CS, spl_max_pages=mp),
            dataset=dataset,
            workload=WorkloadSpec("tpch-q1", n=n_queries, seed=seed),
            storage=MEMORY,
        )
        for mp in max_pages
    ]
    out = _sweep(specs, jobs)
    rts = [out.cell(f"mp{mp}").mean_response for mp in max_pages]
    table = format_series(
        f"SPL maximum size ablation ({n_queries} identical Q1, CS(SPL))",
        "max_pages", list(max_pages), {"response_s": rts},
        note="paper: SPL size does not heavily affect performance (256KB chosen)",
    )
    return ExperimentResult(
        "spl_maxsize", [table], {"max_pages": list(max_pages), "rt": rts},
        timings=out.timings(),
    )
