"""Experiment runner: one simulation per (engine config, workload) cell.

``run_batch`` reproduces the paper's methodology for the sensitivity
analysis: all queries are submitted at the same time in a single batch
("this single batch ... allows us to show the effects of SP, as all queries
with common sub-plans arrive surely inside the WoP of their pivot
operators").  ``run_closed_loop`` reproduces the Figure 16 throughput
experiment: each client submits its next query when the previous finishes.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable

from repro.baselines.volcano import VolcanoEngine
from repro.bench.workload import QueryJob
from repro.engine.config import EngineConfig
from repro.engine.qpipe import QPipeEngine
from repro.query.star import StarQuerySpec
from repro.sim.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.sim.engine import Simulator
from repro.sim.machine import PAPER_MACHINE, MachineSpec
from repro.sim.metrics import percentile
from repro.storage.manager import StorageConfig, StorageManager

__all__ = [
    "POSTGRES",
    "HYBRID",
    "RunResult",
    "ThroughputResult",
    "run_batch",
    "run_closed_loop",
    "percentile",
]

#: Engine selectors: an EngineConfig, or one of these sentinels.
POSTGRES = "postgres"  # the query-centric Volcano baseline
HYBRID = "hybrid"  # dynamic QPipe-SP / CJOIN-SP routing (paper's conclusion)


@dataclass
class RunResult:
    """Measurements of one batch run (mirrors the paper's tables)."""

    config_name: str
    n_queries: int
    response_times: list[float]
    sim_seconds: float
    avg_cores_used: float
    avg_read_mb_s: float
    cpu_breakdown: dict[str, float]  # seconds of one core, by category
    sharing: dict[str, int]
    admission_seconds: float
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def mean_response(self) -> float:
        return statistics.fmean(self.response_times)

    @property
    def stdev_response(self) -> float:
        if len(self.response_times) < 2:
            return 0.0
        return statistics.stdev(self.response_times)

    @property
    def total_cpu_seconds(self) -> float:
        return sum(self.cpu_breakdown.values())


@dataclass
class ThroughputResult:
    """Measurements of one closed-loop run."""

    config_name: str
    n_clients: int
    completed: int
    duration: float
    avg_cores_used: float
    avg_read_mb_s: float

    @property
    def queries_per_hour(self) -> float:
        return self.completed / self.duration * 3600.0


def _make_engine(sim: Simulator, storage: StorageManager, config, cost: CostModel):
    if config == POSTGRES:
        return VolcanoEngine(sim, storage, cost)
    if config == HYBRID:
        from repro.engine.hybrid import HybridEngine

        return HybridEngine(sim, storage, cost)
    if isinstance(config, EngineConfig):
        return QPipeEngine(sim, storage, config, cost)
    raise TypeError(f"unknown engine selector {config!r}")


def _config_name(config) -> str:
    if config == POSTGRES:
        return "Postgres"
    if config == HYBRID:
        return "Hybrid"
    return config.name


#: Per-query dispatch latency when submitting a batch: parsing, optimizing
#: and dispatching 256 queries is not instantaneous on a real system, and
#: this is what closes the step WoP of early-emitting operators for late
#: arrivals (the paper's hash-join sharing counts are well below the
#: maximum possible even though queries are "submitted at the same time").
DEFAULT_SUBMIT_STAGGER = 0.004


def run_batch(
    tables: dict,
    config,
    workload: list[QueryJob],
    storage_config: StorageConfig = StorageConfig(),
    machine: MachineSpec = PAPER_MACHINE,
    cost: CostModel = DEFAULT_COST_MODEL,
    submit_stagger: float = DEFAULT_SUBMIT_STAGGER,
) -> RunResult:
    """Submit every job in one batch (with a small per-query dispatch
    stagger), run to completion, collect the paper's measurements.  A fresh
    simulator/storage/engine per call; the immutable ``tables`` are shared."""
    if not workload:
        raise ValueError("empty workload")
    sim = Simulator(machine)
    storage = StorageManager(sim, cost, tables, storage_config)
    engine = _make_engine(sim, storage, config, cost)
    handles = []

    def submitter():
        from repro.sim.commands import SLEEP

        for i, job in enumerate(workload):
            if job.spec is not None:
                handles.append(engine.submit(job.spec, label=job.label or None))
            else:
                handles.append(engine.submit_plan(job.plan, label=job.label))
            if submit_stagger > 0 and i + 1 < len(workload):
                yield SLEEP(submit_stagger)
        if False:  # pragma: no cover - ensure generator even for 1-job loads
            yield

    sim.spawn(submitter(), "submitter")
    sim.run()
    window = sim.now if sim.now > 0 else 1.0
    return RunResult(
        config_name=_config_name(config),
        n_queries=len(workload),
        response_times=[h.response_time for h in handles],
        sim_seconds=sim.now,
        avg_cores_used=sim.avg_cores_used(window),
        avg_read_mb_s=sim.disk.bytes_delivered / window / (1 << 20),
        cpu_breakdown=sim.metrics.cpu_seconds_by_category(machine.hz),
        sharing=dict(sim.metrics.sharing_events),
        admission_seconds=sim.metrics.durations.get("cjoin_admission", 0.0),
        counts=dict(sim.metrics.counts),
    )


def run_closed_loop(
    tables: dict,
    config,
    spec_factory: Callable[[int, int], StarQuerySpec],
    n_clients: int,
    duration: float,
    storage_config: StorageConfig = StorageConfig(),
    machine: MachineSpec = PAPER_MACHINE,
    cost: CostModel = DEFAULT_COST_MODEL,
) -> ThroughputResult:
    """Closed-loop clients: each submits ``spec_factory(client, k)`` and
    waits for completion before submitting the next, for ``duration``
    simulated seconds (the paper ran one hour)."""
    if n_clients < 1:
        raise ValueError("need at least one client")
    sim = Simulator(machine)
    storage = StorageManager(sim, cost, tables, storage_config)
    engine = _make_engine(sim, storage, config, cost)
    completed = [0]

    def client(cid: int):
        k = 0
        while sim.now < duration:
            handle = engine.submit(spec_factory(cid, k))
            yield from handle.wait()
            completed[0] += 1
            k += 1

    for cid in range(n_clients):
        sim.spawn(client(cid), f"client-{cid}")
    sim.run()
    window = max(sim.now, duration)
    return ThroughputResult(
        config_name=_config_name(config),
        n_clients=n_clients,
        completed=completed[0],
        duration=window,
        avg_cores_used=sim.avg_cores_used(window),
        avg_read_mb_s=sim.disk.bytes_delivered / window / (1 << 20),
    )
