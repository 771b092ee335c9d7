"""Experiment runner: one simulation per (engine config, workload) cell.

``run_batch`` reproduces the paper's methodology for the sensitivity
analysis: all queries are submitted at the same time in a single batch
("this single batch ... allows us to show the effects of SP, as all queries
with common sub-plans arrive surely inside the WoP of their pivot
operators").  ``run_closed_loop`` reproduces the Figure 16 throughput
experiment: each client submits its next query when the previous finishes.
``HYBRID`` (the paper's §7 rule) has no engine of its own: its batch is
served by the query service under the static routing policy.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

from repro.baselines.volcano import VolcanoEngine
from repro.bench.workload import QueryJob
from repro.engine.config import EngineConfig
from repro.engine.qpipe import QPipeEngine
from repro.query.star import StarQuerySpec
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
HYBRID = "hybrid"  # QueryService routing QPipe-SP / CJOIN-SP (batch only)


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


def _make_engine(sim: Simulator, storage: StorageManager, config):
    if config == POSTGRES:
        return VolcanoEngine(sim, storage)
    if isinstance(config, EngineConfig):
        return QPipeEngine(sim, storage, config)
    raise TypeError(f"unknown engine selector {config!r}")


def _config_name(config) -> str:
    if isinstance(config, EngineConfig):
        return config.name
    return config.capitalize()  # a sentinel: "Postgres", "Hybrid"


#: Per-query dispatch latency when submitting a batch: parsing, optimizing
#: and dispatching 256 queries is not instantaneous on a real system, and
#: this is what closes the step WoP of early-emitting operators for late
#: arrivals (the paper's hash-join sharing counts are well below the
#: maximum possible even though queries are "submitted at the same time").
DEFAULT_SUBMIT_STAGGER = 0.004


def _serve_hybrid(tables, workload, storage_config, machine, submit_stagger):
    """The Hybrid batch: each job arrives at its submit instant and
    QueryService routes it under the static policy."""
    from repro.server.arrivals import TraceArrivals  # deferred: import cycle
    from repro.server.config import ServiceConfig
    from repro.server.router import StaticThresholdPolicy
    from repro.server.service import QueryService

    # A running sum, so the source's sleeps land on the same instants as
    # run_batch's submitter.
    times = accumulate([submit_stagger] * (len(workload) - 1), initial=0.0)
    service = QueryService(
        tables,
        StaticThresholdPolicy(machine),
        ServiceConfig(queue_capacity=len(workload)),
        machine,
        storage_config,
    )
    service.run(workload.__getitem__, TraceArrivals(list(times)), None)
    return service.sim, service.handles


def run_batch(
    tables: dict,
    config,
    workload: list[QueryJob],
    storage_config: StorageConfig = StorageConfig(),
    machine: MachineSpec = PAPER_MACHINE,
    submit_stagger: float = DEFAULT_SUBMIT_STAGGER,
) -> RunResult:
    """Submit every job in one batch (with a small per-query dispatch
    stagger), run to completion, collect the paper's measurements.  A fresh
    simulator/storage/engine per call; the immutable ``tables`` are shared."""
    if not workload:
        raise ValueError("empty workload")
    if config == HYBRID:
        sim, handles = _serve_hybrid(tables, workload, storage_config, machine, submit_stagger)
    else:
        sim = Simulator(machine)
        storage = StorageManager(sim, sim.cost, tables, storage_config)
        engine = _make_engine(sim, storage, config)
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
) -> ThroughputResult:
    """Closed-loop clients: each submits ``spec_factory(client, k)`` and
    waits for completion before submitting the next, for ``duration``
    simulated seconds (the paper ran one hour).  ``HYBRID`` is batch-only."""
    if n_clients < 1:
        raise ValueError("need at least one client")
    if config == HYBRID:
        raise ValueError("closed-loop runs take an engine config, not Hybrid (batch-only)")
    sim = Simulator(machine)
    storage = StorageManager(sim, sim.cost, tables, storage_config)
    engine = _make_engine(sim, storage, config)
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
