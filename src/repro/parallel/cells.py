"""Picklable experiment cells.

Every sweep in :mod:`repro.bench` is a grid of *cells*: one closed,
deterministic simulation per (dataset, workload, engine configuration,
storage, machine) tuple.  A :class:`CellSpec` captures that tuple as plain
data -- no table rows, no query plans, no RNG objects -- so a cell can be
shipped to a worker process and executed there bit-identically.

Determinism by construction: a cell's inputs are *derived from the spec*,
never from shared mutable state.

* The dataset is regenerated in the worker from ``(kind, sf, seed)``
  (generation is deterministic and ``lru_cache``-memoized per process).
* The workload is regenerated from its :class:`WorkloadSpec`; every
  generator in :mod:`repro.bench.workload` seeds a fresh
  ``random.Random`` from ``(seed, kind, params...)`` via
  :func:`repro.data.rng.make_rng`, so no draw depends on how many cells
  ran before this one, in which order, or in which process.
* Everything that moves a simulated tick is a field of the cell's
  ``EngineConfig`` (query folding included), which pickles with the spec;
  no process-wide state is consulted.

The result is the same for any worker count and any execution order,
which is what lets :mod:`repro.parallel.fabric` merge by key.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any

from repro.bench.runner import (
    HYBRID,
    POSTGRES,
    DEFAULT_SUBMIT_STAGGER,
    RunResult,
    ThroughputResult,
    run_batch,
    run_closed_loop,
)
from repro.bench.workload import (
    QueryJob,
    mix_spec_factory,
    q32_limited_plans_workload,
    q32_random_workload,
    q32_selectivity_workload,
    ssb_mix_workload,
    tpch_q1_workload,
)
from repro.engine.config import EngineConfig
from repro.sim.machine import PAPER_MACHINE, MachineSpec
from repro.storage.manager import StorageConfig

__all__ = [
    "CellResult",
    "CellSpec",
    "DatasetSpec",
    "WorkloadSpec",
    "execute_cell",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Which dataset a cell runs against (regenerated per process)."""

    kind: str  # "ssb" | "tpch"
    sf: float = 1.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.kind not in ("ssb", "tpch"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")

    def generate(self):
        if self.kind == "ssb":
            from repro.data.ssb import generate_ssb

            return generate_ssb(self.sf, self.seed)
        from repro.data.tpch import generate_tpch

        return generate_tpch(self.sf, self.seed)


#: Workload kinds a :class:`WorkloadSpec` can regenerate.  Each maps to a
#: deterministic generator; the spec's fields are the generator's arguments.
WORKLOAD_KINDS = (
    "q32-random",
    "q32-plans",
    "q32-selectivity",
    "q32-fixed",
    "ssb-mix",
    "tpch-q1",
    "mix-factory",
)


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload as data: regenerated inside the cell from its own seed
    stream (``make_rng(seed, kind, params...)``), never drawn from a
    generator shared across cells."""

    kind: str
    n: int = 0
    seed: int = 1
    n_plans: int = 0
    selectivity: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(f"unknown workload kind {self.kind!r}")

    def build(self, dataset) -> list[QueryJob]:
        if self.kind == "q32-random":
            return q32_random_workload(self.n, self.seed)
        if self.kind == "q32-plans":
            return q32_limited_plans_workload(self.n, self.n_plans, self.seed)
        if self.kind == "q32-selectivity":
            return q32_selectivity_workload(self.n, self.selectivity, self.seed)
        if self.kind == "q32-fixed":
            from repro.query.ssb_queries import q32

            spec = q32("CHINA", "FRANCE", 1993, 1996)
            return [QueryJob(spec=spec) for _ in range(self.n)]
        if self.kind == "ssb-mix":
            return ssb_mix_workload(self.n, self.seed)
        if self.kind == "tpch-q1":
            return tpch_q1_workload(self.n, dataset)
        raise ValueError(f"workload kind {self.kind!r} has no batch form")


@dataclass(frozen=True)
class CellSpec:
    """One sweep cell, fully described by picklable data.

    ``config`` is an :class:`~repro.engine.config.EngineConfig` (a frozen
    dataclass of plain fields) or one of the ``POSTGRES`` / ``HYBRID``
    string sentinels -- all picklable.  ``mode`` selects the runner:
    ``"batch"`` (:func:`repro.bench.runner.run_batch`) or ``"closed"``
    (:func:`repro.bench.runner.run_closed_loop` with the Figure 16 mix
    factory, ``n_clients`` x ``duration``; ``HYBRID`` is batch-only)."""

    key: str
    config: Any
    dataset: DatasetSpec
    workload: WorkloadSpec
    storage: StorageConfig = StorageConfig()
    machine: MachineSpec = PAPER_MACHINE
    submit_stagger: float = DEFAULT_SUBMIT_STAGGER
    mode: str = "batch"
    n_clients: int = 0
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("batch", "closed"):
            raise ValueError(f"unknown cell mode {self.mode!r}")
        if self.mode == "closed" and (self.n_clients < 1 or self.duration <= 0):
            raise ValueError("closed-loop cells need n_clients >= 1 and duration > 0")
        if not isinstance(self.config, EngineConfig) and self.config not in (POSTGRES, HYBRID):
            raise ValueError(f"unpicklable/unknown engine selector {self.config!r}")
        if self.mode == "closed" and self.config == HYBRID:
            raise ValueError("closed-loop cells take an engine config, not Hybrid (batch-only)")


@dataclass
class CellResult:
    """One executed cell: the measurement plus host-side attribution."""

    key: str
    result: RunResult | ThroughputResult
    wall_s: float
    worker: int  # pid of the process that ran the cell
    retried: bool = False

    def attribution(self) -> dict[str, Any]:
        return {
            "wall_s": round(self.wall_s, 4),
            "worker": self.worker,
            "retried": self.retried,
        }


def execute_cell(spec: CellSpec) -> CellResult:
    """Run one cell to completion (the unit of work the fabric schedules).

    This is a *top-level* function (picklable by reference) and the single
    code path for serial and parallel execution: ``jobs=1`` calls it in
    the parent, ``jobs=N`` in workers -- same function, same results."""
    t0 = time.perf_counter()
    dataset = spec.dataset.generate()
    if spec.mode == "batch":
        result: RunResult | ThroughputResult = run_batch(
            dataset.tables,
            spec.config,
            spec.workload.build(dataset),
            spec.storage,
            machine=spec.machine,
            submit_stagger=spec.submit_stagger,
        )
    else:
        if spec.workload.kind != "mix-factory":
            raise ValueError("closed-loop cells use the 'mix-factory' workload")
        result = run_closed_loop(
            dataset.tables,
            spec.config,
            mix_spec_factory(spec.workload.seed),
            spec.n_clients,
            spec.duration,
            spec.storage,
            machine=spec.machine,
        )
    return CellResult(
        key=spec.key,
        result=result,
        wall_s=time.perf_counter() - t0,
        worker=os.getpid(),
    )
