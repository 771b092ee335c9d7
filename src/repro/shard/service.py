"""The scatter/gather executor: scatter, gather, merge, account.

:class:`ShardService` serves an open-loop query stream against N shard
worker processes.  Admission is the one serving core's
(:class:`~repro.server.service.Service`): the same source, bounded queue,
queueing deadlines and in-flight cap as the in-process tier, on the core's
simulator.  This module is only the executor behind it:

* Execution is real: each dispatched query's picklable spec is scattered
  to every worker over its pipe, the workers run their join-only plans in
  parallel (real processes, real cores), and the gather collects one
  partial aggregate per shard.
* Time is simulated, like every other measurement in this repository.
  Each worker reports the *simulated* service time of its shard's plan;
  the executor composes them FIFO per shard through :class:`ShardBacklog`
  -- ``start = max(dispatch + scatter_cost, shard_horizon)`` -- and the
  query completes at ``max(shard_ends) + n_shards * gather_cost``, exactly
  then on the core's clock.  Arrivals, queue waits, deadlines and latency
  percentiles all live on that clock, so a run is deterministic in its
  seed regardless of host cores, wall-clock jitter, or gather arrival
  order.

Determinism contract (asserted by tests and the CI smoke diff): merged
rows and their fingerprints are **byte-identical for any shard count and
either partition mode** -- partial aggregates use exact arithmetic, the
merge is associative, and finalization orders rows canonically
(:mod:`repro.query.merge`).

Failure semantics (exercised in ``tests/shard/test_failures.py``):

* **worker crash** mid-query: respawn (fresh process, fresh pipe), resend
  the request, retry ONCE; a second failure becomes a structured failure
  record -- the query is counted ``failed``, the service keeps going.
* **stuck shard**: after ``shard_timeout_s`` wall-clock seconds the worker
  is killed and respawned; the request is NOT retried (it may be what
  wedged the worker) and the query fails structurally.  The gather never
  hangs and later queries still complete.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

from repro.parallel.workers import WorkerCrashed, WorkerHandle, WorkerUnresponsive
from repro.query.merge import merge_states, finalize_rows
from repro.query.star import StarQuerySpec
from repro.server.admission import QueuedQuery
from repro.server.arrivals import make_arrivals
from repro.server.config import ServiceConfig
from repro.server.service import Service, ServiceReport, job_factory
from repro.shard.metrics import ShardServiceMetrics
from repro.shard.spec import ShardConfig, ShardRequest, ShardResponse
from repro.shard.worker import shard_worker_main
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.engine import Simulator
from repro.storage.arrangements import ARRANGEMENTS

__all__ = ["MergedResult", "ShardBacklog", "ShardService", "serve_sharded"]

#: Wall-clock budget for a worker's spawn-time handshake (dataset
#: generation included on a cold, non-fork start).
SPAWN_TIMEOUT_S = 120.0


def fingerprint_rows(rows: list[tuple]) -> str:
    """sha256 over the canonical repr of merged result rows.  ``repr`` of
    a float is its shortest round-trip form, so equal values fingerprint
    equally across processes and shard counts."""
    h = hashlib.sha256()
    for r in rows:
        h.update(repr(r).encode())
        h.update(b"\n")
    return h.hexdigest()


@dataclass(frozen=True)
class MergedResult:
    """One gathered query: canonical rows plus their fingerprint."""

    seq: int
    label: str
    rows: list[tuple]
    fingerprint: str


class ShardBacklog:
    """Per-shard dispatch horizons: the executor's timeline and pressure
    signal.

    A shard's **availability horizon** is the simulated time at which it
    finishes everything already dispatched to it.  Dispatching work to a
    shard advances its horizon FIFO (``start = max(ready_time, horizon)``),
    which is both the timeline bookkeeping and a backpressure signal:
    ``backlog(now)`` is queued-but-unfinished shard work in seconds, the
    per-shard analogue of the in-flight count the in-process router keys
    on."""

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        #: simulated time each shard becomes free (monotone per shard: FIFO)
        self.horizon = [0.0] * n_shards

    def dispatch(self, shard: int, ready_time: float, cost_s: float) -> tuple[float, float]:
        """Account ``cost_s`` simulated seconds of work on ``shard``, ready
        no earlier than ``ready_time``; returns ``(start, end)`` and
        advances the shard's horizon to ``end``."""
        start = max(ready_time, self.horizon[shard])
        end = start + cost_s
        self.horizon[shard] = end
        return start, end

    def backlog(self, now: float) -> list[float]:
        """Seconds of already-dispatched work still ahead of each shard."""
        return [max(0.0, h - now) for h in self.horizon]

    def pressure(self, now: float) -> float:
        """The gather-relevant pressure: the *worst* shard backlog (a
        gathered query is as late as its most backlogged shard)."""
        return max(self.backlog(now))


@dataclass
class _ShardOutcome:
    """What one shard contributed to one gathered query."""

    ok: bool
    #: simulated seconds this attempt occupies on the shard's timeline
    virtual_cost: float
    response: ShardResponse | None = None
    kind: str | None = None  # "crash" | "timeout" | "error" when not ok
    detail: str = ""
    retried: bool = False


class ShardService(Service):
    """N shard workers behind the one serving core (the scatter/gather
    executor)."""

    def __init__(
        self,
        config: ShardConfig,
        service_config: ServiceConfig = ServiceConfig(),
    ):
        super().__init__(
            Simulator(config.machine), ShardServiceMetrics(n_shards=config.n_shards), service_config
        )
        self.config = config
        self.backlog = ShardBacklog(config.n_shards)
        #: merged answers, in dispatch order
        self.results: list[MergedResult] = []
        # Fork-COW prewarm (same trick as the sweep fabric): generate the
        # dataset in the parent before spawning so every worker inherits
        # the memoized tables (column vectors included: they are the
        # stored form the workers' zero-copy partition slices/gathers
        # read) copy-on-write instead of regenerating them.
        ds = config.dataset.generate()
        # Shared-arrangement prewarm (same fork-COW trick): resolve each
        # dimension's join arrangement on its key (first schema column --
        # the generators' PK-first convention) BEFORE spawning, so every
        # worker inherits it copy-on-write and its first query's acquire()
        # is already a hit.  The modelled index build is charged ONCE per
        # shard on the backlog timeline below (mirroring the scatter-cost
        # prewarm) -- a simulated cost, whatever the host keeps; reusing
        # queries pay only their probe cost, which their simulated service
        # times already contain.
        arrange_cycles = 0.0
        for name in sorted(ds.tables):
            if name == config.fact_table:
                continue
            table = ds.tables[name]
            ARRANGEMENTS.release(ARRANGEMENTS.acquire(table, table.schema.columns[0].name))
            arrange_cycles += DEFAULT_COST_MODEL.arrange_cycles(table.real_rows)
        self.workers = [
            WorkerHandle(shard_worker_main, args=(i, config), name=f"shard-{i}")
            for i in range(config.n_shards)
        ]
        try:
            for h in self.workers:
                h.start()
            shippings = [self._await_ready(h) for h in self.workers]
        except BaseException:
            for h in self.workers:
                h.kill()  # idempotent, and a no-op on a never-started handle
            raise
        # Scatter-cost model: each worker reported what building its fact
        # partition actually shipped (packed buffers make the byte counts
        # real -- zero-copy range views ship nothing, hash gathers ship
        # full buffers).  Charge per-page + per-byte cycles onto each
        # shard's backlog horizon at t=0, so the first queries queue
        # behind the scatter; fingerprints are timing-independent, only
        # latency accounting moves.
        hz = config.machine.hz
        arrange_s = arrange_cycles / hz
        self.metrics.prewarm_arrange_s = arrange_s
        for i, ship in enumerate(shippings):
            prewarm_s = (
                DEFAULT_COST_MODEL.scatter_cycles(ship["pages"], ship["shipped_bytes"]) / hz
            )
            # Arrangement builds gate every shard equally (one parent-side
            # build, inherited by all workers before any query runs).
            self.backlog.horizon[i] = prewarm_s + arrange_s
            self.metrics.record_partition_shipping(i, ship, prewarm_s)

    # -- lifecycle -------------------------------------------------------
    def _await_ready(self, handle: WorkerHandle) -> dict:
        """Wait for one worker's spawn handshake; return its partition-
        shipping accounting (rows / pages / shipped bytes)."""
        msg = handle.recv(timeout=SPAWN_TIMEOUT_S)
        if not (isinstance(msg, tuple) and len(msg) == 4 and msg[0] == "ready"):
            raise RuntimeError(f"{handle.name}: bad handshake {msg!r}")
        return msg[3]

    def _respawn(self, handle: WorkerHandle) -> None:
        handle.respawn()
        self._await_ready(handle)
        self.metrics.shard_respawns += 1

    def close(self) -> None:
        """Shut the workers down: end each pipe and stop its process."""
        for h in self.workers:
            h.kill()

    def __enter__(self) -> "ShardService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the executor: scatter, gather, merge, account ---------------------
    def _execute(self, item: QueuedQuery) -> str:
        """Scatter/gather ``item`` for real now; it completes (or fails)
        at its gather time on the backlog timeline."""
        spec = item.job.spec
        if spec is None:
            raise ValueError("the shard tier serves star-query specs only")
        cfg = self.config
        m = self.metrics
        now = self.sim.now
        outcomes = self._scatter_gather(item.seq, spec)
        ends = []
        for i, o in enumerate(outcomes):
            _, end = self.backlog.dispatch(i, now + cfg.scatter_cost_s, o.virtual_cost)
            ends.append(end)
            if o.ok:
                m.record_shard_service(i, o.response.svc_seconds)
                m.record_arrange_hits(i, o.response.arrange_hits)
        m.record_straggler(max(range(len(ends)), key=ends.__getitem__))
        g = max(ends) + cfg.gather_cost_s * cfg.n_shards
        m.record_overhead(cfg.scatter_cost_s * cfg.n_shards, cfg.gather_cost_s * cfg.n_shards)
        m.record_pressure(self.backlog.pressure(now))
        failed = [(i, o) for i, o in enumerate(outcomes) if not o.ok]
        if failed:
            shard, o = failed[0]
            m.record_failure(
                {
                    "seq": item.seq,
                    "shard": shard,
                    "kind": o.kind,
                    "detail": o.detail,
                    "arrival_time": item.arrival_time,
                    "virtual_completion": g,
                    "deadline": item.deadline,
                    "missed_deadline": item.deadline is not None and g > item.deadline,
                }
            )
            self.sim.call_at(g, self._release)
            return cfg.engine
        if any(o.retried for o in outcomes):
            m.shard_retries += 1
        # Merge in shard order (the operation is associative and
        # commutative -- exact arithmetic -- but a fixed order keeps the
        # execution trace itself reproducible).
        merged = merge_states(spec.aggregates, [o.response.state for o in outcomes])
        rows = finalize_rows(spec.group_by, spec.aggregates, spec.order_by, merged)
        self.results.append(
            MergedResult(item.seq, item.job.label or spec.label, rows, fingerprint_rows(rows))
        )
        self.sim.call_at(g, lambda: self._complete(item))
        return cfg.engine

    def _scatter_gather(self, seq: int, spec: StarQuerySpec) -> list[_ShardOutcome]:
        """Real execution: scatter to all shards, then gather in shard
        order (the workers run concurrently; collection order only
        affects bookkeeping)."""
        faults = [self.config.fault_injection.get((seq, i)) for i in range(self.config.n_shards)]
        for h, fault in zip(self.workers, faults):
            first_fault = {"crash": "crash", "crash2": "crash", "hang": "hang"}.get(fault)
            try:
                h.send(ShardRequest(seq, spec, first_fault))
            except WorkerCrashed:
                pass  # surfaces as an immediate crash in the gather below
        return [
            self._gather_one(h, seq, spec, fault)
            for h, fault in zip(self.workers, faults)
        ]

    def _gather_one(
        self, handle: WorkerHandle, seq: int, spec: StarQuerySpec, fault: str | None
    ) -> _ShardOutcome:
        cfg = self.config
        try:
            resp = handle.recv(timeout=cfg.shard_timeout_s)
        except WorkerUnresponsive as exc:
            # A stuck shard: kill + respawn so the NEXT query is healthy,
            # but do not retry this one -- the request may be what wedged
            # the worker, and the caller's deadline is already burning.
            self.metrics.shard_timeouts += 1
            self._respawn(handle)
            return _ShardOutcome(
                ok=False, virtual_cost=cfg.timeout_penalty_s, kind="timeout", detail=str(exc)
            )
        except WorkerCrashed as exc:
            return self._retry_after_crash(handle, seq, spec, fault, str(exc))
        return self._accept(resp, seq, retried=False)

    def _retry_after_crash(
        self, handle: WorkerHandle, seq: int, spec: StarQuerySpec, fault: str | None, first: str
    ) -> _ShardOutcome:
        """Crash recovery: fresh process, resend, retry exactly once.  The
        structured failure keeps BOTH reasons when the retry fails too
        (the same contract the sweep fabric's serial retry has)."""
        self._respawn(handle)
        retry_fault = "crash" if fault == "crash2" else None
        try:
            handle.send(ShardRequest(seq, spec, retry_fault))
            resp = handle.recv(timeout=self.config.shard_timeout_s)
        except (WorkerCrashed, WorkerUnresponsive) as exc:
            self._respawn(handle)
            return _ShardOutcome(
                ok=False,
                virtual_cost=self.config.respawn_penalty_s,
                kind="crash",
                detail=f"worker crashed: {first}; retry also failed: {exc}",
            )
        out = self._accept(resp, seq, retried=True)
        if out.ok:
            out.virtual_cost += self.config.respawn_penalty_s
        return out

    def _accept(self, resp: Any, seq: int, retried: bool) -> _ShardOutcome:
        if not isinstance(resp, ShardResponse) or resp.seq != seq:
            # FIFO pipes + fresh-pipe respawns make this unreachable in
            # healthy runs; fail loudly rather than merge the wrong query.
            raise RuntimeError(f"shard protocol violation: expected seq {seq}, got {resp!r}")
        if resp.error is not None:
            return _ShardOutcome(
                ok=False, virtual_cost=0.0, kind="error", detail=resp.error, retried=retried
            )
        return _ShardOutcome(
            ok=True, virtual_cost=resp.svc_seconds, response=resp, retried=retried
        )


# ---------------------------------------------------------------------------
# The one-call entry point
# ---------------------------------------------------------------------------


def serve_sharded(
    shards: int,
    partition: str = "hash",
    engine: str = "cjoin-sp",
    arrival: str = "poisson",
    rate: float = 8.0,
    duration: float | None = 10.0,
    seed: int = 42,
    workload: str = "ssb-mix",
    sf: float = 1.0,
    config: ServiceConfig = ServiceConfig(),
    shard_timeout_s: float = 60.0,
    trace_path: str | None = None,
    fault_injection: dict | None = None,
) -> ServiceReport:
    """Serve a synthetic workload on a sharded tier and report.

    The one-call entry point behind ``python -m repro serve --shards N``
    and ``benchmarks/bench_shard_scaling.py`` -- the sharded sibling of
    :func:`repro.server.service.serve` (same workload names, same arrival
    processes, same admission knobs)."""
    from repro.parallel.cells import DatasetSpec  # local: avoid cycle at import

    shard_config = ShardConfig(
        n_shards=shards,
        partition=partition,
        engine=engine,
        dataset=DatasetSpec("ssb", sf, seed),
        shard_timeout_s=shard_timeout_s,
        fault_injection=fault_injection or {},
    )
    jobs = job_factory(workload, seed)
    arrivals = make_arrivals(arrival, rate, seed, trace_path=trace_path)
    with ShardService(shard_config, config) as service:
        final = service.run(jobs, arrivals, duration)
    return ServiceReport(
        executor={"n_shards": shards, "partition": partition, "engine": engine},
        arrival=arrivals.name,
        rate=rate,
        duration=duration,
        workload=workload,
        sim_seconds=final,
        window=service.window(duration),
        metrics=service.metrics,
        machine_hz=shard_config.machine.hz,
        results=service.results,
    )
