"""The scatter/gather front end: admission, dispatch, merge, report.

:class:`ShardService` serves an open-loop query stream against N shard
worker processes.  The control flow reuses the single-process service
tier's admission semantics unchanged -- bounded queue (drops at the door),
per-query queueing deadlines (late work is shed, not run), an in-flight
cap (backpressure) -- re-expressed on a **virtual timeline**:

* Execution is real: each admitted query's picklable spec is scattered to
  every worker over its pipe, the workers run their join-only plans in
  parallel (real processes, real cores), and the gather collects one
  partial aggregate per shard.
* Time is simulated, like every other measurement in this repository.
  Each worker reports the *simulated* service time of its shard's plan;
  the front end composes them FIFO per shard through
  :class:`~repro.server.router.ShardBacklog` --
  ``start = max(dispatch + scatter_cost, shard_horizon)`` -- and the query
  completes at ``max(shard_ends) + n_shards * gather_cost``.  Arrivals,
  queue waits, deadlines and latency percentiles all live on this
  timeline, so a run is deterministic in its seed regardless of host
  cores, wall-clock jitter, or gather arrival order.

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
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.bench.workload import QueryJob
from repro.parallel.workers import WorkerCrashed, WorkerHandle, WorkerUnresponsive
from repro.query.merge import merge_states, finalize_rows
from repro.query.star import StarQuerySpec
from repro.server.admission import QueuedQuery
from repro.server.arrivals import ArrivalProcess, make_arrivals
from repro.server.config import ServiceConfig
from repro.server.router import ShardBacklog
from repro.server.service import job_factory
from repro.shard.metrics import ShardServiceMetrics
from repro.shard.spec import ShardConfig, ShardRequest, ShardResponse
from repro.shard.worker import shard_worker_main
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.storage.arrangements import ARRANGEMENTS

__all__ = ["MergedResult", "ShardReport", "ShardService", "serve_sharded"]

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


@dataclass
class _ShardOutcome:
    """What one shard contributed to one gathered query."""

    ok: bool
    #: virtual seconds this attempt occupies on the shard's timeline
    virtual_cost: float
    response: ShardResponse | None = None
    kind: str | None = None  # "crash" | "timeout" | "error" when not ok
    detail: str = ""
    retried: bool = False


class ShardService:
    """N shard workers behind one scatter/gather front end."""

    def __init__(
        self,
        config: ShardConfig,
        service_config: ServiceConfig = ServiceConfig(),
        spawn_timeout_s: float = SPAWN_TIMEOUT_S,
    ):
        self.config = config
        self.service_config = service_config
        self.spawn_timeout_s = spawn_timeout_s
        self.metrics = ShardServiceMetrics(n_shards=config.n_shards)
        self.backlog = ShardBacklog(config.n_shards)
        self.results: list[MergedResult] = []
        self.now = 0.0
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
        # shard on the virtual timeline below (mirroring the scatter-cost
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
        started = 0
        try:
            for h in self.workers:
                h.start()
                started += 1
            shippings = [self._await_ready(h) for h in self.workers]
        except BaseException:
            for h in self.workers[:started]:
                h.kill()
            raise
        # Scatter-cost model: each worker reported what building its fact
        # partition actually shipped (packed buffers make the byte counts
        # real -- zero-copy range views ship nothing, hash gathers ship
        # full buffers).  Charge per-page + per-byte cycles onto each
        # shard's virtual timeline at t=0, so the first queries queue
        # behind the scatter; fingerprints are timing-independent, only
        # latency accounting moves.
        hz = config.machine.hz
        arrange_s = arrange_cycles / hz
        self.metrics.prewarm_arrange_s = arrange_s
        for i, ship in enumerate(shippings):
            prewarm_s = (
                DEFAULT_COST_MODEL.scatter_cycles(ship["pages"], ship["shipped_bytes"]) / hz
            )
            # Advance the horizon directly: the prewarm is not a query
            # service sample, so it must not seed the EWMA predictor.
            # Arrangement builds gate every shard equally (one parent-side
            # build, inherited by all workers before any query runs).
            self.backlog.horizon[i] = prewarm_s + arrange_s
            self.metrics.record_partition_shipping(i, ship, prewarm_s)

    # -- lifecycle -------------------------------------------------------
    def _await_ready(self, handle: WorkerHandle) -> dict:
        """Wait for one worker's spawn handshake; return its partition-
        shipping accounting (rows / pages / shipped bytes)."""
        msg = handle.recv(timeout=self.spawn_timeout_s)
        if not (isinstance(msg, tuple) and len(msg) == 4 and msg[0] == "ready"):
            raise RuntimeError(f"{handle.name}: bad handshake {msg!r}")
        return msg[3]

    def _respawn(self, handle: WorkerHandle) -> None:
        handle.respawn()
        self._await_ready(handle)
        self.metrics.shard_respawns += 1

    def close(self) -> None:
        """Shut the workers down (orderly when possible, killed always)."""
        for h in self.workers:
            try:
                h.send(None)
            except Exception:
                pass
            h.kill()

    def __enter__(self) -> "ShardService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the serving loop --------------------------------------------------
    def run(
        self,
        jobs: Callable[[int], QueryJob],
        arrivals: ArrivalProcess,
        duration: float | None,
    ) -> float:
        """Serve ``jobs`` under ``arrivals`` for ``duration`` virtual
        seconds (``None``: until the arrival process is exhausted -- only
        sensible for finite processes like traces), drain, and return the
        final virtual time.  Same contract as ``QueryService.run``."""
        cfg = self.service_config
        queue: deque[QueuedQuery] = deque()
        #: dispatched queries in completion order -- per-shard FIFO makes
        #: gather times monotone in dispatch order, so a deque suffices
        in_flight: deque[tuple[float, QueuedQuery, bool]] = deque()
        arr_iter = self._arrival_times(arrivals, duration)
        next_arrival = next(arr_iter, None)
        seq = 0
        self.now = 0.0
        while next_arrival is not None or queue or in_flight:
            next_completion = in_flight[0][0] if in_flight else math.inf
            if next_arrival is not None and next_arrival <= next_completion:
                self.now = next_arrival
                self.metrics.record_arrival()
                if len(queue) >= cfg.queue_capacity:
                    self.metrics.record_drop()
                else:
                    deadline = (
                        self.now + cfg.queue_timeout
                        if cfg.queue_timeout is not None
                        else None
                    )
                    queue.append(QueuedQuery(seq, jobs(seq), self.now, deadline))
                    self.metrics.record_admit()
                seq += 1
                next_arrival = next(arr_iter, None)
            else:
                g, item, ok = in_flight.popleft()
                self.now = g
                if ok:
                    self.metrics.record_completion(g - item.arrival_time)
            while queue and (
                cfg.max_in_flight is None or len(in_flight) < cfg.max_in_flight
            ):
                item = queue.popleft()
                if item.expired(self.now):
                    self.metrics.record_timeout(self.now - item.arrival_time)
                    continue
                in_flight.append(self._dispatch(item))
        return self.now

    @staticmethod
    def _arrival_times(arrivals: ArrivalProcess, duration: float | None) -> Iterator[float]:
        t = 0.0
        for gap in arrivals.gaps():
            t += gap
            if duration is not None and t >= duration:
                return
            yield t

    # -- dispatch: scatter, gather, merge, account --------------------------
    def _dispatch(self, item: QueuedQuery) -> tuple[float, QueuedQuery, bool]:
        spec = item.job.spec
        if spec is None:
            raise ValueError("the shard tier serves star-query specs only")
        cfg = self.config
        m = self.metrics
        outcomes = self._scatter_gather(item.seq, spec)
        ends = []
        for i, o in enumerate(outcomes):
            _, end = self.backlog.dispatch(i, self.now + cfg.scatter_cost_s, o.virtual_cost)
            ends.append(end)
            if o.ok:
                m.record_shard_service(i, o.response.svc_seconds)
                m.record_arrange_hits(i, o.response.arrange_hits)
        m.record_straggler(max(range(len(ends)), key=ends.__getitem__))
        g = max(ends) + cfg.gather_cost_s * cfg.n_shards
        m.record_overhead(cfg.scatter_cost_s * cfg.n_shards, cfg.gather_cost_s * cfg.n_shards)
        m.record_pressure(self.backlog.pressure(self.now))
        m.record_dispatch(self.now - item.arrival_time, route=cfg.engine)
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
            return (g, item, False)
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
        return (g, item, True)

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
# Report and the one-call entry point
# ---------------------------------------------------------------------------


@dataclass
class ShardReport:
    """Everything one sharded run measured, ready to render or serialize."""

    n_shards: int
    partition: str
    engine: str
    arrival: str
    rate: float
    duration: float | None
    workload: str
    sim_seconds: float
    window: float
    metrics: ShardServiceMetrics
    machine_hz: float
    results: list[MergedResult] = field(default_factory=list)

    @property
    def throughput_qps(self) -> float:
        return self.metrics.throughput(self.window)

    def header(self) -> dict[str, Any]:
        return {
            "n_shards": self.n_shards,
            "partition": self.partition,
            "engine": self.engine,
            "arrival": self.arrival,
            "rate": self.rate,
            "duration": self.duration,
            "workload": self.workload,
            "sim_seconds": self.sim_seconds,
        }

    def to_dict(self) -> dict[str, Any]:
        out = self.header()
        out.update(self.metrics.to_dict(hz=self.machine_hz, window=self.window))
        return out

    def fingerprint_lines(self) -> list[str]:
        """``"<seq> <sha256>"`` per merged query -- the artifact CI diffs
        between ``--shards 1`` and ``--shards N`` runs of one trace."""
        return [f"{r.seq} {r.fingerprint}" for r in self.results]

    def write_fingerprints(self, path: str) -> None:
        with open(path, "w") as fh:
            for line in self.fingerprint_lines():
                fh.write(line + "\n")

    def render(self) -> str:
        from repro.bench.reporting import format_table

        m = self.metrics
        lat = m.latency_percentiles()
        qw = m.queue_wait_percentiles()
        rows = [
            ["shards", f"{self.n_shards} ({self.partition}, {self.engine})"],
            ["arrival", f"{self.arrival} @ {self.rate}/s"],
            ["window (s)", f"{self.window:.2f}"],
            ["arrived", m.arrived],
            ["admitted", m.admitted],
            ["dropped (queue full)", m.dropped],
            ["timed out (shed)", m.timed_out],
            ["completed", m.completed],
            ["failed (structured)", m.failed],
            ["throughput (q/s)", f"{self.throughput_qps:.3f}"],
            ["latency p50 (s)", f"{lat['p50']:.3f}"],
            ["latency p95 (s)", f"{lat['p95']:.3f}"],
            ["latency p99 (s)", f"{lat['p99']:.3f}"],
            ["queue wait p95 (s)", f"{qw['p95']:.3f}"],
            ["scatter overhead (s)", f"{m.scatter_overhead_s:.4f}"],
            ["gather overhead (s)", f"{m.gather_overhead_s:.4f}"],
            [
                "partition shipped (bytes)",
                sum(s["shipped_bytes"] for s in m.partition_shipping.values()),
            ],
            ["prewarm scatter (s)", f"{m.prewarm_scatter_s:.4f}"],
            ["prewarm arrange (s)", f"{m.prewarm_arrange_s:.4f}"],
            ["arrangement hits", sum(m.arrange_hits.values())],
            ["peak shard backlog (s)", f"{m.peak_shard_backlog_s:.3f}"],
            ["retries / respawns / timeouts", f"{m.shard_retries} / {m.shard_respawns} / {m.shard_timeouts}"],
        ]
        for name, block in m.per_shard_percentiles().items():
            rows.append([f"{name} svc p95 (s)", f"{block['p95']:.3f} (n={block['count']:.0f})"])
        for name, n in sorted(m.straggler_counts.items()):
            rows.append([f"straggler shard{name}", n])
        return format_table(
            f"serve --shards {self.n_shards}: {self.workload}", ["metric", "value"], rows
        )


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
) -> ShardReport:
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
        window = max(final, duration or 0.0) or 1.0
        return ShardReport(
            n_shards=shards,
            partition=partition,
            engine=engine,
            arrival=arrivals.name,
            rate=rate,
            duration=duration,
            workload=workload,
            sim_seconds=final,
            window=window,
            metrics=service.metrics,
            machine_hz=shard_config.machine.hz,
            results=service.results,
        )
