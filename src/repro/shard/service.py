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

Host execution: each shard runs on ``R = replicas_per_shard(n_shards)``
identical workers (one per usable core, at most two); request ``seq``
goes to replica ``seq % R``, and while query ``k`` is gathered, queries
``k+1 .. k+R-1`` already compute on the other replicas.  A shard's
answer depends only on the spec and its data, so nothing simulated moves
(``docs/sharding.md``).
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.bench.workload import QueryJob
from repro.parallel.workers import WorkerCrashed, WorkerHandle, WorkerUnresponsive
from repro.query.merge import merge_states, finalize_rows
from repro.query.star import StarQuerySpec
from repro.server.admission import QueuedQuery
from repro.server.arrivals import ArrivalProcess, make_arrivals
from repro.server.config import ServiceConfig
from repro.server.service import MergedResult, Service, ServiceReport, job_factory
from repro.shard.metrics import ShardServiceMetrics
from repro.shard.partition import shard_rows
from repro.shard.spec import ShardConfig, ShardRequest, ShardResponse
from repro.shard.worker import shard_worker_main
from repro.sim.engine import Simulator
from repro.storage.arrangements import ARRANGEMENTS

__all__ = [
    "MergedResult",
    "ShardBacklog",
    "ShardService",
    "replicas_per_shard",
    "serve_sharded",
    "usable_cores",
]

#: Wall-clock budget for a worker's spawn-time handshake (dataset
#: generation included on a cold, non-fork start).
SPAWN_TIMEOUT_S = 120.0

#: The fault a request carries on its first attempt, by injected kind
#: (``"crash2"`` crashes the retry too; see :meth:`ShardService._retry_after_crash`).
_FIRST_ATTEMPT = {"crash": "crash", "crash2": "crash", "hang": "hang"}


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity, else the host's
    count.  The shard tier's replica count is derived from it alone."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API on this platform
        return os.cpu_count() or 1


#: Most workers a shard runs on.  Two is the count measured (host time,
#: CPU time, summed worker RSS; docs/performance.md).  A constant, not a
#: setting: the affinity ignores a cgroup CPU quota, and in hash mode each
#: replica gathers a private copy of its fact partition, so memory grows
#: with the count.
MAX_REPLICAS = 2


def replicas_per_shard(n_shards: int) -> int:
    """``R``: the workers each of ``n_shards`` shards runs on -- one per
    usable core, at most :data:`MAX_REPLICAS`, at least one."""
    return max(1, min(MAX_REPLICAS, usable_cores() // n_shards))


class _ReadAhead(ArrivalProcess):
    """One pass over a job source and its arrival gaps that the executor
    may read ahead of the serving core's source thread.

    The core pulls gaps (:meth:`gaps`) and jobs (:meth:`job`) through it
    exactly as from the originals -- each gap and each job is produced
    once, in order -- and :meth:`peek` shows the executor the job of a
    later arrival.  Entries below the last dispatched ``seq`` are dropped."""

    def __init__(
        self, jobs: Callable[[int], QueryJob], arrivals: ArrivalProcess, duration: float | None
    ):
        self._make = jobs
        self._gaps = arrivals.gaps()
        self._duration = duration
        #: arrival time of the last buffered entry, summed as the source sleeps
        self._now = 0.0
        #: ``[gap, arrives, job]`` per buffered arrival, from ``seq == self._base``
        self._buf: deque[list] = deque()
        self._base = 0
        self._made = 0

    def _entry(self, seq: int) -> list | None:
        while self._base + len(self._buf) <= seq:
            gap = next(self._gaps, None)
            if gap is None:
                return None
            if gap > 0:
                self._now += gap
            arrives = self._duration is None or self._now < self._duration
            self._buf.append([gap, arrives, None])
        return self._buf[seq - self._base]

    def gaps(self) -> Iterator[float]:
        seq = 0
        while (entry := self._entry(seq)) is not None:
            yield entry[0]
            seq += 1

    def job(self, seq: int) -> QueryJob:
        while self._made <= seq:
            self._entry(self._made)[2] = self._make(self._made)
            self._made += 1
        return self._entry(seq)[2]

    def peek(self, seq: int) -> QueryJob | None:
        """The job of arrival ``seq``, or ``None`` if the stream ends or the
        serving window closes before it arrives."""
        entry = self._entry(seq)
        if entry is None or not entry[1]:
            return None
        return self.job(seq)

    def dispatched(self, seq: int) -> None:
        """Query ``seq`` was dispatched: no arrival before it is read again."""
        while self._base < seq and self._buf:
            self._buf.popleft()
            self._base += 1


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
        cost = self.sim.cost
        arrange_cycles = 0.0
        for name in sorted(ds.tables):
            table = ds.tables[name]
            if name == config.fact_table:
                # Likewise the fact placement: hashed once here, inherited
                # by every worker's shard_tables instead of per worker.
                shard_rows(
                    table.num_rows, config.n_shards, config.partition, config.partition_salt
                )
                continue
            ARRANGEMENTS.release(ARRANGEMENTS.acquire(table, table.schema.columns[0].name))
            arrange_cycles += cost.arrange_cycles(table.real_rows)
        #: ``replicas[r][i]``: shard ``i``'s worker serving every ``seq``
        #: with ``seq % R == r`` (identical data, forked after the prewarm)
        self.replicas = [
            [
                WorkerHandle(shard_worker_main, args=(i, config), name=f"shard-{i}.{r}")
                for i in range(config.n_shards)
            ]
            for r in range(replicas_per_shard(config.n_shards))
        ]
        self.workers = [h for replica in self.replicas for h in replica]
        #: the ``seq`` whose answer each worker still owes (at most one)
        self._owed: dict[WorkerHandle, int] = {}
        self._ahead: _ReadAhead | None = None
        try:
            for h in self.workers:
                h.start()
            # Every replica of a shard ships the same partition.
            shippings = [self._await_ready(h) for h in self.workers][: config.n_shards]
        except BaseException:
            for h in self.workers:
                h.kill()  # idempotent, and a no-op on a never-started handle
            raise
        finally:
            # Every worker has its placement now; a respawned one
            # recomputes its own in the child.
            shard_rows.cache_clear()
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
            prewarm_s = cost.scatter_cycles(ship["pages"], ship["shipped_bytes"]) / hz
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

    def run(
        self,
        jobs: Callable[[int], QueryJob],
        arrivals: ArrivalProcess,
        duration: float | None,
    ) -> float:
        """:meth:`Service.run` over a read-ahead buffer of ``jobs`` and
        ``arrivals``, so the executor can send later queries early."""
        self._ahead = _ReadAhead(jobs, arrivals, duration)
        return super().run(self._ahead.job, self._ahead, duration)

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
            MergedResult(item.seq, item.job.label or spec.label, rows)
        )
        self.sim.call_at(g, lambda: self._complete(item))
        return cfg.engine

    def _scatter_gather(self, seq: int, spec: StarQuerySpec) -> list[_ShardOutcome]:
        """Real execution: scatter to all shards (unless ``seq`` went
        ahead), send the next queries ahead, then gather ``seq`` in shard
        order (the workers run concurrently; collection order only
        affects bookkeeping)."""
        handles = self.replicas[seq % len(self.replicas)]
        faults = [self.config.fault_injection.get((seq, i)) for i in range(self.config.n_shards)]
        for h, fault in zip(handles, faults):
            if self._owed.get(h) != seq:
                self._send(h, ShardRequest(seq, spec, _FIRST_ATTEMPT.get(fault)))
        self._send_ahead(seq)
        return [
            self._gather_one(h, seq, spec, fault)
            for h, fault in zip(handles, faults)
        ]

    def _send_ahead(self, seq: int) -> None:
        """Make sure queries ``seq+1 .. seq+R-1`` are out, one per replica,
        so they compute while ``seq`` is gathered.  A request carrying an
        injected fault is never sent ahead: it goes at its dispatch, as
        with one replica."""
        ahead = self._ahead
        if ahead is None:
            return
        ahead.dispatched(seq)
        n_replicas = len(self.replicas)
        for later in range(seq + 1, seq + n_replicas):
            job = ahead.peek(later)
            if job is None:
                return
            if job.spec is None:
                continue
            for i, h in enumerate(self.replicas[later % n_replicas]):
                if self._owed.get(h) != later and (later, i) not in self.config.fault_injection:
                    self._send(h, ShardRequest(later, job.spec))

    def _send(self, handle: WorkerHandle, request: ShardRequest) -> None:
        """Send ``request``; first drain and discard the answer ``handle``
        still owes a query that was shed after its request went ahead."""
        if handle in self._owed:
            del self._owed[handle]
            try:
                handle.recv(timeout=self.config.shard_timeout_s)
            except (WorkerCrashed, WorkerUnresponsive):
                self._respawn(handle)
        self._owed[handle] = request.seq
        try:
            handle.send(request)
        except WorkerCrashed:
            pass  # surfaces as an immediate crash in the gather

    def _gather_one(
        self, handle: WorkerHandle, seq: int, spec: StarQuerySpec, fault: str | None
    ) -> _ShardOutcome:
        cfg = self.config
        del self._owed[handle]
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
        answers=service.results.copy,
    )
