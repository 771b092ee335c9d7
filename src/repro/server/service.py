"""The one serving core: arrivals -> admission -> dispatch -> an executor.

:class:`Service` turns the batch simulator into a *service*: an open-loop
arrival source feeds a bounded admission queue; a dispatcher pops queries,
sheds the ones whose queueing deadline passed, applies backpressure at the
in-flight cap and hands each query to an executor, which completes it at
its simulated completion time.  Completions feed latency back into
:class:`~repro.server.metrics.ServiceMetrics`.  There are two executors:

* :class:`QueryService` -- in process: the routing policy picks one of two
  engines -- query-centric QPipe-SP or the CJOIN-SP GQP -- that share one
  :class:`~repro.storage.manager.StorageManager` (circular scans and caches
  are common).  Under the static policy it is the Hybrid configuration;
* :class:`~repro.shard.service.ShardService` -- scatter/gather over shard
  worker processes.

The convenience entry points :func:`serve` and
:func:`~repro.shard.service.serve_sharded` build either stack from names
(policy or shard topology, arrival process, workload) and return the one
:class:`ServiceReport`; they are what the CLI's ``serve`` command and the
serving benchmarks call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterator

from repro.bench.workload import QueryJob
from repro.cache import cached_query_centric_plan
from repro.data.rng import make_rng
from repro.engine.config import CJOIN_SP, QPIPE_SP
from repro.engine.qpipe import QPipeEngine, QueryHandle
from repro.query.merge import canonical_rows
from repro.query.ssb_queries import q32, random_q11, random_q21, random_q32
from repro.server.admission import AdmissionQueue, QueuedQuery
from repro.server.arrivals import ArrivalProcess, make_arrivals
from repro.server.config import ServiceConfig
from repro.server.metrics import ServiceMetrics
from repro.server.router import QUERY_CENTRIC, RoutingPolicy, make_policy
from repro.sim.commands import SLEEP
from repro.sim.engine import SimulationError, Simulator
from repro.sim.machine import PAPER_MACHINE, MachineSpec
from repro.sim.sync import Condition
from repro.storage.manager import StorageConfig, StorageManager

#: Workloads the service can synthesize (deterministic per-query RNG
#: streams, so a served run replays exactly for any prefix length).
#: ``recurring:<rate>`` additionally takes a template-recurrence rate in
#: [0, 1]: that fraction of queries repeats one of a small fixed pool of
#: Q3.2 templates (dashboards, canned reports), the rest are fresh random
#: instances -- the workload knob the result-cache benchmark sweeps.
#: ``folding:<overlap>`` takes a predicate-overlap rate in [0, 1]: that
#: fraction of queries are *narrowings* of a small pool of broad Q3.2
#: base templates (same nations, a random year sub-range) -- subsumable
#: but usually not identical, so exact-match sharing misses them and only
#: the fold plane can attach them; the rest are fresh random instances.
SERVE_WORKLOADS = (
    "ssb-mix",
    "q32-random",
    "recurring:<rate>",
    "folding:<overlap>",
)

#: Fixed template pool size of the ``recurring:<rate>`` workload.
RECURRING_TEMPLATES = 4

#: Fixed broad-template pool size of the ``folding:<overlap>`` workload.
FOLDING_TEMPLATES = 4


def recurring_job_factory(
    seed: int, recurrence: float, n_templates: int = RECURRING_TEMPLATES
) -> Callable[[int], QueryJob]:
    """``k -> QueryJob`` where a ``recurrence`` fraction of queries repeats
    one of ``n_templates`` fixed Q3.2 instances (identical specs, hence
    identical plan signatures -- exactly what the result cache keys on)."""
    if not 0.0 <= recurrence <= 1.0:
        raise ValueError(f"recurrence rate must be in [0, 1], got {recurrence}")
    templates = [
        random_q32(make_rng(seed, "serve-template", i)) for i in range(n_templates)
    ]

    def make(k: int) -> QueryJob:
        rng = make_rng(seed, "serve", k)
        if rng.random() < recurrence:
            return QueryJob(spec=templates[rng.randrange(len(templates))])
        return QueryJob(spec=random_q32(rng))

    return make


def folding_job_factory(
    seed: int, overlap: float, n_templates: int = FOLDING_TEMPLATES
) -> Callable[[int], QueryJob]:
    """``k -> QueryJob`` where an ``overlap`` fraction of queries narrows
    one of ``n_templates`` broad Q3.2 base templates: same nation pair,
    a random year sub-range.  One in four overlap draws re-issues the
    broad template itself, so subsuming hosts and cache entries exist for
    the narrowings to fold into; exact-signature sharing almost never
    fires on this mix (the sub-ranges rarely coincide)."""
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap rate must be in [0, 1], got {overlap}")
    from repro.data.ssb import SSB_NATIONS, YEARS

    trng = make_rng(seed, "serve-fold-template")
    templates = [
        (trng.choice(SSB_NATIONS), trng.choice(SSB_NATIONS))
        for _ in range(n_templates)
    ]
    y_lo, y_hi = YEARS[0], YEARS[-1]

    def make(k: int) -> QueryJob:
        rng = make_rng(seed, "serve", k)
        if rng.random() < overlap:
            nc, ns = templates[rng.randrange(len(templates))]
            if rng.random() < 0.25:
                return QueryJob(spec=q32(nc, ns, y_lo, y_hi))
            lo = rng.randrange(y_lo, y_hi + 1)
            hi = rng.randrange(lo, y_hi + 1)
            return QueryJob(spec=q32(nc, ns, lo, hi))
        return QueryJob(spec=random_q32(rng))

    return make


def job_factory(workload: str, seed: int) -> Callable[[int], QueryJob]:
    """A ``k -> QueryJob`` factory for an unbounded served stream."""
    if workload.startswith("folding:"):
        try:
            overlap = float(workload.split(":", 1)[1])
        except ValueError:
            raise ValueError(
                f"bad folding workload {workload!r}: expected 'folding:<overlap>'"
            ) from None
        return folding_job_factory(seed, overlap)
    if workload.startswith("recurring:"):
        try:
            recurrence = float(workload.split(":", 1)[1])
        except ValueError:
            raise ValueError(
                f"bad recurring workload {workload!r}: expected 'recurring:<rate>'"
            ) from None
        return recurring_job_factory(seed, recurrence)
    if workload == "ssb-mix":
        makers = (random_q11, random_q21, random_q32)

        def make(k: int) -> QueryJob:
            return QueryJob(spec=makers[k % 3](make_rng(seed, "serve", k)))

    elif workload == "q32-random":

        def make(k: int) -> QueryJob:
            return QueryJob(spec=random_q32(make_rng(seed, "serve", k)))

    else:
        raise ValueError(
            f"unknown serve workload {workload!r} (choose from: {', '.join(SERVE_WORKLOADS)})"
        )
    return make


class Service:
    """The one admission/dispatch core, bound to one simulator.

    A source thread offers each arrival to the bounded
    :class:`~repro.server.admission.AdmissionQueue` (a full queue drops it);
    a dispatcher thread sheds queries whose queueing deadline passed, holds
    the queue while ``max_in_flight`` queries are out, and hands the rest
    to :meth:`_execute`.  The executor -- a subclass -- ends every query it
    was handed exactly once, at the query's simulated completion time:
    :meth:`_complete` when it was answered, :meth:`_release` when it failed.
    """

    def __init__(self, sim: Simulator, metrics: ServiceMetrics, config: ServiceConfig):
        self.sim = sim
        self.metrics = metrics
        self.sim.metrics = metrics  # extend, in place, what stages charge into
        self.service_config = config
        self.queue = AdmissionQueue(sim, config.queue_capacity, metrics)
        self._in_flight = 0
        self._slot_free = Condition(sim, "service.slot-free")

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return self._in_flight

    # ------------------------------------------------------------------
    def run(
        self,
        jobs: Callable[[int], QueryJob],
        arrivals: ArrivalProcess,
        duration: float | None,
    ) -> float:
        """Serve ``jobs`` under ``arrivals`` for ``duration`` simulated
        seconds (``None``: until the arrival process is exhausted), drain,
        and return the final simulated time.  An error the executor raises
        reaches the caller as itself, not wrapped by the simulator."""
        self.sim.spawn(self._source(jobs, arrivals, duration), "service-source")
        self.sim.spawn(self._dispatch(), "service-dispatcher")
        try:
            return self.sim.run()
        except SimulationError as exc:
            error = exc.__cause__
            if error is None:
                raise
        raise error

    def window(self, duration: float | None) -> float:
        """The serving window a report divides by: the run, or ``duration``
        when that is longer."""
        return max(self.sim.now, duration or 0.0) or 1.0

    # ------------------------------------------------------------------
    def _source(
        self,
        jobs: Callable[[int], QueryJob],
        arrivals: ArrivalProcess,
        duration: float | None,
    ) -> Iterator[Any]:
        seq = 0
        for gap in arrivals.gaps():
            if gap > 0:
                yield SLEEP(gap)
            if duration is not None and self.sim.now >= duration:
                break
            self.metrics.record_arrival()
            deadline = (
                self.sim.now + self.service_config.queue_timeout
                if self.service_config.queue_timeout is not None
                else None
            )
            self.queue.offer(QueuedQuery(seq, jobs(seq), self.sim.now, deadline))
            seq += 1
        self.queue.close()

    def _dispatch(self) -> Iterator[Any]:
        max_in_flight = self.service_config.max_in_flight
        while True:
            item = yield from self.queue.get()
            if item is AdmissionQueue.CLOSED:
                break
            if self._shed_if_expired(item):
                continue
            while max_in_flight is not None and self._in_flight >= max_in_flight:
                yield from self._slot_free.wait()
            # Backpressure may have held the query past its deadline.
            if self._shed_if_expired(item):
                continue
            route = self._execute(item)
            self.metrics.record_dispatch(self.sim.now - item.arrival_time, route)
            self._in_flight += 1

    def _shed_if_expired(self, item: QueuedQuery) -> bool:
        if item.expired(self.sim.now):
            self.metrics.record_timeout(self.sim.now - item.arrival_time)
            return True
        return False

    # -- the executor's side -------------------------------------------
    def _execute(self, item: QueuedQuery) -> str:
        """Start ``item`` now and return the route it took; end it later
        with :meth:`_complete` or :meth:`_release`."""
        raise NotImplementedError  # pragma: no cover

    def _complete(self, item: QueuedQuery, cache_served: bool = False) -> None:
        """``item`` was answered now: record its latency and free its
        slot."""
        self.metrics.record_completion(self.sim.now - item.arrival_time, cache_served=cache_served)
        self._release()

    def _release(self) -> None:
        """A dispatched query left the system: free its in-flight slot."""
        self._in_flight -= 1
        self._slot_free.notify_one()


class QueryService(Service):
    """The in-process executor: two engines on one simulator.

    Parameters
    ----------
    tables:
        The (immutable) database tables to serve against.
    policy:
        A :class:`~repro.server.router.RoutingPolicy` or a policy name.
    config:
        Admission/dispatch knobs (:class:`~repro.server.config.ServiceConfig`).
    """

    def __init__(
        self,
        tables: dict,
        policy: RoutingPolicy | str = "adaptive",
        config: ServiceConfig = ServiceConfig(),
        machine: MachineSpec = PAPER_MACHINE,
        storage_config: StorageConfig = StorageConfig(),
        qc_config=QPIPE_SP,
        gqp_config=CJOIN_SP,
    ):
        super().__init__(Simulator(machine), ServiceMetrics(), config)
        self.storage = StorageManager(self.sim, self.sim.cost, tables, storage_config)
        #: both engines share the one storage manager (shared circular
        #: scans, buffer pool and page cache).
        self.query_centric = QPipeEngine(self.sim, self.storage, qc_config)
        self.gqp = QPipeEngine(self.sim, self.storage, gqp_config)
        self.policy = make_policy(policy, machine) if isinstance(policy, str) else policy
        #: ``seq`` -> the engine's handle, in dispatch order
        self.dispatched: dict[int, QueryHandle] = {}

    @property
    def handles(self) -> list[QueryHandle]:
        """The engines' handles, in dispatch order."""
        return list(self.dispatched.values())

    def _execute(self, item: QueuedQuery) -> str:
        job = item.job
        cached_plan = None
        if job.spec is None:
            # Explicit plans only run query-centric: the GQP evaluates
            # star-query joins.
            route = QUERY_CENTRIC
        else:
            # Cache discount before the policy: a likely result-cache hit
            # replays materialized pages at memory-read cost, so it stays
            # query-centric instead of paying GQP admission -- and does not
            # perturb the policy's pressure feedback (it adds ~no load).
            cached_plan = cached_query_centric_plan(
                self.storage, job.spec, self.query_centric.config.query_folding
            )
            if cached_plan is not None:
                route = QUERY_CENTRIC
                self.metrics.record_cache_route()
            else:
                route = self.policy.choose(job.spec, self._in_flight, self.queue.depth)
        engine = self.query_centric if route == QUERY_CENTRIC else self.gqp
        if cached_plan is not None:
            handle = engine.submit_plan(
                cached_plan, label=job.label or job.spec.label, spec=job.spec
            )
        elif job.spec is not None:
            handle = engine.submit(job.spec, label=job.label or None)
        else:
            handle = engine.submit_plan(job.plan, label=job.label)
        self.dispatched[item.seq] = handle
        self.sim.spawn(
            self._watch(handle, item),
            name=f"service-watch-s{item.seq}",
            daemon=True,
        )
        return route

    def _watch(self, handle: QueryHandle, item: QueuedQuery) -> Iterator[Any]:
        yield from handle.wait()
        self._complete(item, cache_served=handle.query.cache_served)

    def answers(self) -> list[MergedResult]:
        """Every dispatched query's answer by ``seq``, a star query's rows in
        the shard gather's canonical order (after :meth:`run`, which drains)."""
        out = []
        for seq, handle in self.dispatched.items():
            rows, spec = handle.results, handle.query.spec
            if spec is not None:
                rows = canonical_rows(rows, spec.group_by, spec.aggregates, spec.order_by)
            out.append(MergedResult(seq, handle.query.label, list(rows)))
        return out


# ---------------------------------------------------------------------------
# The report and the one-call entry point
# ---------------------------------------------------------------------------


def fingerprint_rows(rows: list[tuple]) -> str:
    """sha256 over the canonical repr of answer rows.  ``repr`` of a float
    is its shortest round-trip form, so equal values fingerprint equally
    across processes, shard counts and executors."""
    h = hashlib.sha256()
    for r in rows:
        h.update(repr(r).encode())
        h.update(b"\n")
    return h.hexdigest()


@dataclass(frozen=True)
class MergedResult:
    """One answered query: its rows in canonical order (a shard gather's
    merged answer, or an in-process engine's) and their fingerprint."""

    seq: int
    label: str
    rows: list[tuple]

    @property
    def fingerprint(self) -> str:
        return fingerprint_rows(self.rows)


@dataclass
class ServiceReport:
    """Everything one served run measured, either executor: what served
    it, the run's identification, its metrics and the answers."""

    #: the executor's identification: ``{"policy": ...}`` plus the
    #: simulator's load, or the shard topology
    executor: dict[str, Any]
    arrival: str
    rate: float
    duration: float | None
    workload: str
    sim_seconds: float
    window: float
    metrics: ServiceMetrics
    machine_hz: float
    #: called on the first read of :attr:`results`: unread, no rows are sorted
    answers: Callable[[], list[MergedResult]] = list

    @cached_property
    def results(self) -> list[MergedResult]:
        """Every answered query's rows in canonical order, by ``seq``."""
        return self.answers()

    @property
    def throughput_qps(self) -> float:
        return self.metrics.throughput(self.window)

    def header(self) -> dict[str, Any]:
        """Run identification -- everything that is not a measurement."""
        return {
            **self.executor,
            "arrival": self.arrival,
            "rate": self.rate,
            "duration": self.duration,
            "workload": self.workload,
            "sim_seconds": self.sim_seconds,
        }

    def render(self) -> str:
        from repro.bench.reporting import format_table

        rows = [[name, value] for name, value in self.header().items()]
        rows.append(["window (s)", f"{self.window:.2f}"])
        rows += self.metrics.render_rows(self.window)
        return format_table(f"serve: {self.workload}", ["metric", "value"], rows)

    def fingerprint_lines(self) -> list[str]:
        """``"<seq> <sha256>"`` per answered query -- the artifact CI diffs
        between in-process, ``--shards 1`` and ``--shards N`` runs of one
        trace."""
        return [f"{r.seq} {r.fingerprint}" for r in self.results]

    def write_fingerprints(self, path: str) -> None:
        with open(path, "w") as fh:
            for line in self.fingerprint_lines():
                fh.write(line + "\n")


def serve(
    tables: dict,
    policy: RoutingPolicy | str = "adaptive",
    arrival: str = "poisson",
    rate: float = 8.0,
    duration: float | None = 10.0,
    seed: int = 1,
    workload: str = "ssb-mix",
    config: ServiceConfig = ServiceConfig(),
    machine: MachineSpec = PAPER_MACHINE,
    storage_config: StorageConfig = StorageConfig(),
    threshold: int | None = None,
    trace_path: str | None = None,
    qc_config=QPIPE_SP,
    gqp_config=CJOIN_SP,
) -> ServiceReport:
    """Serve a synthetic workload end-to-end and report service metrics.

    Raises :class:`ValueError` on unknown policy/arrival/workload names --
    the CLI converts those into one-line exits.
    """
    jobs = job_factory(workload, seed)
    arrivals = make_arrivals(arrival, rate, seed, trace_path=trace_path)
    if isinstance(policy, str):
        policy = make_policy(policy, machine, threshold)
    service = QueryService(
        tables,
        policy,
        config=config,
        machine=machine,
        storage_config=storage_config,
        qc_config=qc_config,
        gqp_config=gqp_config,
    )
    final = service.run(jobs, arrivals, duration)
    sim = service.sim
    if service.storage.result_cache is not None:
        service.metrics.cache_stats = service.storage.result_cache.stats()
    window = service.window(duration)
    return ServiceReport(
        executor={
            "policy": policy.name,
            "avg_cores_used": sim.avg_cores_used(window),
            "avg_read_mb_s": sim.disk.bytes_delivered / window / (1 << 20),
        },
        arrival=arrivals.name,
        rate=rate,
        duration=duration,
        workload=workload,
        sim_seconds=final,
        window=window,
        metrics=service.metrics,
        machine_hz=machine.hz,
        answers=service.answers,
    )
