"""The benchmark's only contact with the program: every ``repro`` import is here.

Only names the packages export through ``__all__`` are used, and no
execution-plane flag (``fast_path``, ``fast_flags``, ``REPRO_*``) is read or
set: the program runs in its process-default mode, so flags can be deleted
without touching the benchmark.  A name that is no longer exported, or a
counter that is missing on a workload that exercises its mechanism, ends the
run with that name -- it is never reported as 0.

``repro.bench.run_batch`` is not used although it is the batch entry point:
it drops the query handles, and the correctness gate needs every query's
rows.  :class:`Batch` submits the same way (one submitter thread, a fixed
stagger) through the exported simulator, storage and engine classes.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import pathlib
import sys
from dataclasses import dataclass
from typing import Any

_SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


class AdapterError(SystemExit):
    """The program no longer offers something the benchmark measures."""

    def __init__(self, what: str):
        super().__init__(f"benchmarks/layers: {what}")


def _public(package: str, *names: str) -> list[Any]:
    try:
        mod = importlib.import_module(package)
    except ImportError as exc:
        raise AdapterError(f"cannot import {package}: {exc}") from exc
    gone = [n for n in names if n not in getattr(mod, "__all__", ()) or not hasattr(mod, n)]
    if gone:
        raise AdapterError(f"{package} no longer exports {', '.join(gone)}")
    return [getattr(mod, n) for n in names]


(generate_ssb,) = _public("repro.data", "generate_ssb")
QueryJob, q32_random_workload, ssb_mix_workload = _public(
    "repro.bench", "QueryJob", "q32_random_workload", "ssb_mix_workload"
)
(Between,) = _public("repro.query", "Between")
Simulator, SLEEP, CostModel = _public("repro.sim", "Simulator", "SLEEP", "CostModel")
ARRANGEMENTS, StorageConfig, StorageManager = _public(
    "repro.storage", "ARRANGEMENTS", "StorageConfig", "StorageManager"
)
QPIPE_SP, CJOIN_SP, QPipeEngine = _public("repro.engine", "QPIPE_SP", "CJOIN_SP", "QPipeEngine")
QueryService, ServiceConfig, TraceArrivals = _public(
    "repro.server", "QueryService", "ServiceConfig", "TraceArrivals"
)
ShardService, ShardConfig = _public("repro.shard", "ShardService", "ShardConfig")
(DatasetSpec,) = _public("repro.parallel", "DatasetSpec")
(evaluate_plan,) = _public("repro.baselines", "evaluate_plan")

ENGINES = {"qpipe-sp": QPIPE_SP, "cjoin-sp": CJOIN_SP}

#: The database is the same for every ``--seed``, which varies the queries
#: only, so set-up cost does not depend on it.
DATA_SEED = 42
RESULT_CACHE_BYTES = 1 << 20
#: One worker, not one per core: with both of the sandbox's vCPUs busy at
#: once the host gave us 1.3-1.45x less whenever a neighbour was active, and
#: host_wall_s spread 31% across ten runs; one busy process at a time, like
#: the in-process workloads, spreads 7%.
N_SHARDS = 1
SUBMITS_PER_MARK = 4

#: Every per-layer metric read from the program's own reports (the host
#: profile adds the ``*.host_*`` ones).  A layer a workload leaves idle
#: keeps the 0.0 it starts with.
COUNTER_METRICS = (
    "sim.threads",
    "sim.cpu_core_s.hashing",
    "sim.cpu_core_s.joins",
    "sim.cpu_core_s.aggregation",
    "sim.cpu_core_s.scans",
    "sim.cpu_core_s.locks",
    "sim.cpu_core_s.misc",
    "sim.avg_cores_used",
    "sim.avg_read_mb_s",
    "storage.arrangement_builds",
    "storage.arrangement_hits",
    "storage.arrangement_hit_ratio",
    "storage.bufferpool_hit_ratio",
    "storage.resident_mb",
    "engine.sp_attach.scan",
    "engine.sp_attach.join",
    "engine.sp_attach.aggregate",
    "engine.sp_attach.cjoin",
    "engine.fold_attach",
    "gqp.queries_admitted",
    "gqp.admission_batches",
    "gqp.admission_sim_s",
    "query.fold_dim_hits",
    "cache.probes",
    "cache.hits",
    "cache.fold_hits",
    "cache.hit_ratio",
    "cache.insertions",
    "cache.evictions",
    "cache.resident_mb",
    "cache.hit_latency_p50_s",
    "cache.computed_latency_p50_s",
    "server.queue_wait_p95_s",
    "server.routed_qc",
    "server.routed_gqp",
    "server.cache_routed",
    "server.dropped",
    "server.timed_out",
    "shard.worker_cpu_s",
    "shard.svc_p50_s",
    "shard.straggler_skew",
    "shard.scatter_overhead_sim_s",
    "shard.gather_overhead_sim_s",
    "shard.prewarm_scatter_sim_s",
    "shard.prewarm_arrange_sim_s",
    "shard.shipped_bytes",
    "shard.retries",
)


# ---------------------------------------------------------------------------
# Query construction (called by workloads.py)
# ---------------------------------------------------------------------------


def random_q32_specs(n: int, seed: int) -> list:
    return [job.spec for job in q32_random_workload(n, seed)]


def ssb_mix_specs(n: int, seed: int) -> list:
    return [job.spec for job in ssb_mix_workload(n, seed)]


def with_year_range(spec, year_lo: int, year_hi: int):
    """``spec`` with its date dimension's predicate replaced by a year range."""
    dims = tuple(
        dataclasses.replace(d, predicate=Between("d_year", year_lo, year_hi))
        if d.dim_table == "date"
        else d
        for d in spec.dims
    )
    return dataclasses.replace(spec, dims=dims)


# ---------------------------------------------------------------------------
# Reading the program's reports
# ---------------------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: an observed value, never an interpolation."""
    xs = sorted(values)
    return xs[max(0, math.ceil(p * len(xs)) - 1)]


def _prefix_sum(counters: dict, prefix: str, source: str, required: bool) -> float:
    total = sum(v for k, v in counters.items() if k.startswith(prefix))
    if required and total == 0:
        raise AdapterError(
            f"no '{prefix}*' counter in {source} on a workload that exercises it; "
            f"present: {sorted(counters)}"
        )
    return float(total)


def _key(mapping: dict, key: str, source: str) -> float:
    if key not in mapping:
        raise AdapterError(f"'{key}' missing from {source}; present: {sorted(mapping)}")
    return float(mapping[key])


def _ratio(useful: float, attempts: float) -> float:
    return useful / attempts if attempts else 0.0


def _resident_mb(tables: dict) -> float:
    total = 0
    for table in tables.values():
        fp = table.memory_footprint()
        total += _key(fp, "rows_bytes", "Table.memory_footprint") + _key(
            fp, "columns_bytes", "Table.memory_footprint"
        )
    return total / 1e6


def _sim_counters(out: dict, sim, tables: dict, window: float, exercises: frozenset) -> None:
    """The layers every in-process simulation exercises."""
    m = sim.metrics
    out["sim.threads"] = float(len(sim.threads))
    for cat, s in m.cpu_seconds_by_category(sim.machine.hz).items():
        name = f"sim.cpu_core_s.{cat}"
        if name not in out:
            raise AdapterError(f"unknown CPU category '{cat}' in Metrics.cpu_seconds_by_category")
        out[name] = s
    out["sim.avg_cores_used"] = sim.avg_cores_used(window)
    out["sim.avg_read_mb_s"] = sim.disk.bytes_delivered / window / (1 << 20)
    arr = ARRANGEMENTS.stats()
    builds, hits = _key(arr, "builds", "ARRANGEMENTS.stats"), _key(arr, "hits", "ARRANGEMENTS.stats")
    if "storage" in exercises and builds == 0:
        raise AdapterError("ARRANGEMENTS.stats reports no build on a workload that joins")
    out["storage.arrangement_builds"] = builds
    out["storage.arrangement_hits"] = hits
    out["storage.arrangement_hit_ratio"] = _ratio(hits, hits + builds)
    bp_hits = _prefix_sum(m.counts, "bufferpool_hits", "Metrics.counts", "storage" in exercises)
    bp_miss = _prefix_sum(m.counts, "bufferpool_misses", "Metrics.counts", "storage.io" in exercises)
    out["storage.bufferpool_hit_ratio"] = _ratio(bp_hits, bp_hits + bp_miss)
    out["storage.resident_mb"] = _resident_mb(tables)
    shared = m.sharing_events
    out["engine.sp_attach.scan"] = _prefix_sum(shared, "tablescan", "sharing_events", "engine.scan" in exercises)
    out["engine.sp_attach.join"] = _prefix_sum(shared, "join", "sharing_events", "engine.join" in exercises)
    # Identical aggregates, identical CJOIN packets and fold attaches are
    # rare enough to be absent on some seeds: never required.
    out["engine.sp_attach.aggregate"] = _prefix_sum(shared, "aggregate", "sharing_events", False)
    out["engine.sp_attach.cjoin"] = _prefix_sum(shared, "cjoin", "sharing_events", False)
    out["engine.fold_attach"] = _prefix_sum(m.counts, "fold_attach:", "Metrics.counts", False)
    gqp = "gqp" in exercises
    out["gqp.queries_admitted"] = _prefix_sum(m.counts, "cjoin_queries_admitted", "Metrics.counts", gqp)
    out["gqp.admission_batches"] = _prefix_sum(m.counts, "cjoin_admission_batches", "Metrics.counts", gqp)
    out["gqp.admission_sim_s"] = _prefix_sum(m.durations, "cjoin_admission", "Metrics.durations", gqp)
    out["query.fold_dim_hits"] = _prefix_sum(m.counts, "cjoin_fold_dim_", "Metrics.counts", gqp)


# ---------------------------------------------------------------------------
# One adapter per front end: setup() -> run() -> outcome() / layer_counters()
# ---------------------------------------------------------------------------


@dataclass
class QueryRecord:
    """One completed query on the simulated clock, with its answer."""

    seq: int
    arrival: float
    dispatch: float
    completion: float
    rows: list
    #: extra simulated spans of this query: (name, start, end)
    spans: list[tuple[str, float, float]] = dataclasses.field(default_factory=list)


@dataclass
class Outcome:
    """What arrived and what was answered; the difference was dropped,
    shed or failed inside the program."""

    arrived: int
    completed: list[QueryRecord]


class _Adapter:
    def __init__(self, w, stream):
        self.w, self.stream = w, stream

    def _load_tables(self, spans) -> None:
        with spans.span("data.generate_ssb"):
            self.tables = generate_ssb(self.w.sf, DATA_SEED).tables
        with spans.span("storage.warm_columns"):
            for table in self.tables.values():
                table.warm_columns()

    def _spawn_ticker(self, sim, stamp, finished) -> None:
        """Mark equal steps of simulated time on the host clock.  Reps do
        identical work between two marks, which is what lets bench.py take
        the minimum slice by slice.  The thread only sleeps: it charges no
        simulated resource and moves no other event (checked: every
        per-query timestamp is the same with and without it)."""

        def ticker():
            while not finished():
                yield SLEEP(self.w.checkpoint_every)
                stamp()

        sim.spawn(ticker(), "bench-ticker", daemon=True)

    def close(self) -> None:
        pass


class Batch(_Adapter):
    """Every query submitted in one batch to one engine on one simulator."""

    def setup(self, spans) -> None:
        w = self.w
        self._load_tables(spans)
        storage_config = (
            StorageConfig(resident="disk", direct_io=True) if w.disk_resident else StorageConfig()
        )
        self.sim = Simulator()
        storage = StorageManager(self.sim, CostModel(), self.tables, storage_config)
        self.engine = QPipeEngine(self.sim, storage, ENGINES[w.engine])
        self.handles: list = []

    def _submitter(self, stamp):
        now = 0.0
        for i, (t, spec) in enumerate(zip(self.stream.arrivals, self.stream.specs)):
            if t > now:
                yield SLEEP(t - now)
                now = t
            # Building 200+ plans is a third of the run's host time and most
            # of it falls before the ticker's first mark: mark it too.
            if i and i % SUBMITS_PER_MARK == 0:
                stamp()
            self.handles.append(self.engine.submit(spec))

    def run(self, stamp) -> None:
        n = len(self.stream.specs)
        self.sim.spawn(self._submitter(stamp), "submitter")
        self._spawn_ticker(
            self.sim, stamp, lambda: len(self.handles) == n and all(h.done for h in self.handles)
        )
        self.sim.run()

    def outcome(self) -> Outcome:
        done = [
            QueryRecord(i, t, h.query.submit_time, h.query.finish_time, h.results)
            for i, (t, h) in enumerate(zip(self.stream.arrivals, self.handles))
            if h.done
        ]
        return Outcome(len(self.stream.specs), done)

    def layer_counters(self) -> dict[str, float]:
        out = dict.fromkeys(COUNTER_METRICS, 0.0)
        window = max(h.query.finish_time for h in self.handles)
        _sim_counters(out, self.sim, self.tables, window, self.w.exercises)
        return out


class Serve(_Adapter):
    """Open-loop arrivals through QueryService: admission, adaptive routing
    to both engines, a result cache smaller than the working set."""

    def setup(self, spans) -> None:
        self._load_tables(spans)
        self.service = QueryService(
            self.tables,
            "adaptive",
            ServiceConfig(queue_capacity=len(self.stream.specs)),
            storage_config=StorageConfig(
                result_cache_bytes=RESULT_CACHE_BYTES, result_cache_policy="benefit"
            ),
        )

    def run(self, stamp) -> None:
        jobs = [QueryJob(spec=s) for s in self.stream.specs]
        m = self.service.metrics
        self._spawn_ticker(
            self.service.sim, stamp, lambda: m.completed + m.dropped + m.timed_out >= len(jobs)
        )
        self.service.run(jobs.__getitem__, TraceArrivals(self.stream.arrivals), None)

    def outcome(self) -> Outcome:
        svc, m = self.service, self.service.metrics
        done = []
        # With nothing dropped or shed the dispatcher is FIFO, so the i-th
        # handle is the i-th arrival; the spec identity check keeps it honest.
        if len(svc.handles) == m.arrived == len(self.stream.specs):
            for i, (t, h) in enumerate(zip(self.stream.arrivals, svc.handles)):
                if h.query.spec is not self.stream.specs[i]:
                    raise AdapterError("QueryService.handles is no longer in arrival order")
                if h.done:
                    done.append(QueryRecord(i, t, h.query.submit_time, h.query.finish_time, h.results))
        return Outcome(m.arrived, done)

    def layer_counters(self) -> dict[str, float]:
        out = dict.fromkeys(COUNTER_METRICS, 0.0)
        svc, m = self.service, self.service.metrics
        window = max(h.query.finish_time for h in svc.handles)
        _sim_counters(out, svc.sim, self.tables, window, self.w.exercises)
        cache = svc.storage.result_cache
        if cache is None:
            raise AdapterError("StorageManager.result_cache is None with result_cache_bytes set")
        cs = cache.stats()
        src = "ResultCache.stats"
        hits, misses, folds = _key(cs, "hits", src), _key(cs, "misses", src), _key(cs, "fold_hits", src)
        out["cache.probes"] = hits + misses
        out["cache.hits"] = hits
        out["cache.fold_hits"] = folds
        out["cache.hit_ratio"] = _ratio(hits + folds, hits + misses)
        out["cache.insertions"] = _key(cs, "insertions", src)
        out["cache.evictions"] = _key(cs, "evictions", src)
        out["cache.resident_mb"] = _key(cs, "resident_bytes", src) / 1e6
        if "cache" in self.w.exercises and not (hits and folds and out["cache.evictions"]):
            raise AdapterError(f"{src} reports no exact hit, no fold hit or no eviction: {cs}")
        if m.cache_hit_latencies:
            out["cache.hit_latency_p50_s"] = percentile(m.cache_hit_latencies, 0.5)
        out["cache.computed_latency_p50_s"] = percentile(m.cache_miss_latencies, 0.5)
        out["server.queue_wait_p95_s"] = percentile(m.queue_waits, 0.95)
        out["server.routed_qc"] = _key(m.routed, "query-centric", "ServiceMetrics.routed")
        out["server.routed_gqp"] = _key(m.routed, "gqp", "ServiceMetrics.routed")
        out["server.cache_routed"] = float(m.cache_routed)
        out["server.dropped"] = float(m.dropped)
        out["server.timed_out"] = float(m.timed_out)
        return out


class Sharded(_Adapter):
    """Scatter/gather over worker processes; each shard runs one query at
    a time on a fresh simulator, composed on the front end's virtual clock."""

    service = None

    def setup(self, spans) -> None:
        w = self.w
        # ShardService generates the (memoised) dataset itself; doing it
        # first separates generation from partition + spawn in the spans.
        self._load_tables(spans)
        with spans.span("shard.spawn"):
            self.service = ShardService(
                ShardConfig(
                    n_shards=N_SHARDS,
                    partition="hash",
                    engine=w.engine,
                    dataset=DatasetSpec("ssb", w.sf, DATA_SEED),
                ),
                ServiceConfig(queue_capacity=len(self.stream.specs)),
            )
        self.horizon0 = list(self.service.backlog.horizon)

    def run(self, stamp) -> None:
        jobs = [QueryJob(spec=s) for s in self.stream.specs]
        every = int(self.w.checkpoint_every)

        def job(seq: int):
            # The front end asks for job k when arrival k is admitted: the
            # same point of the work stream in every rep.
            if seq and seq % every == 0:
                stamp()
            return jobs[seq]

        self.service.run(job, TraceArrivals(self.stream.arrivals), None)

    def outcome(self) -> Outcome:
        svc, m = self.service, self.service.metrics
        cfg = svc.config
        done = []
        # Per-shard FIFO makes completions monotone in dispatch order, so
        # with every arrival gathered the k-th sample belongs to arrival k.
        if len(svc.results) == m.completed == m.arrived == len(m.queue_waits):
            horizon = list(self.horizon0)
            for k, res in enumerate(svc.results):
                arrival = self.stream.arrivals[res.seq]
                dispatch = arrival + m.queue_waits[k]
                completion = arrival + m.latencies[k]
                rec = QueryRecord(res.seq, arrival, dispatch, completion, res.rows)
                ends = []
                for i in range(cfg.n_shards):
                    start = max(dispatch + cfg.scatter_cost_s, horizon[i])
                    horizon[i] = start + m.per_shard_svc[i][k]
                    ends.append(horizon[i])
                    rec.spans.append((f"shard{i}.service", start, horizon[i]))
                rec.spans.append(("gather", max(ends), completion))
                done.append(rec)
        return Outcome(m.arrived, done)

    def layer_counters(self) -> dict[str, float]:
        import resource

        out = dict.fromkeys(COUNTER_METRICS, 0.0)
        m = self.service.metrics
        if any(h.alive for h in self.service.workers):
            raise AdapterError("layer_counters() before close(): worker CPU time is not final")
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        out["shard.worker_cpu_s"] = ru.ru_utime + ru.ru_stime
        arr = ARRANGEMENTS.stats()
        builds = _key(arr, "builds", "ARRANGEMENTS.stats")
        hits = float(sum(m.arrange_hits.values()))
        if builds == 0 or hits == 0:
            raise AdapterError("shard tier reports no arrangement prewarm build or no worker hit")
        out["storage.arrangement_builds"] = builds
        out["storage.arrangement_hits"] = hits
        out["storage.arrangement_hit_ratio"] = _ratio(hits, hits + builds)
        out["storage.resident_mb"] = _resident_mb(self.tables)
        svc_all = [s for per in m.per_shard_svc.values() for s in per]
        if not svc_all or not m.straggler_counts:
            raise AdapterError("ShardServiceMetrics has no per-shard service samples")
        out["shard.svc_p50_s"] = percentile(svc_all, 0.5)
        out["shard.straggler_skew"] = max(m.straggler_counts.values()) / sum(
            m.straggler_counts.values()
        )
        out["shard.scatter_overhead_sim_s"] = m.scatter_overhead_s
        out["shard.gather_overhead_sim_s"] = m.gather_overhead_s
        out["shard.prewarm_scatter_sim_s"] = m.prewarm_scatter_s
        out["shard.prewarm_arrange_sim_s"] = m.prewarm_arrange_s
        out["shard.shipped_bytes"] = float(
            sum(_key(s, "shipped_bytes", "partition_shipping") for s in m.partition_shipping.values())
        )
        out["shard.retries"] = float(m.shard_retries)
        return out

    def close(self) -> None:
        if self.service is not None:
            self.service.close()


ADAPTERS = {"batch": Batch, "serve": Serve, "sharded": Sharded}


# ---------------------------------------------------------------------------
# The reference answers
# ---------------------------------------------------------------------------


def _canonical(rows) -> list[tuple]:
    # Sort on the exact (non-float) fields first so two answers that agree
    # up to float rounding pair their rows the same way.
    def key(row):
        return (
            tuple(repr(v) for v in row if not isinstance(v, float)),
            tuple(v for v in row if isinstance(v, float)),
        )

    return sorted((tuple(r) for r in rows), key=key)


def _same_rows(got, want) -> bool:
    got, want = _canonical(got), _canonical(want)
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if len(g) != len(w):
            return False
        for a, b in zip(g, w):
            if isinstance(a, float) or isinstance(b, float):
                if not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif a != b:
                return False
    return True


def count_wrong_answers(tables: dict, specs: list, records: list[QueryRecord]) -> int:
    """How many of ``records`` differ from the naive reference evaluator."""
    reference: dict = {}
    wrong = 0
    for rec in records:
        spec = specs[rec.seq]
        sig = spec.signature
        if sig not in reference:
            reference[sig] = evaluate_plan(spec.to_query_centric_plan(tables))
        if not _same_rows(rec.rows, reference[sig]):
            wrong += 1
    return wrong
