"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Run a workload on one engine configuration and print the measurements::

        python -m repro run --config qpipe-sp --workload q32-random -n 64
        python -m repro run --config cjoin-sp --workload ssb-mix -n 32 --disk

``query``
    Run one SSB query (any of the thirteen) and print its result rows::

        python -m repro query Q3.2 --config cjoin-sp --sf 1

``experiment``
    Regenerate a paper figure/table::

        python -m repro experiment fig6
        python -m repro experiment fig10 --full

``sweep``
    Regenerate many figures/tables at once on the parallel fabric, with
    ordered per-cell progress and a wall-clock summary::

        python -m repro sweep --jobs 4                 # every experiment
        python -m repro sweep fig10 fig13 --jobs 4 --full
        python -m repro sweep fig13 --jobs 2 --json-dir out/

``serve``
    Run the admission-controlled query service against an open-loop
    arrival stream -- in process, or on ``--shards N`` worker processes --
    and print service-level metrics::

        python -m repro serve --policy adaptive --arrival poisson --rate 8 --duration 5
        python -m repro serve --policy static --arrival burst --rate 16 --duration 10 --json
        python -m repro serve --shards 2 --rate 4 --duration 1 --sf 0.2

``list``
    Show available engine configurations, workloads, experiments,
    routing policies and arrival processes.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.bench import runner as _runner
from repro.bench.reporting import format_table
from repro.data.ssb import generate_ssb
from repro.engine.config import CJOIN, CJOIN_SP, QPIPE, QPIPE_CS, QPIPE_SP
from repro.parallel import DatasetSpec, WorkloadSpec
from repro.sim.machine import GB
from repro.storage.manager import StorageConfig

import dataclasses as _dc

CONFIGS = {
    "qpipe": QPIPE,
    "qpipe-cs": QPIPE_CS,
    "qpipe-sp": QPIPE_SP,
    "cjoin": CJOIN,
    "cjoin-sp": CJOIN_SP,
    "cjoin-sp-shagg": _dc.replace(
        CJOIN_SP, shared_aggregation=True, name="CJOIN-SP+shagg"
    ),
    "postgres": _runner.POSTGRES,
    "hybrid": _runner.HYBRID,
}

WORKLOADS = ("q32-random", "q32-plans", "q32-selectivity", "ssb-mix", "tpch-q1")


def _experiments() -> dict[str, Callable]:
    from repro.bench import ablations, experiments

    return {
        "fig2": experiments.fig2_wop,
        "fig6": experiments.fig6_push_vs_pull,
        "fig10": experiments.fig10_concurrency,
        "fig11": experiments.fig11_selectivity,
        "fig12": experiments.fig12_selectivity_concurrency,
        "fig13": experiments.fig13_scale_factor,
        "fig14": experiments.fig14_similarity,
        "fig15": experiments.fig15_plan_variety,
        "fig16": experiments.fig16_mix,
        "table1": experiments.table1_rules_of_thumb,
        "spl-maxsize": experiments.spl_max_size_ablation,
        "ablate-distributor": ablations.ablate_distributor_parts,
        "ablate-filters": ablations.ablate_filter_workers,
        "ablate-oversub": ablations.ablate_oversubscription,
        "ablate-prediction": ablations.ablate_prediction_model,
        "ablate-hybrid": ablations.ablate_hybrid_routing,
        "ablate-threads": ablations.ablate_thread_configuration,
        "ablate-batching": ablations.ablate_batched_execution,
        "interarrival": ablations.interarrival_sweep,
    }


#: config field -> the flag that sets it, so that a value a config refuses
#: is reported under the flag's name
FLAG_OF_FIELD = {
    "bufferpool_bytes": "--bufferpool-gb",
    "result_cache_bytes": "--result-cache-mb",
    "queue_capacity": "--queue-capacity",
    "max_in_flight": "--max-in-flight",
    "queue_timeout": "--timeout",
    "shard_timeout_s": "--shard-timeout",
    "n_shards": "--shards",
}


def _usage_error(command: str, exc: Exception) -> SystemExit:
    """One ``repro <command>: ...`` line for a value a config refused."""
    message = str(exc)
    for field, flag in FLAG_OF_FIELD.items():
        message = message.replace(field, flag)
    return SystemExit(f"repro {command}: {message}")


def _storage_config(args) -> StorageConfig:
    """The storage the flags ask for (the buffer pool size is checked even
    when the database is memory-resident and never reads it)."""
    kwargs = {
        "bufferpool_bytes": args.bufferpool_gb * GB,
        "result_cache_bytes": getattr(args, "result_cache_mb", 0.0) * 1024 * 1024,
        "result_cache_policy": getattr(args, "cache_policy", "benefit"),
    }
    if args.disk:
        kwargs.update(resident="disk", direct_io=args.direct_io)
    try:
        return StorageConfig(**kwargs)
    except ValueError as exc:
        raise _usage_error(args.command, exc) from None


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    """Run one workload on one engine configuration and print metrics."""
    kind = "tpch" if args.workload == "tpch-q1" else "ssb"
    storage = _storage_config(args)
    dataset = DatasetSpec(kind, args.sf, args.seed).generate()
    jobs = WorkloadSpec(
        args.workload, n=args.n, seed=args.seed, n_plans=args.plans, selectivity=args.selectivity
    ).build(dataset)
    result = _runner.run_batch(dataset.tables, CONFIGS[args.config], jobs, storage)
    rows = [
        ["configuration", result.config_name],
        ["queries", result.n_queries],
        ["mean response (s)", result.mean_response],
        ["stdev response (s)", result.stdev_response],
        ["makespan (s)", result.sim_seconds],
        ["avg cores used", result.avg_cores_used],
        ["avg read MB/s", result.avg_read_mb_s],
        ["total CPU (core-s)", result.total_cpu_seconds],
        ["CJOIN admission (s)", result.admission_seconds],
    ]
    print(format_table(f"{args.workload} x{args.n} on {result.config_name}", ["metric", "value"], rows))
    if result.sharing:
        print()
        print(
            format_table(
                "sharing events",
                ["stage", "count"],
                sorted(result.sharing.items()),
            )
        )
    return 0


def cmd_query(args) -> int:
    """Run one SSB query and print its result rows."""
    from repro.engine.qpipe import QPipeEngine
    from repro.query.ssb_suite import default_instance
    from repro.sim.costmodel import DEFAULT_COST_MODEL
    from repro.sim.engine import Simulator
    from repro.sim.machine import PAPER_MACHINE
    from repro.storage.manager import StorageManager

    spec = default_instance(args.name)
    config = _storage_config(args)
    dataset = generate_ssb(args.sf, args.seed)
    sim = Simulator(PAPER_MACHINE)
    storage = StorageManager(sim, DEFAULT_COST_MODEL, dataset.tables, config)
    selector = CONFIGS[args.config]
    if not hasattr(selector, "name"):
        raise SystemExit("query command needs a QPipe engine config (not postgres/hybrid)")
    engine = QPipeEngine(sim, storage, selector)
    handle = engine.submit(spec)
    sim.run()
    print(f"{args.name} on {selector.name}: {len(handle.results)} rows "
          f"in {handle.response_time:.2f} simulated seconds")
    schema = handle.root_packet.node.schema
    print(format_table("results", list(schema.names), handle.results[: args.limit]))
    if len(handle.results) > args.limit:
        print(f"... and {len(handle.results) - args.limit} more rows")
    return 0


def _experiment_kwargs(fn, full: bool, jobs: int | None) -> dict:
    """Pass ``full``/``jobs`` only to experiments that take them (fig2 and
    other derived tables have no sweep to parallelize)."""
    import inspect

    params = inspect.signature(fn).parameters
    kwargs = {}
    if full and "full" in params:
        kwargs["full"] = True
    if jobs is not None and "jobs" in params:
        kwargs["jobs"] = jobs
    return kwargs


def _fabric_jobs(command: str, jobs: int | None) -> int:
    """The sweep fabric's worker count, with ``--jobs`` / ``REPRO_JOBS`` and
    the cell timeout (``--timeout`` / ``REPRO_CELL_TIMEOUT``) checked up
    front: a bad value exits with one line, not a traceback."""
    from repro.bench.experiments import cell_timeout
    from repro.parallel import ParallelRunner

    try:
        return ParallelRunner(jobs, cell_timeout()).jobs
    except ValueError as exc:
        raise SystemExit(f"repro {command}: {exc}")


def cmd_experiment(args) -> int:
    """Regenerate a paper figure/table (optionally charted / as JSON)."""
    _fabric_jobs("experiment", args.jobs)
    experiments = _experiments()
    fn = experiments[args.name]
    result = fn(**_experiment_kwargs(fn, args.full, args.jobs))
    print(result.render())
    if args.chart:
        from repro.bench.charts import chart_for

        chart = chart_for(result)
        if chart:
            print()
            print(chart)
        else:
            print("\n(no chartable response-time series in this experiment)")
    if args.json:
        from repro.bench.export import experiment_to_json

        print()
        print(experiment_to_json(result))
    return 0


def cmd_sweep(args) -> int:
    """Regenerate many figures/tables at once on the parallel fabric.

    Runs each named experiment (default: all of them) with ``--jobs``
    worker processes, prints ordered per-cell progress (unless
    ``--quiet``), optionally writes per-experiment JSON artifacts, and
    ends with a wall-clock summary table."""
    import os

    from repro.parallel import JOBS_ENV

    experiments = _experiments()
    names = args.names or list(experiments)
    unknown = [n for n in names if n not in experiments]
    if unknown:
        raise SystemExit(
            f"repro sweep: unknown experiment(s) {', '.join(unknown)} "
            f"(see: repro list)"
        )
    # Library sweeps read REPRO_JOBS when no explicit jobs arg is given;
    # exporting it covers experiments without a jobs kwarg calling into
    # nested sweeps.  The settings hold for this command only: the caller's
    # environment is restored when it returns.
    env = {}
    if args.jobs is not None:
        env[JOBS_ENV] = str(args.jobs)
    if not args.quiet:
        env["REPRO_PROGRESS"] = "1"
    if args.timeout is not None:
        env["REPRO_CELL_TIMEOUT"] = str(args.timeout)
    saved = {name: os.environ.get(name) for name in env}
    os.environ.update(env)
    try:
        return _sweep(args, experiments, names)
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


def _sweep(args, experiments: dict, names: list[str]) -> int:
    import os
    import time

    from repro.bench.reporting import format_sweep_summary
    from repro.parallel import SweepError

    jobs = _fabric_jobs("sweep", args.jobs)
    if args.json_dir:
        os.makedirs(args.json_dir, exist_ok=True)

    rows = []
    failed = False
    for name in names:
        fn = experiments[name]
        kwargs = _experiment_kwargs(fn, args.full, jobs)
        print(f"=== {name} (jobs={jobs}) ===")
        start = time.perf_counter()
        try:
            result = fn(**kwargs)
        except SweepError as exc:
            failed = True
            print(f"repro sweep: {name} failed: {exc}")
            rows.append(
                {
                    "experiment": name,
                    "cells": "failed",
                    "jobs": jobs,
                    "wall_s": round(time.perf_counter() - start, 2),
                }
            )
            if args.fail_fast:
                break
            continue
        wall = time.perf_counter() - start
        if not args.quiet:
            print(result.render())
            print()
        timings = result.timings or {}
        cells = timings.get("cells", {})
        retried = sum(1 for c in cells.values() if c.get("retried"))
        rows.append(
            {
                "experiment": name,
                "cells": len(cells) if cells else "-",
                "jobs": timings.get("jobs", "-"),
                "retried": retried,
                "wall_s": round(wall, 2),
            }
        )
        if args.json_dir:
            from repro.bench.export import experiment_to_json, timings_to_json

            path = os.path.join(args.json_dir, f"{name}.json")
            with open(path, "w") as fh:
                fh.write(experiment_to_json(result) + "\n")
            if timings:
                with open(os.path.join(args.json_dir, f"{name}.cells.json"), "w") as fh:
                    fh.write(timings_to_json(result) + "\n")

    print(format_sweep_summary(rows))
    return 1 if failed else 0


#: ``serve`` options only one executor reads (argparse dests).  A
#: non-default value for the other executor exits instead of being ignored.
IN_PROCESS_ONLY = (
    "policy", "threshold", "disk", "direct_io", "bufferpool_gb", "result_cache_mb", "cache_policy",
)
SHARDED_ONLY = ("partition", "shard_engine", "shard_timeout", "fingerprints")


def cmd_serve(args) -> int:
    """Serve an open-loop query stream -- in process, or scatter/gather
    over ``--shards N`` worker processes -- and print (or dump as JSON)
    the report."""
    from repro.server.config import ServiceConfig
    from repro.server.service import serve
    from repro.shard import serve_sharded

    sharded = args.shards is not None
    defaults = vars(build_parser().parse_args(["serve"]))
    for dest in IN_PROCESS_ONLY if sharded else SHARDED_ONLY:
        if getattr(args, dest) != defaults[dest]:
            flag = "--" + dest.replace("_", "-")
            why = "does not apply with --shards N" if sharded else "needs --shards N"
            raise SystemExit(f"repro serve: {flag} {why}")
    try:
        common = dict(
            arrival=args.arrival,
            rate=args.rate,
            duration=args.duration,
            seed=args.seed,
            workload=args.workload,
            config=ServiceConfig(
                queue_capacity=args.queue_capacity,
                max_in_flight=args.max_in_flight,
                queue_timeout=args.timeout,
            ),
            trace_path=args.trace,
        )
        if sharded:
            report = serve_sharded(
                args.shards,
                partition=args.partition,
                engine=args.shard_engine,
                sf=args.sf,
                shard_timeout_s=args.shard_timeout,
                **common,
            )
        else:
            report = serve(
                generate_ssb(args.sf, args.seed).tables,
                policy=args.policy,
                storage_config=_storage_config(args),
                threshold=args.threshold,
                **common,
            )
    except (ValueError, OSError) as exc:
        raise _usage_error("serve", exc) from None
    if args.fingerprints is not None:
        report.write_fingerprints(args.fingerprints)
    if args.json:
        from repro.bench.export import metrics_to_json

        print(
            metrics_to_json(
                report.metrics,
                hz=report.machine_hz,
                window=report.window,
                extra=report.header(),
            )
        )
    else:
        print(report.render())
    return 0


def cmd_list(_args) -> int:
    """List engine configurations, workloads, experiments, routing
    policies and arrival processes."""
    from repro.cache import CACHE_POLICIES
    from repro.server.arrivals import ARRIVALS
    from repro.server.router import POLICIES
    from repro.server.service import SERVE_WORKLOADS

    print(format_table("engine configurations", ["name"], [[n] for n in CONFIGS]))
    print()
    print(format_table("workloads", ["name"], [[n] for n in WORKLOADS]))
    print()
    print(format_table("workloads (serve)", ["name"], [[n] for n in SERVE_WORKLOADS]))
    print()
    print(format_table("experiments", ["name"], [[n] for n in _experiments()]))
    print()
    print(format_table("policies (serve)", ["name", "strategy"], [[n, d] for n, d in POLICIES.items()]))
    print()
    print(format_table("arrivals (serve)", ["name"], [[n] for n in ARRIVALS]))
    print()
    print(
        format_table(
            "cache policies (--cache-policy)",
            ["name", "strategy"],
            [[n, d] for n, d in CACHE_POLICIES.items()],
        )
    )
    print()
    print(
        format_table(
            "shard tier (serve --shards N)",
            ["knob", "choices"],
            [
                ["--partition", "hash (spread, default) | range (contiguous blocks)"],
                ["--shard-engine", "cjoin-sp (default) | qpipe-sp, one engine per shard"],
                ["--fingerprints PATH", "per-query sha256 lines; identical for any N"],
            ],
        )
    )
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Sharing Data and Work Across Concurrent "
        "Analytical Queries' (VLDB 2013) on a simulated multicore server.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a workload on one engine configuration")
    p_run.add_argument("--config", choices=sorted(CONFIGS), default="qpipe-sp")
    p_run.add_argument("--workload", choices=WORKLOADS, default="q32-random")
    p_run.add_argument("-n", type=int, default=16, help="number of queries")
    p_run.add_argument("--sf", type=float, default=1.0, help="scale factor")
    p_run.add_argument("--seed", type=int, default=42)
    p_run.add_argument("--plans", type=int, default=16, help="distinct plans (q32-plans)")
    p_run.add_argument("--selectivity", type=float, default=0.10, help="fact selectivity (q32-selectivity)")
    p_run.add_argument("--disk", action="store_true", help="disk-resident database")
    p_run.add_argument("--direct-io", action="store_true", help="bypass the OS cache")
    p_run.add_argument("--bufferpool-gb", type=float, default=48.0)
    p_run.add_argument("--result-cache-mb", type=float, default=0.0,
                       help="shared result cache budget in MB (0 disables)")
    p_run.add_argument("--cache-policy", choices=("lru", "benefit"), default="benefit",
                       help="result-cache eviction policy (see: repro list)")
    p_run.add_argument("--profile", action="store_true",
                       help="cProfile the run and print the hottest functions")
    p_run.set_defaults(fn=cmd_run)

    p_query = sub.add_parser("query", help="run one SSB query and print its rows")
    p_query.add_argument("name", help="SSB query name, e.g. Q3.2")
    p_query.add_argument("--config", choices=sorted(CONFIGS), default="qpipe-sp")
    p_query.add_argument("--sf", type=float, default=1.0)
    p_query.add_argument("--seed", type=int, default=42)
    p_query.add_argument("--limit", type=int, default=20, help="max rows to print")
    p_query.add_argument("--disk", action="store_true")
    p_query.add_argument("--direct-io", action="store_true")
    p_query.add_argument("--bufferpool-gb", type=float, default=48.0)
    p_query.set_defaults(fn=cmd_query)

    p_exp = sub.add_parser("experiment", help="regenerate a paper figure/table")
    p_exp.add_argument("name", choices=sorted(_experiments()))
    p_exp.add_argument("--full", action="store_true", help="paper-scale parameters")
    p_exp.add_argument("--jobs", type=int, default=None,
                       help="worker processes for the sweep (default: REPRO_JOBS or 1)")
    p_exp.add_argument("--chart", action="store_true", help="also draw an ASCII chart")
    p_exp.add_argument("--json", action="store_true", help="also dump machine-readable JSON")
    p_exp.set_defaults(fn=cmd_experiment)

    p_sweep = sub.add_parser(
        "sweep",
        help="regenerate many figures/tables on the parallel fabric",
        description="Run each named experiment (default: all) with --jobs "
        "worker processes; results are byte-identical for any jobs count.",
    )
    p_sweep.add_argument("names", nargs="*", metavar="experiment",
                         help="experiments to run (default: all; see: repro list)")
    p_sweep.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default: REPRO_JOBS or 1)")
    p_sweep.add_argument("--full", action="store_true", help="paper-scale parameters")
    p_sweep.add_argument("--timeout", type=float, default=None,
                         help="per-cell wall-clock budget (s), counted from dispatch to a worker")
    p_sweep.add_argument("--json-dir", default=None,
                         help="write <name>.json (+ <name>.cells.json timing "
                         "attribution) artifacts into this directory")
    p_sweep.add_argument("--quiet", action="store_true",
                         help="suppress per-cell progress and rendered tables")
    p_sweep.add_argument("--fail-fast", action="store_true",
                         help="stop at the first failed experiment")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_serve = sub.add_parser(
        "serve", help="serve an open-loop query stream through the service layer"
    )
    # policy/arrival are validated by the service registries (not argparse
    # choices) so unknown names exit with a one-line message, and new
    # policies need registering in exactly one place.
    p_serve.add_argument("--policy", default="adaptive", help="routing policy (see: repro list)")
    p_serve.add_argument("--arrival", default="poisson", help="arrival process (see: repro list)")
    p_serve.add_argument("--rate", type=float, default=8.0, help="mean arrivals per second")
    p_serve.add_argument("--duration", type=float, default=10.0, help="serving window (simulated s)")
    p_serve.add_argument("--workload", default="ssb-mix",
                         help="query stream: ssb-mix, q32-random, recurring:<rate> "
                         "or folding:<overlap>")
    p_serve.add_argument("--sf", type=float, default=1.0, help="scale factor")
    p_serve.add_argument("--seed", type=int, default=42)
    p_serve.add_argument("--queue-capacity", type=int, default=64, help="admission queue bound")
    p_serve.add_argument("--max-in-flight", type=int, default=None, help="in-flight cap (backpressure)")
    p_serve.add_argument("--timeout", type=float, default=None, help="queueing deadline (s); late queries are shed")
    p_serve.add_argument("--threshold", type=int, default=None, help="routing threshold override")
    p_serve.add_argument("--trace", default=None, help="arrival-times file (--arrival trace)")
    p_serve.add_argument("--disk", action="store_true", help="disk-resident database")
    p_serve.add_argument("--direct-io", action="store_true", help="bypass the OS cache")
    p_serve.add_argument("--bufferpool-gb", type=float, default=48.0)
    p_serve.add_argument("--result-cache-mb", type=float, default=0.0,
                         help="shared result cache budget in MB (0 disables)")
    p_serve.add_argument("--cache-policy", choices=("lru", "benefit"), default="benefit",
                         help="result-cache eviction policy (see: repro list)")
    p_serve.add_argument("--shards", type=int, default=None,
                         help="serve on N shard worker processes (scatter/gather tier); "
                         "results are byte-identical for any N")
    p_serve.add_argument("--partition", choices=("hash", "range"), default="hash",
                         help="fact-table placement across shards (--shards)")
    p_serve.add_argument("--shard-engine", choices=("cjoin-sp", "qpipe-sp"), default="cjoin-sp",
                         help="per-shard engine configuration (--shards)")
    p_serve.add_argument("--shard-timeout", type=float, default=60.0,
                         help="wall-clock seconds before a stuck shard is killed (--shards)")
    p_serve.add_argument("--fingerprints", default=None, metavar="PATH",
                         help="write one '<seq> <sha256>' line per merged query "
                         "(--shards; CI diffs these across shard counts)")
    p_serve.add_argument("--json", action="store_true", help="dump the report as JSON")
    p_serve.add_argument("--profile", action="store_true",
                         help="cProfile the run and print the hottest functions")
    p_serve.set_defaults(fn=cmd_serve)

    p_list = sub.add_parser("list", help="list configurations, workloads, experiments")
    p_list.set_defaults(fn=cmd_list)

    return parser


def _run_profiled(fn, top: int = 25) -> int:
    """Run ``fn`` under cProfile and print the hottest functions (the
    simulator is pure Python: knowing where wall-clock goes is how the
    vectorized data plane and fused charges were found)."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    rc = profiler.runcall(fn)
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    stats.sort_stats("tottime").print_stats(top)
    print(f"\n--- cProfile summary (top {top} by cumulative, then total time) ---")
    print(stream.getvalue())
    return rc


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "profile", False):
        return _run_profiled(lambda: args.fn(args))
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
