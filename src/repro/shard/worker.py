"""The shard worker: one process, one fact partition, one engine.

Entry point for :class:`~repro.parallel.workers.WorkerHandle`.  At spawn
the worker builds its shard view of the database -- dataset regenerated
from the spec (a copy-on-write hit under fork, thanks to the parent's
prewarm), fact table partitioned by the pure placement function -- sends a
``("ready", shard_id, fact_rows, shipping)`` handshake (``shipping`` is
the partition-build accounting the front end's scatter-cost model
charges, see :func:`repro.shard.partition.partition_shipping`), then serves
:class:`~repro.shard.spec.ShardRequest` messages FIFO until the pipe
closes (the request loop is :func:`repro.parallel.workers.serve`).

Per request it runs the query's **join-only plan** on a *fresh* simulator
and engine (service time depends only on the spec and the shard's data,
never on what ran before -- the determinism the backlog timeline needs)
and reduces the joined batches to an exact partial aggregate at the shard
boundary (:mod:`repro.query.merge`).  A worker whose fact partition is
empty skips the engine entirely (CJOIN has no work to pipeline over zero
fact pages) and answers with an empty state at zero service time.

Failures stay structured: an exception while planning or executing is
caught and shipped back in :attr:`ShardResponse.error`; only injected
test faults (and real crashes) take the process down.
"""

from __future__ import annotations

import os
import time
from typing import Any

from repro.engine.qpipe import QPipeEngine
from repro.parallel.workers import serve
from repro.query.merge import PartialAggregator
from repro.query.star import StarQuerySpec
from repro.shard.partition import partition_shipping, shard_tables
from repro.shard.spec import ShardConfig, ShardRequest, ShardResponse
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.engine import Simulator
from repro.storage.arrangements import ARRANGEMENTS
from repro.storage.manager import StorageManager
from repro.storage.table import Table

__all__ = ["execute_shard_query", "shard_worker_main"]


def execute_shard_query(
    tables: dict[str, Table], spec: StarQuerySpec, config: ShardConfig
) -> tuple[dict, float]:
    """Run ``spec``'s joins over this shard and partially aggregate.

    Returns ``(partial_state, svc_seconds)`` with ``svc_seconds`` the
    simulated response time of the join-only plan on this shard's engine.
    """
    fact = tables[config.fact_table]
    engine_config = config.engine_config
    plan = spec.to_join_only_plan(tables, use_cjoin=engine_config.use_cjoin)
    agg = PartialAggregator(spec.group_by, spec.aggregates, plan.schema)
    if fact.num_rows == 0:
        # Nothing to join: an empty partition is a legal shard (CJOIN has
        # no fact pages to pipeline over and would not start cleanly).
        return agg.state(), 0.0
    sim = Simulator(config.machine)
    storage = StorageManager(sim, DEFAULT_COST_MODEL, tables, config.storage)
    engine = QPipeEngine(sim, storage, engine_config)
    handle = engine.submit_plan(plan, label=spec.label, spec=spec, collect_batches=True)
    sim.run()
    for rows, weight in handle.batches:
        agg.consume(rows, weight)
    return agg.state(), handle.response_time


def shard_worker_main(conn: Any, shard_id: int, config: ShardConfig) -> None:
    """Process entry point: build the shard, handshake, serve requests."""
    dataset = config.dataset.generate()
    tables = shard_tables(
        dataset.tables,
        config.fact_table,
        shard_id,
        config.n_shards,
        config.partition,
        config.partition_salt,
    )
    fact = tables[config.fact_table]
    fact_rows = fact.num_rows
    conn.send(("ready", shard_id, fact_rows, partition_shipping(fact)))

    def answer(req: ShardRequest) -> ShardResponse:
        if req.fault == "crash":
            os._exit(13)
        if req.fault == "hang":
            # Stuck worker: never answer.  The front end's wall-clock
            # timeout kills this process.
            while True:
                time.sleep(3600)
        t0 = time.perf_counter()
        hits0 = ARRANGEMENTS.hits
        try:
            state, svc = execute_shard_query(tables, req.spec, config)
            error = None
        except Exception as exc:
            state, svc, error = {}, 0.0, f"{type(exc).__name__}: {exc}"
        return ShardResponse(
            seq=req.seq,
            shard_id=shard_id,
            state=state,
            svc_seconds=svc,
            wall_s=time.perf_counter() - t0,
            fact_rows=fact_rows,
            arrange_hits=ARRANGEMENTS.hits - hits0,
            error=error,
        )

    serve(conn, answer)
