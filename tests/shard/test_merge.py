"""The worker-boundary aggregation path against the in-engine answer.

The shard tier runs join-only plans in the workers and aggregates at the
shard boundary through the engines' own exact kernel (``GroupTable``;
:mod:`repro.query.merge`).  These tests pin the contract to the engines:

* the partial-aggregate answer equals the engine's own aggregate/sort
  answer on the same data, bit for bit;
* both shard engine configurations (query-centric chain and CJOIN) yield
  EXACTLY the same partial state -- they join the same rows;
* per-shard states merge to exactly the whole-table state;
* an empty fact partition is served (empty state, zero service time)
  rather than crashing CJOIN.
"""

from __future__ import annotations

import pytest

from repro.data.ssb import generate_ssb
from repro.engine.config import QPIPE_SP
from repro.engine.qpipe import QPipeEngine
from repro.parallel.cells import DatasetSpec
from repro.engine.stages.aggregate import GroupTable
from repro.query.merge import canonical_rows, finalize_rows, merge_states
from repro.query.ssb_queries import q32
from repro.shard.partition import shard_tables
from repro.shard.spec import ShardConfig
from repro.shard.worker import execute_shard_query
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.engine import Simulator
from repro.sim.machine import PAPER_MACHINE
from repro.storage.manager import StorageConfig, StorageManager
from repro.storage.table import Table

SF = 0.2
SPEC = q32("CHINA", "FRANCE", 1993, 1996)


@pytest.fixture(scope="module")
def tables():
    return generate_ssb(SF, seed=42).tables


def _engine_answer(tables):
    sim = Simulator(PAPER_MACHINE)
    storage = StorageManager(sim, DEFAULT_COST_MODEL, tables, StorageConfig())
    engine = QPipeEngine(sim, storage, QPIPE_SP)
    handle = engine.submit(SPEC)
    sim.run()
    return handle.results


def _config(engine: str, n_shards: int = 1) -> ShardConfig:
    return ShardConfig(
        n_shards=n_shards, engine=engine, dataset=DatasetSpec("ssb", SF, 42)
    )


def test_partial_aggregate_matches_engine_answer(tables):
    engine_rows = _engine_answer(tables)
    state, svc = execute_shard_query(tables, SPEC, _config("qpipe-sp"))
    merged_rows = finalize_rows(SPEC.group_by, SPEC.aggregates, SPEC.order_by, state)
    assert svc > 0.0
    assert len(merged_rows) == len(engine_rows)
    assert merged_rows == canonical_rows(
        engine_rows, SPEC.group_by, SPEC.aggregates, SPEC.order_by
    )
    k = len(SPEC.group_by)
    # Ordering: the canonical order obeys the query's ORDER BY.
    sort_view = [(r[k - 1], -r[k]) for r in merged_rows]  # (d_year asc, revenue desc)
    assert sort_view == sorted(sort_view)


def test_both_shard_engines_produce_identical_states(tables):
    view = shard_tables(tables, "lineorder", 0, 2, "hash", 42)
    state_qc, _ = execute_shard_query(view, SPEC, _config("qpipe-sp", 2))
    state_gqp, _ = execute_shard_query(view, SPEC, _config("cjoin-sp", 2))
    assert state_qc == state_gqp  # exact: same joined rows, same algebra


@pytest.mark.parametrize("mode", ["hash", "range"])
def test_shard_states_merge_to_whole_table_state(tables, mode):
    whole, _ = execute_shard_query(tables, SPEC, _config("qpipe-sp"))
    n = 3
    states = []
    for shard in range(n):
        view = shard_tables(tables, "lineorder", shard, n, mode, 42)
        state, _ = execute_shard_query(view, SPEC, _config("qpipe-sp", n))
        states.append(state)
    assert merge_states(SPEC.aggregates, states) == whole  # exact


@pytest.mark.parametrize("engine", ["cjoin-sp", "qpipe-sp"])
def test_empty_fact_partition_is_served_not_crashed(tables, engine):
    view = dict(tables)
    fact = tables["lineorder"]
    view["lineorder"] = Table(
        fact.name, fact.schema, [], row_weight=fact.row_weight
    )
    state, svc = execute_shard_query(view, SPEC, _config(engine))
    assert state == {}
    assert svc == 0.0


def test_weighted_batches_scale_additive_aggregates():
    # Each generated row stands for `weight` real rows: counts and sums
    # must scale, min/max must not (mirrors the engine's AggregateStage).
    from repro.query.expr import Col
    from repro.query.plan import AggSpec
    from repro.storage.page import ColumnBatch
    from repro.storage.schema import Column, Schema

    schema = Schema([Column("g", "int"), Column("v", "float")], row_bytes=16.0)
    aggs = (
        AggSpec("sum", Col("v"), "s"),
        AggSpec("count", None, "n"),
        AggSpec("avg", Col("v"), "a"),
        AggSpec("min", Col("v"), "lo"),
        AggSpec("max", Col("v"), "hi"),
    )
    table = GroupTable(aggs, (0,), schema)
    table.add(ColumnBatch(([1, 1], [2.0, 4.0]), None, 1000.0))
    rows = finalize_rows(("g",), aggs, (), table.groups)
    assert rows == [(1, 6000.0, 2000.0, 3.0, 2.0, 4.0)]
