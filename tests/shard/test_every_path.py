"""Every path to an answer returns the same rows, bit for bit.

The engines (query-centric QPipe-SP, the CJOIN-SP pipeline with and
without shared aggregation, the Volcano baseline), the reference
evaluator and the shard tier's merge at any shard count and placement all
aggregate to the correctly rounded exact value, so sharing, partitioning
and row order cannot change an answer.  The shard merges run each shard's
join-only plan in process (``execute_shard_query``, the worker's own
function) over the shard's view of the data.

Two query sources: the first 60 specs of the layered benchmark's
``serve-sharded`` stream (the Fig. 16 mix, seed 42; here on SF 0.2 data),
and drawn star queries mixing ``sum``, ``avg``, ``count``, ``min`` and
``max`` over the fact measures.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import VolcanoEngine, evaluate_plan
from repro.bench.workload import ssb_mix_workload
from repro.data.ssb import generate_ssb
from repro.engine.config import CJOIN_SP, QPIPE_SP
from repro.engine.qpipe import QPipeEngine
from repro.parallel.cells import DatasetSpec
from repro.query.expr import Arith, Cmp, Col
from repro.query.merge import canonical_rows, finalize_rows, merge_states
from repro.query.plan import AggSpec, DimJoinSpec
from repro.query.ssb_queries import random_q11, random_q21, random_q32
from repro.query.star import StarQuerySpec
from repro.shard.partition import shard_tables
from repro.shard.spec import ShardConfig
from repro.shard.worker import execute_shard_query
from repro.sim.engine import Simulator
from repro.sim.machine import PAPER_MACHINE
from repro.storage.manager import StorageConfig, StorageManager
from tests.answers import sorted_rows

SF = 0.2
ENGINES = {
    "qpipe-sp": QPIPE_SP,
    "cjoin-sp": CJOIN_SP,
    "cjoin-sp+shared-agg": dataclasses.replace(CJOIN_SP, shared_aggregation=True),
    "volcano": None,
}
SHARDINGS = [(n, mode) for n in (1, 2, 3, 8) for mode in ("hash", "range")]


@pytest.fixture(scope="module")
def tables():
    return generate_ssb(SF, seed=42).tables


def _in_process(tables, specs) -> dict[str, list]:
    """Each engine's answers to ``specs``, submitted together."""
    out = {}
    for name, config in ENGINES.items():
        sim = Simulator(PAPER_MACHINE)
        storage = StorageManager(sim, sim.cost, tables, StorageConfig())
        engine = VolcanoEngine(sim, storage) if config is None else QPipeEngine(sim, storage, config)
        handles = [engine.submit(spec) for spec in specs]
        sim.run()
        out[name] = [h.results for h in handles]
    return out


def _merged(tables, spec, n_shards, mode) -> list[tuple]:
    config = ShardConfig(
        n_shards=n_shards, partition=mode, dataset=DatasetSpec("ssb", SF, 42)
    )
    states = [
        execute_shard_query(
            shard_tables(tables, "lineorder", k, n_shards, mode, config.partition_salt),
            spec,
            config,
        )[0]
        for k in range(n_shards)
    ]
    return finalize_rows(
        spec.group_by, spec.aggregates, spec.order_by, merge_states(spec.aggregates, states)
    )


def _assert_one_answer(tables, specs):
    answers = _in_process(tables, specs)
    for i, spec in enumerate(specs):
        want = answers["qpipe-sp"][i]
        assert sorted_rows(evaluate_plan(spec.to_query_centric_plan(tables))) == sorted_rows(want)
        for name in ENGINES:
            assert sorted_rows(answers[name][i]) == sorted_rows(want), name
        canonical = canonical_rows(want, spec.group_by, spec.aggregates, spec.order_by)
        for n_shards, mode in SHARDINGS:
            assert _merged(tables, spec, n_shards, mode) == canonical, (n_shards, mode)


def test_the_serve_sharded_stream_has_one_answer_per_query(tables):
    _assert_one_answer(tables, [job.spec for job in ssb_mix_workload(60, 42)])


def test_a_plan_that_projects_no_column_still_counts(tables):
    count_all = StarQuerySpec(  # no group-by, no payload: empty joined rows
        fact_table="lineorder",
        dims=(DimJoinSpec("supplier", "lo_suppkey", "s_suppkey", Cmp("=", "s_region", "ASIA")),),
        group_by=(),
        aggregates=(AggSpec("count", None, "n"),),
    )
    (n,), = evaluate_plan(count_all.to_query_centric_plan(tables))
    assert n > 0
    _assert_one_answer(tables, [count_all])


MEASURES = (
    Col("lo_revenue"),
    Col("lo_supplycost"),
    Col("lo_quantity"),
    Arith("*", Col("lo_extendedprice"), Col("lo_discount")),
)


@st.composite
def star_specs(draw):
    """A Fig. 16 mix query with drawn predicates and a drawn aggregate
    list over the fact measures."""
    maker = draw(st.sampled_from((random_q11, random_q21, random_q32)))
    spec = maker(random.Random(draw(st.integers(0, 10**6))))
    aggs = []
    for i in range(draw(st.integers(1, 4))):
        func = draw(st.sampled_from(("sum", "avg", "count", "min", "max")))
        expr = None if func == "count" else draw(st.sampled_from(MEASURES))
        aggs.append(AggSpec(func, expr, f"a{i}"))
    order_by = ()
    if spec.group_by and draw(st.booleans()):
        order_by = ((spec.group_by[-1], True), ("a0", draw(st.booleans())))
    return dataclasses.replace(spec, aggregates=tuple(aggs), order_by=order_by)


@settings(max_examples=12, deadline=None)
@given(specs=st.lists(star_specs(), min_size=1, max_size=3))
def test_drawn_star_queries_have_one_answer(tables, specs):
    _assert_one_answer(tables, specs)
