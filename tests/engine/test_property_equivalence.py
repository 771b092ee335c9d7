"""Property-based cross-engine equivalence.

Hypothesis generates small random star schemas (fact + dimensions with
random contents) and random star queries over them; every engine shape --
query-centric without sharing, with SP, the CJOIN GQP, the Volcano
baseline, and the query service's three routes (query-centric, GQP and the
result-cache discount) -- must produce the reference evaluator's exact
result multiset.

This is the paper's implicit invariant (sharing never changes answers)
exercised far from the SSB happy path: skewed keys, dangling foreign keys,
empty selections, single-row dimensions.

Dimension sizes straddle the 256/257 dictionary-encoding boundary and every
dimension carries a mixed int/float column, so all three column layouts a
table can pick from its data -- dictionary codes, typed arrays and boxed
lists (``repro.storage.packed.pack_column``) -- and all three selection
forms (``repro.query.expr.compile_selection``) are held to the oracle on
every engine shape.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import VolcanoEngine, evaluate_plan
from repro.bench.workload import QueryJob
from repro.engine import CJOIN_SP, QPIPE, QPIPE_SP, QPipeEngine
from repro.query.expr import And, Between, Col, Or
from repro.query.plan import AggSpec, DimJoinSpec
from repro.query.star import StarQuerySpec
from repro.server import QueryService, ServiceConfig, StaticThresholdPolicy, TraceArrivals
from repro.server.router import GQP, QUERY_CENTRIC
from repro.sim import Simulator
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.machine import MachineSpec
from repro.storage import StorageConfig, StorageManager
from repro.storage.schema import Column, Schema
from repro.storage.table import Table
from tests.answers import sorted_rows


# ---------------------------------------------------------------------------
# Schema/workload generation
# ---------------------------------------------------------------------------

def dim_schema(i: int) -> Schema:
    """Per-dimension column names (joins concatenate schemas, so names must
    be unique across the star -- SSB guarantees this with its prefixes)."""
    return Schema(
        [
            Column(f"d{i}_key"),
            Column(f"d{i}_attr"),
            Column(f"d{i}_val"),
            Column(f"d{i}_wide"),  # distinct per row
            Column(f"d{i}_mix"),  # ints and floats interleaved
        ],
        row_bytes=40.0,
    )


def wide_and_mix(k: int) -> tuple:
    """Row ``k``'s (wide, mix) values.  Past 256 rows ``wide`` outgrows the
    dictionary encoding (typed array) and ``mix`` -- unpackable as either
    numeric kind -- stays a boxed list."""
    return (k * 7 + 3, k if k % 2 else k + 0.5)


@st.composite
def star_case(draw):
    """A random (tables, spec) pair."""
    n_dims = draw(st.integers(1, 3))
    dims = {}
    dim_sizes = []
    for i in range(n_dims):
        size = draw(st.one_of(st.integers(1, 25), st.sampled_from([256, 257, 300])))
        if size <= 25:
            rows = [
                (k, draw(st.integers(0, 9)), draw(st.integers(0, 100))) + wide_and_mix(k)
                for k in range(1, size + 1)
            ]
        else:
            # Too many rows to draw value by value: two drawn strides.
            a, b = draw(st.integers(1, 9)), draw(st.integers(1, 100))
            rows = [
                (k, k * a % 10, k * b % 101) + wide_and_mix(k) for k in range(1, size + 1)
            ]
        dims[f"dim{i}"] = Table(
            f"dim{i}", dim_schema(i), rows, row_weight=draw(st.sampled_from([1.0, 10.0]))
        )
        dim_sizes.append(size)

    fact_cols = [Column("f_key")]
    fact_cols += [Column(f"fk{i}") for i in range(n_dims)]
    fact_cols += [Column("f_group"), Column("f_val", "float")]
    fact_schema = Schema(fact_cols, row_bytes=40.0)
    n_fact = draw(st.integers(1, 120))
    fact_rows = []
    for k in range(n_fact):
        row = [k]
        for i in range(n_dims):
            # Allow dangling keys (no matching dimension row).
            row.append(draw(st.integers(0, dim_sizes[i] + 2)))
        row.append(draw(st.integers(0, 3)))
        row.append(float(draw(st.integers(0, 1000))))
        fact_rows.append(tuple(row))
    fact = Table("fact", fact_schema, fact_rows, row_weight=draw(st.sampled_from([1.0, 100.0])))

    dim_specs = []
    group_by = ("f_group",) if draw(st.booleans()) else ()
    for i in range(n_dims):
        lo = draw(st.integers(0, 9))
        hi = draw(st.integers(lo, 9))
        predicate = Between(f"d{i}_attr", lo, hi)
        # Optionally involve the wide / mixed columns: a conjunction keeps
        # a column form, a disjunction falls back to rows unless every
        # column it reads is dictionary-encoded.
        other = draw(st.sampled_from([None, f"d{i}_wide", f"d{i}_mix"]))
        if other is not None:
            cut = draw(st.integers(0, dim_sizes[i] * 7))
            extra = Between(other, cut // 2, cut)
            predicate = draw(st.sampled_from([And, Or]))(predicate, extra)
        payload = draw(
            st.sampled_from([(), (f"d{i}_val",), (f"d{i}_mix",), (f"d{i}_val", f"d{i}_wide")])
        )
        if f"d{i}_mix" in payload and draw(st.booleans()):
            group_by += (f"d{i}_mix",)
        dim_specs.append(DimJoinSpec(f"dim{i}", f"fk{i}", f"d{i}_key", predicate, payload=payload))
    spec = StarQuerySpec(
        fact_table="fact",
        dims=tuple(dim_specs),
        group_by=group_by,
        aggregates=(
            AggSpec("sum", Col("f_val"), "total"),
            AggSpec("count", None, "n"),
        ),
        label="prop",
    )
    tables = {"fact": fact, **dims}
    return tables, spec


def run_qpipe(tables, spec, config):
    sim = Simulator(MachineSpec(cores=8))
    storage = StorageManager(sim, DEFAULT_COST_MODEL, tables, StorageConfig(resident="memory"))
    eng = QPipeEngine(sim, storage, config)
    handles = [eng.submit(spec) for _ in range(2)]  # two, to exercise sharing
    sim.run()
    return [sorted_rows(h.results) for h in handles]


class TestEquivalence:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(case=star_case())
    def test_all_engines_match_oracle(self, case):
        tables, spec = case
        oracle = sorted_rows(evaluate_plan(spec.to_query_centric_plan(tables)))
        # GQP plan through the oracle too (independent code path).
        assert sorted_rows(evaluate_plan(spec.to_gqp_plan(tables))) == oracle

        for config in (
            QPIPE,
            QPIPE_SP,
            CJOIN_SP,
            replace(QPIPE_SP, query_folding=False),
            replace(CJOIN_SP, query_folding=False),
            replace(CJOIN_SP, shared_aggregation=True),
        ):
            for result in run_qpipe(tables, spec, config):
                assert result == oracle, config

        sim = Simulator(MachineSpec(cores=8))
        storage = StorageManager(sim, DEFAULT_COST_MODEL, tables, StorageConfig(resident="memory"))
        pg = VolcanoEngine(sim, storage)
        h = pg.submit(spec)
        sim.run()
        assert sorted_rows(h.results) == oracle

        # The router: query-centric, then (saturated at threshold 1) the
        # GQP, then -- long after both finished -- the cache discount.
        machine = MachineSpec(cores=8)
        service = QueryService(
            tables,
            StaticThresholdPolicy(machine, threshold=1),
            ServiceConfig(queue_capacity=3),
            machine,
            storage_config=StorageConfig(resident="memory", result_cache_bytes=32 * 1024 * 1024),
        )
        service.run(lambda k: QueryJob(spec=spec), TraceArrivals([0, 0, 10_000]), None)
        assert service.metrics.routed == {QUERY_CENTRIC: 2, GQP: 1}
        assert service.metrics.cache_routed == 1
        for h in service.handles:
            assert sorted_rows(h.results) == oracle

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(case=star_case(), delay=st.sampled_from([0.0, 0.01, 0.5]))
    def test_staggered_arrivals_preserve_results(self, case, delay):
        """Arrival timing (and hence which WoPs are open) must never change
        answers."""
        tables, spec = case
        oracle = sorted_rows(evaluate_plan(spec.to_query_centric_plan(tables)))
        sim = Simulator(MachineSpec(cores=8))
        storage = StorageManager(sim, DEFAULT_COST_MODEL, tables, StorageConfig(resident="memory"))
        eng = QPipeEngine(sim, storage, CJOIN_SP)
        handles = []

        def submitter():
            from repro.sim.commands import SLEEP

            for _ in range(3):
                handles.append(eng.submit(spec))
                yield SLEEP(delay)

        sim.spawn(submitter(), "sub")
        sim.run()
        for h in handles:
            assert sorted_rows(h.results) == oracle
