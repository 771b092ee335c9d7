"""CJOIN over every column layout of the fact table.

CJOIN reads the fact table as columns: a filter probes the page's
foreign-key column at the surviving positions, the distributor gathers
only the columns a query's predicate and projection name.  The same fact
data is stored three ways -- typed arrays (``PackedNumeric``), dictionary
codes (``DictColumn``, every column at most 256 distinct values) and boxed
lists (packing switched off, ``tests/boxed.py``) -- and each must answer
every query exactly as the reference evaluator does, in both filter-thread
configurations, with and without a fact predicate, with and without
shared aggregation.
"""

import dataclasses
import random
from array import array

import pytest

from repro.baselines import evaluate_plan
from repro.data import generate_ssb
from repro.data.ssb import LINEORDER_SCHEMA
from repro.engine import CJOIN_SP, QPipeEngine
from repro.query.expr import Cmp, Col, Or
from repro.query.plan import AggSpec, DimJoinSpec
from repro.query.ssb_queries import q11, q21, q32
from repro.query.star import StarQuerySpec
from repro.sim import Simulator
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.machine import MachineSpec
from repro.storage import StorageConfig, StorageManager
from repro.storage.packed import DictColumn, PackedNumeric
from repro.storage.table import Table
from tests.boxed import boxed_layout

N_ROWS = 1500
CARD = 200  # <= 256 distinct values per column: every column can dict-encode


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(1, seed=23)


def fact_columns(ssb) -> list[list]:
    """Low-cardinality lineorder data whose keys all join."""
    rng = random.Random(5)
    datekeys = list(ssb.date.columns()[0])
    dates = [datekeys[rng.randrange(len(datekeys))] for _ in range(CARD)]
    # (price, discount) pairs from a pool, so revenue stays low-cardinality too
    prices = [float(rng.randrange(90_000, 1_100_000)) / 100.0 for _ in range(CARD)]
    discounts = [float(rng.randrange(0, 11)) for _ in range(CARD)]
    cols: list[list] = [[] for _ in LINEORDER_SCHEMA.columns]
    for key in range(1, N_ROWS + 1):
        i = rng.randrange(CARD)
        price, discount = prices[i], discounts[i]
        row = (
            key % CARD,
            rng.randrange(1, min(len(ssb.customer), CARD) + 1),
            rng.randrange(1, min(len(ssb.supplier), CARD) + 1),
            rng.randrange(1, min(len(ssb.part), CARD) + 1),
            dates[rng.randrange(CARD)],
            rng.randrange(1, 51),
            price,
            discount,
            price * (100.0 - discount) / 100.0,
            price * 0.6,
        )
        for col, v in zip(cols, row):
            col.append(v)
    return cols


def fact_table(ssb, layout: str) -> Table:
    cols = fact_columns(ssb)
    if layout == "array":
        typed = [
            PackedNumeric(array("q" if cd.kind == "int" else "d", col), "q" if cd.kind == "int" else "d")
            for col, cd in zip(cols, LINEORDER_SCHEMA.columns)
        ]
        table = Table.from_columns("lineorder", LINEORDER_SCHEMA, typed)
        expect = PackedNumeric
    elif layout == "dict":
        table = Table.from_columns("lineorder", LINEORDER_SCHEMA, cols)
        expect = DictColumn
    else:
        with boxed_layout():
            table = Table.from_columns("lineorder", LINEORDER_SCHEMA, cols)
        expect = list
    assert all(type(c) is expect for c in table.columns())
    return table


def specs() -> list[StarQuerySpec]:
    count_all = StarQuerySpec(  # projects nothing: empty payload rows
        fact_table="lineorder",
        dims=(DimJoinSpec("supplier", "lo_suppkey", "s_suppkey", Cmp("=", "s_region", "ASIA")),),
        group_by=(),
        aggregates=(AggSpec("count", None, "n"),),
    )
    either = StarQuerySpec(  # a fact predicate with no positions form
        fact_table="lineorder",
        dims=(
            DimJoinSpec(
                "customer", "lo_custkey", "c_custkey", Cmp("=", "c_region", "AMERICA"), payload=("c_nation",)
            ),
        ),
        group_by=("c_nation",),
        aggregates=(AggSpec("sum", Col("lo_revenue"), "revenue"),),
        fact_predicate=Or(Cmp("<", "lo_quantity", 10), Cmp(">", "lo_discount", 8.0)),
    )
    return [
        q32("CHINA", "FRANCE", 1992, 1997),
        q32("CHINA", "FRANCE", 1992, 1997),  # identical: CJOIN-SP shares it
        q21("MFGR#12", "AMERICA"),
        q11(1993, 1.0, 3.0, 25),
        q11(1995, 4.0, 6.0, 35),
        count_all,
        either,
    ]


def norm(rows):
    return sorted(tuple(round(v, 6) if isinstance(v, float) else v for v in row) for row in rows)


@pytest.mark.parametrize("layout", ["array", "dict", "boxed"])
@pytest.mark.parametrize("threads", ["horizontal", "vertical"])
@pytest.mark.parametrize("shared_aggregation", [False, True])
def test_cjoin_sp_matches_reference_on_every_layout(ssb, layout, threads, shared_aggregation):
    tables = {**ssb.tables, "lineorder": fact_table(ssb, layout)}
    config = dataclasses.replace(
        CJOIN_SP, cjoin_threads=threads, shared_aggregation=shared_aggregation
    )
    sim = Simulator(MachineSpec())
    storage = StorageManager(sim, DEFAULT_COST_MODEL, tables, StorageConfig(resident="memory"))
    engine = QPipeEngine(sim, storage, config)
    queries = specs()
    handles = [engine.submit(spec) for spec in queries]
    sim.run()
    assert not any(p._rows for p in tables["lineorder"].pages)  # read as columns only
    for spec, handle in zip(queries, handles):
        oracle = norm(evaluate_plan(spec.to_query_centric_plan(tables)))
        assert oracle, spec.label  # every query selects something
        assert norm(handle.results) == oracle, spec.label
