"""Tests for the complete SSB query suite: every query runs on every engine
shape and matches the reference evaluator."""

import pytest

from repro.baselines import evaluate_plan
from repro.data import generate_ssb
from repro.engine import CJOIN_SP, QPIPE_SP, QPipeEngine
from repro.query.ssb_suite import ALL_SSB_QUERIES, default_instance
from repro.sim import Simulator
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.machine import MachineSpec
from repro.storage import StorageConfig, StorageManager


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(0.5, seed=101)


def norm(rows):
    return sorted(
        tuple(round(v, 6) if isinstance(v, float) else v for v in row) for row in rows
    )


def run_engine(ssb, config, spec):
    sim = Simulator(MachineSpec())
    storage = StorageManager(sim, DEFAULT_COST_MODEL, ssb.tables, StorageConfig(resident="memory"))
    eng = QPipeEngine(sim, storage, config)
    h = eng.submit(spec)
    sim.run()
    return norm(h.results)


class TestSuiteStructure:
    def test_thirteen_queries(self):
        assert len(ALL_SSB_QUERIES) == 13
        flights = {name[1] for name in ALL_SSB_QUERIES}
        assert flights == {"1", "2", "3", "4"}

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            default_instance("Q9.9")

    def test_flight1_has_fact_predicates_no_groups(self):
        for name in ("Q1.1", "Q1.2", "Q1.3"):
            spec = default_instance(name)
            assert spec.fact_predicate is not None
            assert spec.group_by == ()

    def test_flight4_aggregates_profit(self):
        for name in ("Q4.1", "Q4.2", "Q4.3"):
            spec = default_instance(name)
            assert spec.aggregates[0].name == "profit"
            cols = spec.aggregates[0].expr.columns()
            assert cols == {"lo_revenue", "lo_supplycost"}


@pytest.mark.parametrize("name", sorted(ALL_SSB_QUERIES))
class TestSuiteCorrectness:
    def test_query_centric_matches_oracle(self, ssb, name):
        spec = default_instance(name)
        oracle = norm(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))
        assert run_engine(ssb, QPIPE_SP, spec) == oracle

    def test_gqp_matches_oracle(self, ssb, name):
        spec = default_instance(name)
        oracle = norm(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))
        assert run_engine(ssb, CJOIN_SP, spec) == oracle
