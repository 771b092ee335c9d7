"""Tests for DataPath-style shared aggregation inside the GQP (paper
Section 2.4: "a running sum for each group and query")."""

import dataclasses

import pytest

from repro.baselines import evaluate_plan
from repro.data import generate_ssb
from repro.engine import CJOIN, CJOIN_SP, QPipeEngine
from repro.engine.config import EngineConfig
from repro.query.ssb_queries import q11, q32
from repro.query.ssb_suite import ALL_SSB_QUERIES, default_instance
from repro.sim import Simulator
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.machine import MachineSpec
from repro.storage import StorageConfig, StorageManager
from tests.answers import sorted_rows

CJOIN_SHAGG = dataclasses.replace(CJOIN, shared_aggregation=True, name="CJOIN+shagg")
CJOIN_SP_SHAGG = dataclasses.replace(CJOIN_SP, shared_aggregation=True, name="CJOIN-SP+shagg")


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(0.5, seed=71)


def make_engine(ssb, config):
    sim = Simulator(MachineSpec())
    storage = StorageManager(sim, DEFAULT_COST_MODEL, ssb.tables, StorageConfig(resident="memory"))
    return sim, QPipeEngine(sim, storage, config)


class TestCorrectness:
    def test_q32_matches_oracle(self, ssb):
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        oracle = sorted_rows(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))
        sim, eng = make_engine(ssb, CJOIN_SHAGG)
        handles = [eng.submit(spec) for _ in range(3)]
        sim.run()
        for h in handles:
            assert sorted_rows(h.results) == oracle

    def test_fact_predicates_still_applied(self, ssb):
        spec = q11(1993, 1.0, 3.0, 25)
        oracle = sorted_rows(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))
        sim, eng = make_engine(ssb, CJOIN_SHAGG)
        h = eng.submit(spec)
        sim.run()
        assert sorted_rows(h.results) == oracle

    @pytest.mark.parametrize("name", ["Q1.2", "Q2.1", "Q3.1", "Q4.2"])
    def test_suite_queries(self, ssb, name):
        spec = default_instance(name)
        oracle = sorted_rows(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))
        sim, eng = make_engine(ssb, CJOIN_SHAGG)
        h = eng.submit(spec)
        sim.run()
        assert sorted_rows(h.results) == oracle

    def test_mixed_queries_concurrently(self, ssb):
        specs = [q32("CHINA", "FRANCE", 1993, 1996), q11(1994, 2.0, 4.0, 30),
                 default_instance("Q4.1")]
        oracles = [sorted_rows(evaluate_plan(s.to_query_centric_plan(ssb.tables))) for s in specs]
        sim, eng = make_engine(ssb, CJOIN_SHAGG)
        handles = [eng.submit(s) for s in specs]
        sim.run()
        for h, o in zip(handles, oracles):
            assert sorted_rows(h.results) == o


class TestBehavior:
    def test_no_query_centric_agg_packets(self, ssb, monkeypatch):
        """The aggregation runs inside the distributor: the aggregate stage
        admits nothing."""
        sim, eng = make_engine(ssb, CJOIN_SHAGG)
        admitted = []
        monkeypatch.setattr(eng.agg_stage, "admit", admitted.append)
        eng.submit(q32("CHINA", "FRANCE", 1993, 1996))
        sim.run()
        assert admitted == []

    def test_full_step_wop_for_sp(self, ssb):
        """Results are buffered until completion, so the whole execution is
        inside the WoP: a late identical query still shares (the paper's
        Section 3.1 'maximum benefit' case)."""
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        oracle = sorted_rows(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))
        sim, eng = make_engine(ssb, CJOIN_SP_SHAGG)
        h1 = eng.submit(spec)
        late = {}

        def late_submit():
            from repro.sim.commands import SLEEP

            yield SLEEP(1.0)  # well into the host's execution
            late["h"] = eng.submit(spec)

        sim.spawn(late_submit(), "late")
        sim.run()
        assert sorted_rows(h1.results) == oracle
        assert sorted_rows(late["h"].results) == oracle
        assert eng.sim.metrics.sharing_events.get("cjoin", 0) == 1
        assert sim.metrics.counts["cjoin_queries_admitted"] == 1

    def test_aggregation_cpu_attributed(self, ssb):
        sim, eng = make_engine(ssb, CJOIN_SHAGG)
        eng.submit(q32("CHINA", "FRANCE", 1993, 1996))
        sim.run()
        assert sim.metrics.cpu_cycles_by_category["aggregation"] > 0

    def test_config_validation(self):
        with pytest.raises(ValueError, match="shared_aggregation"):
            EngineConfig(shared_aggregation=True)  # requires use_cjoin
