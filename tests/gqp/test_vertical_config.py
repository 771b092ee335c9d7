"""Tests for CJOIN's vertical thread configuration (one thread per filter,
paper Section 5.2.2)."""

import dataclasses

import pytest

from repro.baselines import evaluate_plan
from repro.data import generate_ssb
from repro.engine import CJOIN, CJOIN_SP, QPipeEngine
from repro.query.ssb_queries import q11, q32
from repro.sim import Simulator
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.machine import MachineSpec
from repro.storage import StorageConfig, StorageManager
from tests.answers import sorted_rows

CJOIN_V = dataclasses.replace(CJOIN, cjoin_threads="vertical", name="CJOIN-vertical")


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(0.5, seed=19)


def make_engine(ssb, config):
    sim = Simulator(MachineSpec())
    storage = StorageManager(sim, DEFAULT_COST_MODEL, ssb.tables, StorageConfig(resident="memory"))
    return sim, QPipeEngine(sim, storage, config)


class TestVertical:
    def test_matches_oracle_multi_dim(self, ssb):
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        oracle = sorted_rows(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))
        sim, eng = make_engine(ssb, CJOIN_V)
        handles = [eng.submit(spec) for _ in range(2)]
        sim.run()
        for h in handles:
            assert sorted_rows(h.results) == oracle

    def test_matches_oracle_single_dim_with_fact_pred(self, ssb):
        spec = q11(1993, 1.0, 3.0, 25)
        oracle = sorted_rows(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))
        sim, eng = make_engine(ssb, CJOIN_V)
        h = eng.submit(spec)
        sim.run()
        assert sorted_rows(h.results) == oracle

    def test_horizontal_and_vertical_agree(self, ssb):
        specs = [q32("CHINA", "FRANCE", 1993, 1996), q32("JAPAN", "BRAZIL", 1992, 1995)]
        results = {}
        for cfg in (CJOIN, CJOIN_V):
            sim, eng = make_engine(ssb, cfg)
            handles = [eng.submit(s) for s in specs]
            sim.run()
            results[cfg.name] = [sorted_rows(h.results) for h in handles]
        assert results["CJOIN"] == results["CJOIN-vertical"]

    def test_one_thread_per_filter_spawned(self, ssb):
        sim, eng = make_engine(ssb, CJOIN_V)
        eng.submit(q32("CHINA", "FRANCE", 1993, 1996))  # 3 dims
        sim.run()
        vthreads = [t for t in sim.threads if "vflt" in t.name]
        assert len(vthreads) == 3  # one per filter position

    def test_growing_filter_chain_spawns_workers(self, ssb):
        """A second query adding a new dimension grows the vertical chain."""
        sim, eng = make_engine(ssb, CJOIN_V)
        results = {}

        def waves():
            h1 = eng.submit(q11(1993, 1.0, 3.0, 25))  # date only: 1 filter
            yield from h1.wait()
            h2 = eng.submit(q32("CHINA", "FRANCE", 1993, 1996))  # 3 filters
            yield from h2.wait()
            results["h2"] = sorted_rows(h2.results)

        sim.spawn(waves(), "waves")
        sim.run()
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        assert results["h2"] == sorted_rows(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))
        vthreads = [t for t in sim.threads if "vflt" in t.name]
        assert len(vthreads) >= 3

    def test_works_with_sp(self, ssb):
        cfg = dataclasses.replace(CJOIN_SP, cjoin_threads="vertical", name="CJOIN-SP-v")
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        oracle = sorted_rows(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))
        sim, eng = make_engine(ssb, cfg)
        handles = [eng.submit(spec) for _ in range(3)]
        sim.run()
        for h in handles:
            assert sorted_rows(h.results) == oracle
        assert eng.sim.metrics.sharing_events.get("cjoin", 0) == 2

    def test_config_validation(self):
        from repro.engine.config import EngineConfig

        with pytest.raises(ValueError, match="cjoin_threads"):
            EngineConfig(use_cjoin=True, cjoin_threads="diagonal")
