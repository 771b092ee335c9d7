"""Tests for SharedDB-style batched execution (paper Section 2.4)."""

import dataclasses

import pytest

from repro.baselines import evaluate_plan
from repro.data import generate_ssb
from repro.engine import CJOIN, QPipeEngine
from repro.query.ssb_queries import q32
from repro.sim import Simulator
from repro.sim.commands import SLEEP
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.machine import MachineSpec
from repro.storage import StorageConfig, StorageManager
from tests.answers import sorted_rows

CJOIN_BATCHED = dataclasses.replace(CJOIN, gqp_batched_execution=True, name="CJOIN-batched")


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(0.5, seed=61)


def make_engine(ssb, config):
    sim = Simulator(MachineSpec())
    storage = StorageManager(sim, DEFAULT_COST_MODEL, ssb.tables, StorageConfig(resident="memory"))
    return sim, QPipeEngine(sim, storage, config)


class TestBatchedExecution:
    def test_results_exact(self, ssb):
        specs = [q32("CHINA", "FRANCE", 1993, 1996), q32("JAPAN", "BRAZIL", 1992, 1995)]
        oracles = [sorted_rows(evaluate_plan(s.to_query_centric_plan(ssb.tables))) for s in specs]
        sim, eng = make_engine(ssb, CJOIN_BATCHED)
        handles = [eng.submit(s) for s in specs]
        sim.run()
        for h, o in zip(handles, oracles):
            assert sorted_rows(h.results) == o

    def test_late_arrival_waits_for_generation(self, ssb):
        """A query arriving mid-batch is not admitted until the running
        generation completes -- the paper's latency drawback."""
        spec_a = q32("CHINA", "FRANCE", 1993, 1996)
        spec_b = q32("JAPAN", "BRAZIL", 1992, 1995)

        def late_latency(config):
            sim, eng = make_engine(ssb, config)
            h_a = eng.submit(spec_a)
            out = {}

            def late():
                yield SLEEP(0.5)  # mid-execution of A
                h_b = eng.submit(spec_b)
                yield from h_b.wait()
                out["b_latency"] = h_b.response_time
                out["a_finish"] = h_a.query.finish_time
                out["b_submit"] = h_b.query.submit_time

            sim.spawn(late(), "late")
            sim.run()
            return out

        batched = late_latency(CJOIN_BATCHED)
        continuous = late_latency(CJOIN)
        # Batched: B only starts after A's generation finished.
        assert batched["a_finish"] >= batched["b_submit"]
        assert batched["b_latency"] > continuous["b_latency"] * 1.3

    def test_generation_count(self, ssb):
        """Two staggered arrivals => two admission batches under batching;
        simultaneous arrivals => one."""
        sim, eng = make_engine(ssb, CJOIN_BATCHED)
        eng.submit(q32("CHINA", "FRANCE", 1993, 1996))
        eng.submit(q32("JAPAN", "BRAZIL", 1992, 1995))
        sim.run()
        # Both submitted before the pipeline started: one generation.
        assert sim.metrics.counts["cjoin_admission_batches"] == 1

        sim2, eng2 = make_engine(ssb, CJOIN_BATCHED)
        h1 = eng2.submit(q32("CHINA", "FRANCE", 1993, 1996))

        def late():
            yield SLEEP(0.5)
            eng2.submit(q32("JAPAN", "BRAZIL", 1992, 1995))

        sim2.spawn(late(), "late")
        sim2.run()
        assert sim2.metrics.counts["cjoin_admission_batches"] == 2

    def test_validation(self):
        from repro.engine.config import EngineConfig

        with pytest.raises(ValueError, match="gqp_batched_execution"):
            EngineConfig(gqp_batched_execution=True)
