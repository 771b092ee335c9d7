"""Tests for the push-based sharing prediction model (Johnson et al. [14],
as discussed in the paper's Sections 1.3/4)."""

import dataclasses

import pytest

from repro.baselines import evaluate_plan
from repro.data import generate_tpch
from repro.engine import QPIPE, QPIPE_CS, QPipeEngine
from repro.query.tpch_queries import tpch_q1_plan
from repro.sim import Simulator
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.machine import MachineSpec
from repro.storage import StorageConfig, StorageManager

CS_FIFO = QPIPE_CS.with_comm("fifo")
CS_FIFO_PRED = dataclasses.replace(CS_FIFO, sp_prediction=True, name="CS (FIFO+pred)")


@pytest.fixture(scope="module")
def tpch():
    return generate_tpch(0.5, seed=17)


def run(tpch, config, n):
    sim = Simulator(MachineSpec())
    storage = StorageManager(
        sim, DEFAULT_COST_MODEL, tpch.tables, StorageConfig(resident="memory")
    )
    eng = QPipeEngine(sim, storage, config)
    plan = tpch_q1_plan(tpch.lineitem)
    # Stagger submissions slightly so the machine-load signal is realistic.
    handles = []

    def submitter():
        from repro.sim.commands import SLEEP

        for _ in range(n):
            handles.append(eng.submit_plan(plan))
            yield SLEEP(0.002)

    sim.spawn(submitter(), "sub")
    sim.run()
    return sim, eng, handles


class TestPredictionModel:
    def test_results_still_exact(self, tpch):
        plan = tpch_q1_plan(tpch.lineitem)
        oracle = sorted(evaluate_plan(plan))
        _, _, handles = run(tpch, CS_FIFO_PRED, 6)
        for h in handles:
            assert sorted(h.results) == oracle

    def test_declines_to_share_at_low_concurrency(self, tpch):
        """Few queries, idle machine: private evaluation predicted cheaper
        -- the model 'falls back to the line of No SP (FIFO)'."""
        _, eng, _ = run(tpch, CS_FIFO_PRED, 3)
        assert eng.sim.metrics.sharing_events.get("tablescan", 0) == 0

    def test_shares_at_high_concurrency(self, tpch):
        """Once the machine saturates, the model starts attaching
        satellites (each satellite raises the copy burden, so the model is
        deliberately conservative about piling more on)."""
        _, eng, _ = run(tpch, CS_FIFO_PRED, 48)
        assert eng.sim.metrics.sharing_events.get("tablescan", 0) >= 5

    def test_tracks_lower_envelope(self, tpch):
        """Response time with prediction ~ min(No-SP, always-share) at both
        ends of the concurrency range."""

        def mean_rt(config, n):
            _, _, handles = run(tpch, config, n)
            return sum(h.response_time for h in handles) / n

        for n in (2, 48):
            nosp = mean_rt(QPIPE.with_comm("fifo"), n)
            always = mean_rt(CS_FIFO, n)
            pred = mean_rt(CS_FIFO_PRED, n)
            assert pred <= min(nosp, always) * 1.25

    def test_ignored_under_spl(self, tpch):
        """Pull-based sharing needs no model: with comm='spl' the flag is
        inert and sharing always happens."""
        cfg = dataclasses.replace(QPIPE_CS, sp_prediction=True)
        _, eng, _ = run(tpch, cfg, 3)
        assert eng.sim.metrics.sharing_events.get("tablescan", 0) == 2
