"""Stage registry semantics and engine error paths."""

import pytest

from repro.baselines import evaluate_plan
from repro.data import generate_ssb
from repro.engine import QPIPE, QPIPE_SP, QPipeEngine
from repro.query.expr import Cmp
from repro.query.plan import ScanNode, SelectNode
from repro.query.ssb_queries import q32
from repro.sim import Simulator
from repro.sim.commands import SLEEP
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.machine import MachineSpec
from repro.storage import StorageConfig, StorageManager
from tests.answers import sorted_rows


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(0.5, seed=41)


def make_engine(ssb, config=QPIPE_SP):
    sim = Simulator(MachineSpec())
    storage = StorageManager(sim, DEFAULT_COST_MODEL, ssb.tables, StorageConfig(resident="memory"))
    return sim, QPipeEngine(sim, storage, config)


class TestRegistry:
    def test_new_host_replaces_expired_one(self, ssb):
        """When the first host's step WoP closes, the next identical packet
        becomes the new host and subsequent arrivals share with *it*."""
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        oracle = sorted_rows(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))
        sim, eng = make_engine(ssb)
        h1 = eng.submit(spec)
        late = {}

        def late_pair():
            yield from h1.wait()  # first host finished: WoP long closed
            late["a"] = eng.submit(spec)  # becomes the new host
            late["b"] = eng.submit(spec)  # shares with the new host
            yield SLEEP(0)

        sim.spawn(late_pair(), "late")
        sim.run()
        assert sorted_rows(late["a"].results) == oracle
        assert sorted_rows(late["b"].results) == oracle
        # Exactly one sharing event: b attached to a (not to the dead h1).
        assert eng.sim.metrics.sharing_events.get("join:hj3", 0) == 1

    def test_registry_empty_without_sp(self, ssb):
        sim, eng = make_engine(ssb, QPIPE)
        eng.submit(q32("CHINA", "FRANCE", 1993, 1996))
        sim.run()
        assert not eng.storage.providers._exact.get(eng.join_stage)

    def test_stage_counters(self, ssb, monkeypatch):
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        sim, eng = make_engine(ssb)
        scans = []
        submit_scan = eng.scan_stage.submit_scan
        monkeypatch.setattr(
            eng.scan_stage, "submit_scan", lambda *args: scans.append(args) or submit_scan(*args)
        )
        for _ in range(3):
            eng.submit(spec)
        sim.run()
        # Both later queries attach at the top join; nothing else is shared.
        assert sim.metrics.sharing_events == {"join:hj3": 2}
        assert len(scans) == 4  # fact + 3 dims (host only)


class TestErrorPaths:
    def test_select_rooted_plan_rejected(self, ssb):
        sim, eng = make_engine(ssb)
        plan = SelectNode(ScanNode(ssb.customer), Cmp("=", "c_nation", "CHINA"))
        with pytest.raises(ValueError, match="rooted"):
            eng.submit_plan(plan)

    def test_cjoin_plan_without_cjoin_engine(self, ssb):
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        plan = spec.to_gqp_plan(ssb.tables)
        sim, eng = make_engine(ssb, QPIPE_SP)
        with pytest.raises(RuntimeError, match="use_cjoin"):
            eng.submit_plan(plan)

    def test_unknown_plan_node_rejected(self, ssb):
        class Weird:
            signature = ("weird",)
            children = ()

        sim, eng = make_engine(ssb)
        with pytest.raises(TypeError):
            eng._build(Weird(), None)
