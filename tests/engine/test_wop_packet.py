"""Tests for Windows of Opportunity, packets and engine config."""

import pytest

from repro.data import generate_ssb
from repro.engine import QPipeEngine
from repro.engine.config import CJOIN_SP, PAPER_CONFIGS, QPIPE_SP, EngineConfig
from repro.engine.packet import Packet
from repro.engine.wop import STAGE_WOP, WindowOfOpportunity, wop_gain
from repro.query.plan import ScanNode
from repro.query.star import Query
from repro.sim import Simulator
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.machine import MachineSpec
from repro.storage import StorageManager


class TestWopGain:
    def test_step_full_before_output(self):
        assert wop_gain(WindowOfOpportunity.STEP, 0.0) == 1.0
        assert wop_gain(WindowOfOpportunity.STEP, 0.99) == 1.0

    def test_step_nothing_after_output(self):
        assert wop_gain(WindowOfOpportunity.STEP, 1.0) == 0.0
        assert wop_gain(WindowOfOpportunity.STEP, 0.6, output_start=0.5) == 0.0

    def test_linear_proportional(self):
        assert wop_gain(WindowOfOpportunity.LINEAR, 0.0) == 1.0
        assert wop_gain(WindowOfOpportunity.LINEAR, 0.25) == 0.75
        assert wop_gain(WindowOfOpportunity.LINEAR, 1.0) == 0.0

    def test_none_never_gains(self):
        assert wop_gain(WindowOfOpportunity.NONE, 0.0) == 0.0

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            wop_gain(WindowOfOpportunity.STEP, 1.5)

    def test_stage_assignment_matches_paper(self):
        assert STAGE_WOP["tablescan"] is WindowOfOpportunity.LINEAR
        assert STAGE_WOP["sort"] is WindowOfOpportunity.LINEAR
        assert STAGE_WOP["join"] is WindowOfOpportunity.STEP
        assert STAGE_WOP["aggregate"] is WindowOfOpportunity.STEP
        assert STAGE_WOP["cjoin"] is WindowOfOpportunity.STEP


class TestPacket:
    def make_packet(self, wop):
        ssb = generate_ssb(0.5, seed=21)
        node = ScanNode(ssb.customer)
        return Packet(node, Query(query_id=0), "tablescan", wop)

    def test_step_wop_closes_on_first_output(self):
        p = self.make_packet(WindowOfOpportunity.STEP)
        assert p.can_attach()
        p.mark_started()
        assert not p.can_attach()

    def test_linear_wop_open_until_finish(self):
        p = self.make_packet(WindowOfOpportunity.LINEAR)
        p.mark_started()
        assert p.can_attach()
        p.finished = True
        assert not p.can_attach()

    def test_satellite_chain_resolves_to_root_host(self):
        a = self.make_packet(WindowOfOpportunity.STEP)
        b = self.make_packet(WindowOfOpportunity.STEP)
        c = self.make_packet(WindowOfOpportunity.STEP)
        a.exchange = object()
        a.attach_satellite(b)
        b.attach_satellite(c)
        assert c.effective_exchange() is a.exchange

    def test_missing_exchange_raises(self):
        p = self.make_packet(WindowOfOpportunity.STEP)
        with pytest.raises(RuntimeError):
            p.effective_exchange()


class TestEngineConfig:
    def test_paper_presets(self):
        assert not QPIPE_SP.use_cjoin and QPIPE_SP.sp_join and QPIPE_SP.sp_scan
        assert CJOIN_SP.use_cjoin and CJOIN_SP.sp_cjoin
        # SP for agg/sort off in every paper preset: no configuration
        # enables it, so those stages never share.
        sim = Simulator(MachineSpec())
        storage = StorageManager(sim, DEFAULT_COST_MODEL, {})
        for config in PAPER_CONFIGS:
            engine = QPipeEngine(sim, storage, config)
            assert not engine.agg_stage.sp_enabled
            assert not engine.sort_stage.sp_enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(comm="tcp")
        with pytest.raises(ValueError):
            EngineConfig(spl_max_pages=0)
        with pytest.raises(ValueError):
            EngineConfig(sp_cjoin=True)  # requires use_cjoin
        with pytest.raises(ValueError):
            EngineConfig(filter_workers=0)

    def test_with_comm(self):
        fifo = QPIPE_SP.with_comm("fifo")
        assert fifo.comm == "fifo"
        assert "FIFO" in fifo.name
