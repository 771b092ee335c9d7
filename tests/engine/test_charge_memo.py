"""Charges are cost-model values: a warm cost model builds no command.

Every CPU charge an engine yields comes from its :class:`CostModel` -- a
memoized builder, a fixed per-model charge, or ``CostModel.fused`` of
those.  So a second identical run on fresh simulators that share the model
constructs no ``CpuCommand`` at all, and (the values being the first
run's) simulates exactly what the first run did."""

import pytest

from repro.data import generate_ssb
from repro.data.rng import make_rng
from repro.engine import CJOIN_SP, QPIPE_SP, QPipeEngine
from repro.query.ssb_queries import random_q32
from repro.sim import Simulator
from repro.sim.commands import CpuCommand
from repro.sim.costmodel import CostModel
from repro.sim.machine import MachineSpec
from repro.storage import StorageConfig, StorageManager


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(0.5, seed=21)


def _run(ssb, config, cost: CostModel) -> dict:
    sim = Simulator(MachineSpec(cores=8, hz=1.86e9), cost)
    storage = StorageManager(sim, cost, ssb.tables, StorageConfig(resident="memory"))
    engine = QPipeEngine(sim, storage, config)
    rng = make_rng(5, "charge-memo", config.name)
    handles = [engine.submit(random_q32(rng)) for _ in range(16)]
    sim.run()
    assert all(h.done for h in handles)
    return sim.metrics.to_dict()


@pytest.mark.parametrize("config", [QPIPE_SP, CJOIN_SP], ids=lambda c: c.name)
def test_second_run_constructs_no_command(ssb, config, monkeypatch):
    cost = CostModel()
    first = _run(ssb, config, cost)
    built = []
    init = CpuCommand.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CpuCommand, "__init__", counting_init)
    second = _run(ssb, config, cost)
    assert built == []
    assert second == first
