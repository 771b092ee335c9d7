"""Tests for the metrics accumulator."""

import pytest

from repro.sim import Simulator
from repro.sim.commands import CPU, CPU_FUSED
from repro.sim.machine import MachineSpec
from repro.sim.metrics import CATEGORIES, Metrics


class TestMetrics:
    def test_categories_match_paper_legend(self):
        assert CATEGORIES == ("hashing", "joins", "aggregation", "scans", "locks", "misc")

    def test_charge_cpu_accumulates_by_category(self):
        # The simulator meters every dispatched CPU command (each fused
        # part too) into its category.
        sim = Simulator(MachineSpec(cores=1, hz=1e9))

        def worker():
            yield CPU(100, "hashing")
            yield CPU_FUSED(CPU(50, "hashing"), CPU(25, "joins"))

        sim.spawn(worker(), "w")
        sim.run()
        m = sim.metrics
        assert m.cpu_cycles_by_category["hashing"] == 150
        assert m.cpu_cycles_by_category["joins"] == 25

    def test_cpu_seconds_conversion(self):
        m = Metrics()
        m.cpu_cycles_by_category["scans"] += 2e9
        secs = m.cpu_seconds_by_category(1e9)
        assert secs["scans"] == pytest.approx(2.0)
        assert secs["joins"] == 0.0
        assert set(secs) == set(CATEGORIES)
        assert m.total_cpu_seconds(1e9) == pytest.approx(2.0)

    def test_sharing_and_counters(self):
        m = Metrics()
        m.record_sharing("join:hj1")
        m.record_sharing("join:hj1", 3)
        m.add_duration("cjoin_admission", 0.5)
        m.add_duration("cjoin_admission", 0.25)
        m.bump("bp_hit")
        m.bump("bp_hit", 2)
        assert m.sharing_events["join:hj1"] == 4
        assert m.durations["cjoin_admission"] == pytest.approx(0.75)
        assert m.counts["bp_hit"] == 3
