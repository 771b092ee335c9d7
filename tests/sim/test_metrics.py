"""Tests for the metrics accumulator."""

import pytest

from repro.sim.metrics import CATEGORIES, Metrics


class TestMetrics:
    def test_categories_match_paper_legend(self):
        assert CATEGORIES == ("hashing", "joins", "aggregation", "scans", "locks", "misc")

    def test_charge_cpu_accumulates_by_category(self):
        m = Metrics()
        m.charge_cpu(100, "hashing")
        m.charge_cpu(50, "hashing")
        m.charge_cpu(25, "joins")
        assert m.cpu_cycles_by_category["hashing"] == 150
        assert m.cpu_cycles_by_category["joins"] == 25

    def test_cpu_seconds_conversion(self):
        m = Metrics()
        m.charge_cpu(2e9, "scans")
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
