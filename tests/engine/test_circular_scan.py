"""Engine-level tests of circular scans (shared scans with linear WoP)."""

import pytest

from repro.baselines import evaluate_plan
from repro.data import generate_ssb
from repro.engine import QPIPE_CS, QPipeEngine
from repro.query.ssb_queries import q32
from repro.sim import Simulator
from repro.sim.commands import SLEEP
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.machine import MachineSpec
from repro.storage import StorageConfig, StorageManager
from tests.answers import sorted_rows


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(0.5, seed=77)


def make_engine(ssb, resident="memory"):
    sim = Simulator(MachineSpec())
    storage = StorageManager(sim, DEFAULT_COST_MODEL, ssb.tables, StorageConfig(resident=resident))
    return sim, QPipeEngine(sim, storage, QPIPE_CS)


class TestCircularScan:
    def test_late_joiner_wraps_and_gets_exact_results(self, ssb):
        """A query joining the circular scan mid-flight reads from its point
        of entry around the circle -- results must be exact."""
        spec_a = q32("CHINA", "FRANCE", 1993, 1996)
        spec_b = q32("JAPAN", "BRAZIL", 1992, 1995)
        oracle_b = sorted_rows(evaluate_plan(spec_b.to_query_centric_plan(ssb.tables)))
        sim, eng = make_engine(ssb)
        eng.submit(spec_a)
        holder = {}

        def late():
            yield SLEEP(0.4)  # mid-scan of A
            holder["h"] = eng.submit(spec_b)

        sim.spawn(late(), "late")
        sim.run()
        assert sorted_rows(holder["h"].results) == oracle_b
        # B attached to A's in-flight scans (linear WoP).
        assert eng.sim.metrics.sharing_events.get("tablescan", 0) >= 1

    def test_scan_position_persists_across_drivers(self, ssb):
        """When all consumers finish, the driver retires but the circular
        position is kept; the next driver resumes from there (the paper's
        host hand-off)."""
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        sim, eng = make_engine(ssb)
        h1 = eng.submit(spec)
        holder = {}

        def second():
            yield from h1.wait()
            yield SLEEP(0.05)  # scan state retired
            holder["h"] = eng.submit(spec)

        sim.spawn(second(), "second")
        sim.run()
        # New driver was spawned (no live state to share with), position
        # resumed mid-table, and results are still exact.
        assert sorted_rows(holder["h"].results) == sorted_rows(h1.results)
        pos = eng.scan_stage._positions["lineorder"]
        assert 0 <= pos < ssb.lineorder.num_pages

    def test_fact_table_read_once_for_concurrent_queries(self, ssb):
        """Disk: N concurrent queries with a shared circular scan read each
        fact page from disk once."""
        specs = [q32("CHINA", "FRANCE", 1993, 1996), q32("JAPAN", "BRAZIL", 1992, 1995)]
        sim, eng = make_engine(ssb, resident="disk")
        for s in specs:
            eng.submit(s)
        sim.run()
        total = ssb.real_bytes
        # All tables read about once (prefetcher may fetch a few extra pages).
        assert sim.disk.bytes_delivered < total * 1.3

    def test_private_scans_read_n_times_without_sharing(self, ssb):
        from repro.engine import QPIPE

        spec = q32("CHINA", "FRANCE", 1993, 1996)
        sim = Simulator(MachineSpec())
        storage = StorageManager(
            sim,
            DEFAULT_COST_MODEL,
            ssb.tables,
            # Tiny caches so each private scan really hits the disk.
            StorageConfig(resident="disk", bufferpool_bytes=1e6, os_cache_bytes=1e6),
        )
        eng = QPipeEngine(sim, storage, QPIPE)
        for _ in range(3):
            eng.submit(spec)
        sim.run()
        assert sim.disk.bytes_delivered > ssb.real_bytes * 2.0
