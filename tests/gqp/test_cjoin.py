"""Unit tests for the CJOIN pipeline internals."""

import pytest

from repro.baselines import evaluate_plan
from repro.data import generate_ssb
from repro.engine import CJOIN, CJOIN_SP, QPipeEngine
from repro.gqp.bitmap import SlotAllocator
from repro.query.ssb_queries import q11, q32
from repro.sim import Simulator
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.machine import MachineSpec
from repro.storage import StorageConfig, StorageManager
from tests.answers import sorted_rows


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(0.5, seed=33)


def make_engine(ssb, config=CJOIN, resident="memory"):
    sim = Simulator(MachineSpec())
    storage = StorageManager(sim, DEFAULT_COST_MODEL, ssb.tables, StorageConfig(resident=resident))
    return sim, QPipeEngine(sim, storage, config)


class TestSlotAllocator:
    def test_alloc_monotonic_then_reuse(self):
        a = SlotAllocator()
        assert [a.alloc() for _ in range(3)] == [0, 1, 2]
        a.retire(1)
        # Retired slots are not reusable until reclaim.
        assert a.alloc() == 3
        a.reclaim()
        assert a.alloc() == 1

    def test_retired_mask(self):
        a = SlotAllocator()
        s0, s1, s2 = a.alloc(), a.alloc(), a.alloc()
        a.retire(s0)
        a.retire(s2)
        assert a.retired_mask() == 0b101
        assert sorted(a.reclaim()) == [0, 2]
        assert a.retired_mask() == 0

    def test_live_count(self):
        a = SlotAllocator()
        a.alloc()
        a.alloc()
        a.retire(0)
        assert a.live == 1
        assert a.high_water == 2

    def test_retire_unallocated_rejected(self):
        with pytest.raises(ValueError):
            SlotAllocator().retire(0)


class TestPipelineLifecycle:
    def test_filters_created_per_dimension(self, ssb):
        sim, eng = make_engine(ssb)
        eng.submit(q32("CHINA", "FRANCE", 1993, 1996))
        sim.run()
        pipeline = eng.cjoin_stage.pipeline_for("lineorder")
        # Query done: filters were dropped only at next admission; the
        # chain still holds the three dimensions.
        assert set(pipeline.filters) <= {"supplier", "customer", "date"}

    def test_filters_garbage_collected_after_completion(self, ssb):
        sim, eng = make_engine(ssb)
        eng.submit(q32("CHINA", "FRANCE", 1993, 1996))
        sim.run()
        pipeline = eng.cjoin_stage.pipeline_for("lineorder")
        # Submit a query touching only the date dimension: admission first
        # reclaims retired slots and drops unreferenced filters.
        h = eng.submit(q11(1993, 1.0, 3.0, 25))
        sim.run()
        assert set(pipeline.filters) == {"date"}
        assert h.done

    def test_slot_reuse_after_completion(self, ssb):
        sim, eng = make_engine(ssb)
        eng.submit(q32("CHINA", "FRANCE", 1993, 1996))
        sim.run()
        pipeline = eng.cjoin_stage.pipeline_for("lineorder")
        eng.submit(q32("JAPAN", "BRAZIL", 1992, 1995))
        sim.run()
        # The second query reused slot 0 after reclamation.
        assert pipeline.slots.high_water == 1

    def test_sequential_queries_extend_filters_incrementally(self, ssb):
        """A new star query referencing an existing dimension reuses its
        filter; new dimensions add filters."""
        sim, eng = make_engine(ssb)
        h1 = eng.submit(q11(1993, 1.0, 3.0, 25))  # date only
        h2 = eng.submit(q32("CHINA", "FRANCE", 1993, 1996))  # 3 dims
        sim.run()
        assert h1.done and h2.done
        assert sim.metrics.counts["cjoin_queries_admitted"] == 2

    def test_admission_time_recorded(self, ssb):
        sim, eng = make_engine(ssb)
        eng.submit(q32("CHINA", "FRANCE", 1993, 1996))
        sim.run()
        assert sim.metrics.durations["cjoin_admission"] > 0

    def test_fact_predicate_applied_at_distributor(self, ssb):
        """Q1.1 has fact predicates; CJOIN applies them on output tuples
        (Section 3.2) -- results must still match the oracle."""
        spec = q11(1993, 1.0, 3.0, 25)
        oracle = sorted_rows(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))
        sim, eng = make_engine(ssb)
        h = eng.submit(spec)
        sim.run()
        assert sorted_rows(h.results) == oracle

    def test_interleaved_admission_mid_scan(self, ssb):
        """A query submitted while the circular fact scan is mid-flight is
        admitted between pages and still computes exact results (its point
        of entry wraps around)."""
        spec_a = q32("CHINA", "FRANCE", 1993, 1996)
        spec_b = q32("JAPAN", "BRAZIL", 1992, 1995)
        oracle_b = sorted_rows(evaluate_plan(spec_b.to_query_centric_plan(ssb.tables)))

        sim, eng = make_engine(ssb)
        eng.submit(spec_a)

        h_holder = {}

        def late_submitter():
            from repro.sim.commands import SLEEP

            yield SLEEP(0.3)  # mid-scan of query A
            h_holder["h"] = eng.submit(spec_b)

        sim.spawn(late_submitter(), "late")
        sim.run()
        assert sorted_rows(h_holder["h"].results) == oracle_b
        assert sim.metrics.counts["cjoin_admission_batches"] == 2

    def test_bitmap_width_tracks_concurrency(self, ssb):
        sim, eng = make_engine(ssb)
        for i in range(5):
            eng.submit(q32("CHINA", "FRANCE", 1992 + i, 1996))
        sim.run()
        pipeline = eng.cjoin_stage.pipeline_for("lineorder")
        assert pipeline.slots.high_water == 5

    def test_cjoin_sp_satellite_skips_admission_costs(self, ssb):
        """CJOIN-SP: admission happens once for N identical queries."""
        spec = q32("CHINA", "FRANCE", 1993, 1996)

        def admission_time(config, n):
            sim, eng = make_engine(ssb, config)
            for _ in range(n):
                eng.submit(spec)
            sim.run()
            return sim.metrics.durations["cjoin_admission"]

        assert admission_time(CJOIN_SP, 8) < admission_time(CJOIN, 8)
