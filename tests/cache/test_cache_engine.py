"""Engine integration: cache fill through the host's SPL, replay on later
identical arrivals, abandonment of oversized spills, GQP-route caching."""

import pytest

from repro.engine.config import CJOIN_SP, QPIPE_SP
from repro.engine.qpipe import QPipeEngine
from repro.query.ssb_queries import q32
from repro.sim import Simulator
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.machine import MachineSpec
from repro.storage import StorageConfig, StorageManager
from repro.data import generate_ssb


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(0.5, seed=23)


def norm(rows):
    return sorted(
        tuple(round(v, 6) if isinstance(v, float) else v for v in row) for row in rows
    )


def make_engine(ssb, cache_bytes=32 * 1024 * 1024, policy="benefit", config=QPIPE_SP):
    sim = Simulator(MachineSpec())
    storage = StorageManager(
        sim,
        DEFAULT_COST_MODEL,
        ssb.tables,
        StorageConfig(
            resident="memory",
            result_cache_bytes=cache_bytes,
            result_cache_policy=policy,
        ),
    )
    return sim, storage, QPipeEngine(sim, storage, config, DEFAULT_COST_MODEL)


SPEC_ARGS = ("CHINA", "FRANCE", 1993, 1996)


class TestFillAndReplay:
    def test_second_identical_query_is_served_from_cache(self, ssb):
        sim, storage, engine = make_engine(ssb)
        h1 = engine.submit(q32(*SPEC_ARGS))
        sim.run()
        cache = storage.result_cache
        assert cache.insertions > 0
        assert len(cache._entries) > 0
        t1 = h1.response_time

        h2 = engine.submit(q32(*SPEC_ARGS))
        sim.run()
        t2 = h2.response_time
        assert cache.hits > 0
        assert h2.query.cache_served
        assert not h1.query.cache_served
        assert norm(h2.results) == norm(h1.results)
        # Replay at memory-read cost beats recomputation by a wide margin.
        assert t2 < t1 * 0.5

    def test_cached_stage_counters(self, ssb):
        sim, storage, engine = make_engine(ssb)
        engine.submit(q32(*SPEC_ARGS))
        sim.run()
        engine.submit(q32(*SPEC_ARGS))
        sim.run()
        # The root (sort, since Q3.2 orders by) replays from cache and the
        # whole sub-plan below it is never built.
        assert engine.sort_stage.packets_cached == 1
        assert sim.metrics.counts["result_cache_hits"] >= 1

    def test_different_query_misses(self, ssb):
        sim, storage, engine = make_engine(ssb)
        engine.submit(q32(*SPEC_ARGS))
        sim.run()
        h = engine.submit(q32("JAPAN", "BRAZIL", 1992, 1995))
        sim.run()
        assert not h.query.cache_served

    def test_cache_disabled_leaves_engine_untouched(self, ssb):
        sim = Simulator(MachineSpec())
        storage = StorageManager(
            sim, DEFAULT_COST_MODEL, ssb.tables, StorageConfig(resident="memory")
        )
        assert storage.result_cache is None
        engine = QPipeEngine(sim, storage, QPIPE_SP, DEFAULT_COST_MODEL)
        assert engine.sort_stage.result_cache() is None
        engine.submit(q32(*SPEC_ARGS))
        sim.run()
        assert "result_cache_hits" not in sim.metrics.counts
        assert "result_cache_misses" not in sim.metrics.counts


class TestBoundedSpill:
    def test_oversized_spill_is_abandoned_without_deadlock(self, ssb):
        # A few hundred bytes of budget: every spill outgrows the per-entry
        # bound; the fill consumer must keep draining the bounded SPL (a
        # blocked producer would deadlock the run).
        sim, storage, engine = make_engine(ssb, cache_bytes=256.0)
        h1 = engine.submit(q32(*SPEC_ARGS))
        sim.run()  # completing at all proves the SPL never blocked on the cache
        h2 = engine.submit(q32(*SPEC_ARGS))
        sim.run()
        assert not h2.query.cache_served
        assert norm(h2.results) == norm(h1.results)

    def test_concurrent_identical_hosts_fill_once(self, ssb):
        sim, storage, engine = make_engine(ssb)
        engine.submit(q32(*SPEC_ARGS))
        engine.submit(q32(*SPEC_ARGS))  # same WoP window: satellite or 2nd host
        sim.run()
        cache = storage.result_cache
        # Each signature was filled at most once (begin_fill exclusivity).
        assert cache.insertions == len(cache._entries)


class TestInvalidation:
    def test_update_invalidates_and_forces_recompute(self, ssb):
        sim, storage, engine = make_engine(ssb)
        engine.submit(q32(*SPEC_ARGS))
        sim.run()
        before = len(storage.result_cache._entries)
        assert before > 0
        dropped = storage.notify_update("lineorder")
        assert dropped == before  # every Q3.2 sub-plan reads the fact table
        assert len(storage.result_cache._entries) == 0
        h = engine.submit(q32(*SPEC_ARGS))
        sim.run()
        assert not h.query.cache_served

    def test_update_retires_subsuming_entries_from_the_fold_search(self, ssb):
        """``notify_update`` must reach the cache's fold index too: after
        it no probe may be answered from a dropped, merely *subsuming*
        entry, and a refill is searchable again."""
        sim, storage, engine = make_engine(ssb)
        cache = storage.result_cache
        narrow = q32("CHINA", "FRANCE", 1994, 1995).to_query_centric_plan(ssb.tables).child
        engine.submit(q32(*SPEC_ARGS))
        sim.run()
        assert cache.has_subsuming(narrow)
        storage.notify_update("date")
        assert len(cache._entries) == len(cache._fold_index) == 0
        assert not cache.has_subsuming(narrow)
        assert cache.probe_subsuming(narrow) is None
        engine.submit(q32(*SPEC_ARGS))
        sim.run()
        assert cache.has_subsuming(narrow)

    def test_notify_update_without_cache_is_noop(self, ssb):
        sim = Simulator(MachineSpec())
        storage = StorageManager(
            sim, DEFAULT_COST_MODEL, ssb.tables, StorageConfig(resident="memory")
        )
        assert storage.notify_update("lineorder") == 0


class TestGqpRoute:
    def test_cjoin_packet_hits_cache(self, ssb):
        sim, storage, engine = make_engine(ssb, config=CJOIN_SP)
        h1 = engine.submit(q32(*SPEC_ARGS))
        sim.run()
        assert storage.result_cache.insertions > 0
        h2 = engine.submit(q32(*SPEC_ARGS))
        sim.run()
        assert h2.query.cache_served
        assert norm(h2.results) == norm(h1.results)
        # The replayed query never paid CJOIN admission again.
        assert sim.metrics.counts["cjoin_queries_admitted"] == 1
