"""Edge cases of the OS page-cache model: zero capacity, pages larger than
the whole cache, and the counter semantics of direct I/O."""

import pytest

from repro.sim import Simulator
from repro.sim.machine import DiskSpec, MachineSpec
from repro.storage.cache import OsPageCache


def make_cache(capacity):
    sim = Simulator(
        MachineSpec(cores=2, oversub_penalty=0.0, disk=DiskSpec(bandwidth=100e6))
    )
    return sim, OsPageCache(sim, capacity)


def drive(sim, gen):
    sim.spawn(gen, "reader")
    sim.run()


class TestZeroCapacity:
    def test_every_read_goes_to_disk(self):
        sim, cache = make_cache(0.0)

        def reads():
            for _ in range(3):
                yield from cache.read(("t", 0), 1000.0)

        drive(sim, reads())
        assert sim.metrics.counts.get("os_cache_hits", 0) == 0
        assert sim.metrics.counts.get("os_cache_misses", 0) == 3
        assert cache._bytes == 0.0
        assert sim.disk.bytes_delivered == pytest.approx(3000.0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            make_cache(-1.0)


class TestOversizedPage:
    def test_page_larger_than_capacity_is_not_cached(self):
        sim, cache = make_cache(500.0)

        def reads():
            yield from cache.read(("t", 0), 1000.0)  # larger than the cache
            yield from cache.read(("t", 0), 1000.0)  # must miss again

        drive(sim, reads())
        assert sim.metrics.counts.get("os_cache_misses", 0) == 2
        assert sim.metrics.counts.get("os_cache_hits", 0) == 0
        assert ("t", 0) not in cache._resident
        assert cache._bytes == 0.0

    def test_smaller_pages_still_cached_alongside(self):
        sim, cache = make_cache(500.0)

        def reads():
            yield from cache.read(("t", 0), 1000.0)  # uncacheable
            yield from cache.read(("t", 1), 400.0)  # cacheable
            yield from cache.read(("t", 1), 400.0)  # hit

        drive(sim, reads())
        assert sim.metrics.counts.get("os_cache_hits", 0) == 1
        assert sim.metrics.counts.get("os_cache_misses", 0) == 2
        assert cache._bytes == 400.0


class TestReadDirect:
    def test_counters_untouched(self):
        sim, cache = make_cache(1e9)

        def reads():
            yield from cache.read_direct(1000.0)
            yield from cache.read_direct(1000.0)

        drive(sim, reads())
        assert sim.metrics.counts.get("os_cache_hits", 0) == 0
        assert sim.metrics.counts.get("os_cache_misses", 0) == 0
        assert cache._bytes == 0.0
        assert "os_cache_hits" not in sim.metrics.counts
        assert "os_cache_misses" not in sim.metrics.counts
        # The I/O itself still happened.
        assert sim.disk.bytes_delivered == pytest.approx(2000.0)

    def test_direct_read_does_not_admit(self):
        sim, cache = make_cache(1e9)

        def reads():
            yield from cache.read_direct(1000.0)
            yield from cache.read(("t", 0), 1000.0)  # still a miss

        drive(sim, reads())
        assert sim.metrics.counts.get("os_cache_misses", 0) == 1
        assert sim.metrics.counts.get("os_cache_hits", 0) == 0


class TestMetricsCounters:
    def test_hit_and_miss_counts_surface_in_metrics(self):
        sim, cache = make_cache(1e9)

        def reads():
            yield from cache.read(("t", 0), 1000.0)
            yield from cache.read(("t", 0), 1000.0)

        drive(sim, reads())
        assert sim.metrics.counts["os_cache_misses"] == 1
        assert sim.metrics.counts["os_cache_hits"] == 1
