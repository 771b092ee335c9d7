"""Unit tests for the shared result cache store: probe/fill bookkeeping,
byte-budgeted eviction under both policies, table invalidation."""

import pytest

from repro.cache import CACHE_POLICIES, ResultCache, result_cache
from repro.query.expr import Between, Col
from repro.query.plan import AggregateNode, AggSpec, ScanNode, SelectNode
from repro.query.subsume import fold_plan
from repro.sim import Simulator
from repro.sim.machine import MachineSpec
from repro.storage.page import Batch
from repro.storage.schema import Column, Schema
from repro.storage.table import Table


def make_cache(capacity=1000.0, policy="benefit"):
    sim = Simulator(MachineSpec(cores=2))
    return sim, ResultCache(sim, capacity, policy)


@pytest.fixture
def whole_budget(monkeypatch):
    """One entry may fill the whole byte budget."""
    monkeypatch.setattr(result_cache, "MAX_ENTRY_FRACTION", 1.0)


def entry_batches(n=1):
    return [Batch([(i,)], weight=1.0) for i in range(n)]


class TestConstruction:
    def test_rejects_bad_capacity(self):
        sim = Simulator(MachineSpec(cores=2))
        with pytest.raises(ValueError):
            ResultCache(sim, 0.0)
        with pytest.raises(ValueError):
            ResultCache(sim, -1.0)

    def test_rejects_unknown_policy(self):
        sim = Simulator(MachineSpec(cores=2))
        with pytest.raises(ValueError, match="unknown cache policy"):
            ResultCache(sim, 100.0, "fifo")

    def test_policies_registry_matches(self):
        for policy in CACHE_POLICIES:
            sim, cache = make_cache(policy=policy)
            assert cache.policy == policy


class TestProbeAndFill:
    def test_miss_then_hit(self):
        sim, cache = make_cache()
        key = ("sort", "x")
        assert cache.probe(key) is None
        assert cache.misses == 1
        cache.admit(key, entry_batches(), 100.0, 0.5, frozenset({"t"}), "sort")
        entry = cache.probe(key)
        assert entry is not None
        assert entry.hits == 1
        assert cache.hits == 1
        assert sim.metrics.counts["result_cache_hits"] == 1
        assert sim.metrics.counts["result_cache_misses"] == 1

    def test_contains_is_silent(self):
        sim, cache = make_cache()
        key = ("agg", "y")
        cache.admit(key, entry_batches(), 10.0, 0.1, frozenset(), "aggregate")
        assert cache.contains_any([("other",), key])
        assert not cache.contains_any([("other",)])
        entry = cache._entries[key]
        assert cache.hits == 0 and cache.misses == 0 and entry.hits == 0

    def test_begin_fill_is_exclusive(self):
        _, cache = make_cache()
        key = ("join", "z")
        assert cache.begin_fill(key)
        assert not cache.begin_fill(key)  # a second identical host must not fill
        cache.end_fill(key)
        assert cache.begin_fill(key)

    def test_oversized_entry_rejected(self):
        sim, cache = make_cache(capacity=1000.0)
        assert not cache.fits_entry(501.0)
        assert cache.fits_entry(500.0)
        assert not cache.admit(("k",), entry_batches(), 501.0, 1.0, frozenset(), "sort")
        assert cache.rejected == 1
        assert len(cache._entries) == 0

    def test_readmit_replaces(self):
        _, cache = make_cache()
        key = ("sort", "x")
        cache.admit(key, entry_batches(1), 100.0, 0.5, frozenset(), "sort")
        cache.admit(key, entry_batches(3), 200.0, 0.7, frozenset(), "sort")
        assert len(cache._entries) == 1
        assert cache._bytes == 200.0


@pytest.mark.usefixtures("whole_budget")
class TestEviction:
    def test_lru_evicts_least_recently_probed(self):
        _, cache = make_cache(capacity=1000.0, policy="lru")
        cache.admit(("a",), entry_batches(), 400.0, 1.0, frozenset(), "sort")
        cache.admit(("b",), entry_batches(), 400.0, 1.0, frozenset(), "sort")
        cache.probe(("a",))  # "a" is now more recent than "b"
        cache.admit(("c",), entry_batches(), 400.0, 1.0, frozenset(), "sort")
        assert list(cache._entries) == [("a",), ("c",)]
        assert cache.evictions == 1

    def test_benefit_evicts_cheapest_per_byte(self):
        _, cache = make_cache(capacity=1000.0, policy="benefit")
        # "cheap" is large and cost little to make; "dear" is small and slow.
        cache.admit(("cheap",), entry_batches(), 400.0, 0.01, frozenset(), "sort")
        cache.admit(("dear",), entry_batches(), 100.0, 5.0, frozenset(), "sort")
        cache.admit(("new",), entry_batches(), 600.0, 1.0, frozenset(), "sort")
        assert ("cheap",) not in cache._entries
        assert ("dear",) in cache._entries

    def test_benefit_weighs_observed_reuse(self):
        _, cache = make_cache(capacity=1000.0, policy="benefit")
        # Equal cost and size: the probed entry must survive the unprobed.
        cache.admit(("cold",), entry_batches(), 400.0, 1.0, frozenset(), "sort")
        cache.admit(("hot",), entry_batches(), 400.0, 1.0, frozenset(), "sort")
        for _ in range(3):
            cache.probe(("hot",))
        cache.admit(("new",), entry_batches(), 400.0, 1.0, frozenset(), "sort")
        assert ("hot",) in cache._entries
        assert ("cold",) not in cache._entries

    def test_eviction_keeps_budget(self):
        _, cache = make_cache(capacity=1000.0)
        for i in range(10):
            cache.admit((i,), entry_batches(), 300.0, 1.0, frozenset(), "sort")
        assert cache._bytes <= 1000.0
        assert len(cache._entries) == 3


class TestInvalidation:
    def test_invalidate_by_table(self):
        sim, cache = make_cache()
        cache.admit(("a",), entry_batches(), 10.0, 1.0, frozenset({"lineorder", "date"}), "sort")
        cache.admit(("b",), entry_batches(), 10.0, 1.0, frozenset({"part"}), "sort")
        assert cache.invalidate_table("lineorder") == 1
        assert list(cache._entries) == [("b",)]
        assert cache.invalidated == 1
        assert cache._bytes == 10.0
        assert cache.invalidate_table("lineorder") == 0


YEARS = Table("years", Schema([Column("year"), Column("v")], row_bytes=16), [])


def yearly(lo, hi):
    """sum(v) by year over ``lo <= year <= hi``: a wider range subsumes a
    narrower one (residual = the narrower range over the group column)."""
    return AggregateNode(
        SelectNode(ScanNode(YEARS), Between("year", lo, hi)),
        ("year",),
        (AggSpec("sum", Col("v"), "total"),),
    )


def admit_node(cache, node, nbytes=100.0, key=None):
    assert cache.admit(
        node.signature if key is None else key,
        entry_batches(),
        nbytes,
        1.0,
        frozenset({"years"}),
        "aggregate",
        node=node,
    )


@pytest.mark.usefixtures("whole_budget")
class TestSubsumingProbes:
    """``probe_subsuming`` / ``has_subsuming`` search an index kept beside
    the entries: it must follow every way an entry leaves the cache."""

    def test_probe_finds_the_cheapest_subsuming_entry(self):
        _, cache = make_cache(capacity=10_000.0)
        admit_node(cache, yearly(1990, 1999))
        admit_node(cache, yearly(1992, 1997))
        admit_node(cache, yearly(1994, 1994))  # too narrow to serve the probe
        cache.admit(("no", "node"), entry_batches(), 10.0, 1.0, frozenset(), "sort")
        consumer = yearly(1993, 1995)
        assert cache.has_subsuming(consumer)
        entry, plan, examined = cache.probe_subsuming(consumer)
        # Equal residual cost and bytes: benefit-per-byte ties, insertion order wins.
        assert entry.key == yearly(1990, 1999).signature
        assert plan == fold_plan(consumer, entry.node)
        # The charge counts every entry that could have been a provider,
        # not the few the index handed to the subsumption test.
        assert examined == 3
        assert cache.fold_hits == 1

    def test_examined_skips_the_entry_under_the_probes_own_key(self):
        _, cache = make_cache(capacity=10_000.0)
        admit_node(cache, yearly(1990, 1999))
        admit_node(cache, yearly(1993, 1995))
        _, _, examined = cache.probe_subsuming(yearly(1993, 1995))
        assert examined == 1

    def test_evicted_entry_is_never_returned(self):
        _, cache = make_cache(capacity=250.0, policy="lru")
        admit_node(cache, yearly(1990, 1999))
        assert cache.has_subsuming(yearly(1993, 1995))  # indexes the entry
        admit_node(cache, yearly(2000, 2009))
        admit_node(cache, yearly(2010, 2019))  # evicts the 1990s
        assert cache.evictions == 1
        assert not cache.has_subsuming(yearly(1993, 1995))
        assert cache.probe_subsuming(yearly(1993, 1995)) is None
        assert len(cache._fold_index) == len(cache._entries) == 2

    def test_readmitted_key_serves_the_new_entry_only(self):
        _, cache = make_cache(capacity=10_000.0)
        admit_node(cache, yearly(1990, 1999))
        stale = cache.probe_subsuming(yearly(1993, 1995))[0]
        admit_node(cache, yearly(1990, 1999), nbytes=200.0)  # same key, new entry
        fresh = cache.probe_subsuming(yearly(1993, 1995))[0]
        assert fresh is not stale and fresh.nbytes == 200.0
        assert len(cache._fold_index) == 1

    def test_invalidated_and_cleared_entries_are_never_returned(self):
        _, cache = make_cache(capacity=10_000.0)
        admit_node(cache, yearly(1990, 1999))
        assert cache.has_subsuming(yearly(1993, 1995))
        assert cache.invalidate_table("years") == 1
        assert not cache.has_subsuming(yearly(1993, 1995))
        assert len(cache._fold_index) == 0
        admit_node(cache, yearly(1990, 1999))
        # A full-capacity entry clears every other one out.
        cache.admit(("big",), entry_batches(), 10_000.0, 1.0, frozenset(), "sort")
        assert list(cache._entries) == [("big",)]
        assert cache.probe_subsuming(yearly(1993, 1995)) is None


class TestStats:
    def test_stats_snapshot(self):
        _, cache = make_cache(capacity=500.0, policy="lru")
        cache.admit(("a",), entry_batches(), 10.0, 1.0, frozenset(), "sort")
        cache.probe(("a",))
        cache.probe(("b",))
        stats = cache.stats()
        assert stats["policy"] == "lru"
        assert stats["capacity_bytes"] == 500.0
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["insertions"] == 1
