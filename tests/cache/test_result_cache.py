"""Unit tests for the shared result cache store: lookup/fill bookkeeping,
byte-budgeted eviction under both policies, table invalidation."""

from types import SimpleNamespace

import pytest

from repro.cache import CACHE_POLICIES, ResultCache, result_cache
from repro.query.expr import Between, Col
from repro.query.plan import AggregateNode, AggSpec, ScanNode, SelectNode
from repro.query.subsume import FoldPlan, ProviderSet, fold_plan
from repro.sim import Simulator
from repro.sim.machine import MachineSpec
from repro.storage.page import ColumnBatch
from repro.storage.schema import Column, Schema
from repro.storage.table import Table


def make_cache(capacity=1000.0, policy="benefit"):
    sim = Simulator(MachineSpec(cores=2))
    return sim, ResultCache(sim, ProviderSet(), capacity, policy)


def lookup(cache, node, fold=True, first=False):
    """The provider set's lookup, restricted to ``cache``'s entries (what
    the router asks)."""
    return cache.providers.lookup(node, None, cache, fold, first)


@pytest.fixture
def whole_budget(monkeypatch):
    """One entry may fill the whole byte budget."""
    monkeypatch.setattr(result_cache, "MAX_ENTRY_FRACTION", 1.0)


def entry_batches(n=1):
    return [ColumnBatch(([i],), None, 1.0) for i in range(n)]


def count(cache, name):
    """The run counter ``result_cache_<name>`` as the metrics tree holds it."""
    return cache.sim.metrics.counts.get(f"result_cache_{name}", 0)


def probe(cache, key):
    """An admission's exact lookup of ``key``, accounted: the entry or None."""
    found = lookup(cache, SimpleNamespace(signature=key), fold=False)
    if found is None:
        cache.record_miss()
        return None
    cache.record_hit(found.provider)
    return found.provider


class TestConstruction:
    def test_rejects_bad_capacity(self):
        sim = Simulator(MachineSpec(cores=2))
        with pytest.raises(ValueError):
            ResultCache(sim, ProviderSet(), 0.0)
        with pytest.raises(ValueError):
            ResultCache(sim, ProviderSet(), -1.0)

    def test_rejects_unknown_policy(self):
        sim = Simulator(MachineSpec(cores=2))
        with pytest.raises(ValueError, match="unknown cache policy"):
            ResultCache(sim, ProviderSet(), 100.0, "fifo")

    def test_policies_registry_matches(self):
        for policy in CACHE_POLICIES:
            sim, cache = make_cache(policy=policy)
            assert cache.policy == policy


class TestProbeAndFill:
    def test_miss_then_hit(self):
        sim, cache = make_cache()
        key = ("sort", "x")
        assert probe(cache, key) is None
        assert count(cache, "misses") == 1
        cache.admit(key, entry_batches(), 100.0, 0.5, frozenset({"t"}), "sort", SCAN)
        entry = probe(cache, key)
        assert entry is not None
        assert entry.hits == 1
        assert count(cache, "hits") == 1
        assert count(cache, "misses") == 1

    def test_contains_is_silent(self):
        sim, cache = make_cache()
        key = ("agg", "y")
        cache.admit(key, entry_batches(), 10.0, 0.1, frozenset(), "aggregate", SCAN)
        entry = cache._entries[key]
        found = lookup(cache, SimpleNamespace(signature=key), fold=False)
        assert found == ("cache_hit", entry, FoldPlan(), 0)
        assert lookup(cache, SimpleNamespace(signature=("other",)), fold=False) is None
        assert count(cache, "hits") == 0 and count(cache, "misses") == 0 and entry.hits == 0
        assert cache._tick == 1  # the admission's only

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
        assert not cache.admit(("k",), entry_batches(), 501.0, 1.0, frozenset(), "sort", SCAN)
        assert count(cache, "rejected") == 1
        assert len(cache._entries) == 0

    def test_readmit_replaces(self):
        _, cache = make_cache()
        key = ("sort", "x")
        cache.admit(key, entry_batches(1), 100.0, 0.5, frozenset(), "sort", SCAN)
        cache.admit(key, entry_batches(3), 200.0, 0.7, frozenset(), "sort", SCAN)
        assert len(cache._entries) == 1
        assert cache._bytes == 200.0


@pytest.mark.usefixtures("whole_budget")
class TestEviction:
    def test_lru_evicts_least_recently_probed(self):
        _, cache = make_cache(capacity=1000.0, policy="lru")
        cache.admit(("a",), entry_batches(), 400.0, 1.0, frozenset(), "sort", SCAN)
        cache.admit(("b",), entry_batches(), 400.0, 1.0, frozenset(), "sort", SCAN)
        probe(cache, ("a",))  # "a" is now more recent than "b"
        cache.admit(("c",), entry_batches(), 400.0, 1.0, frozenset(), "sort", SCAN)
        assert list(cache._entries) == [("a",), ("c",)]
        assert count(cache, "evictions") == 1

    def test_benefit_evicts_cheapest_per_byte(self):
        _, cache = make_cache(capacity=1000.0, policy="benefit")
        # "cheap" is large and cost little to make; "dear" is small and slow.
        cache.admit(("cheap",), entry_batches(), 400.0, 0.01, frozenset(), "sort", SCAN)
        cache.admit(("dear",), entry_batches(), 100.0, 5.0, frozenset(), "sort", SCAN)
        cache.admit(("new",), entry_batches(), 600.0, 1.0, frozenset(), "sort", SCAN)
        assert ("cheap",) not in cache._entries
        assert ("dear",) in cache._entries

    def test_benefit_weighs_observed_reuse(self):
        _, cache = make_cache(capacity=1000.0, policy="benefit")
        # Equal cost and size: the probed entry must survive the unprobed.
        cache.admit(("cold",), entry_batches(), 400.0, 1.0, frozenset(), "sort", SCAN)
        cache.admit(("hot",), entry_batches(), 400.0, 1.0, frozenset(), "sort", SCAN)
        for _ in range(3):
            probe(cache, ("hot",))
        cache.admit(("new",), entry_batches(), 400.0, 1.0, frozenset(), "sort", SCAN)
        assert ("hot",) in cache._entries
        assert ("cold",) not in cache._entries

    def test_eviction_keeps_budget(self):
        _, cache = make_cache(capacity=1000.0)
        for i in range(10):
            cache.admit((i,), entry_batches(), 300.0, 1.0, frozenset(), "sort", SCAN)
        assert cache._bytes <= 1000.0
        assert len(cache._entries) == 3


class TestInvalidation:
    def test_invalidate_by_table(self):
        sim, cache = make_cache()
        cache.admit(("a",), entry_batches(), 10.0, 1.0, frozenset({"lineorder", "date"}), "sort", SCAN)
        cache.admit(("b",), entry_batches(), 10.0, 1.0, frozenset({"part"}), "sort", SCAN)
        assert cache.invalidate_table("lineorder") == 1
        assert list(cache._entries) == [("b",)]
        assert count(cache, "invalidated") == 1
        assert cache._bytes == 10.0
        assert cache.invalidate_table("lineorder") == 0


YEARS = Table("years", Schema([Column("year"), Column("v")], row_bytes=16), [])
#: The plan node the exact-probe tests file their entries under.
SCAN = ScanNode(YEARS)


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
    """A folding ``lookup`` searches the provider set's index, which holds
    every entry: it must follow every way an entry leaves the cache."""

    def test_probe_finds_the_cheapest_subsuming_entry(self):
        _, cache = make_cache(capacity=10_000.0)
        admit_node(cache, yearly(1990, 1999))
        admit_node(cache, yearly(1992, 1997))
        admit_node(cache, yearly(1994, 1994))  # too narrow to serve the lookup
        consumer = yearly(1993, 1995)
        assert lookup(cache, consumer, first=True) is not None
        mechanism, entry, plan, examined = lookup(cache, consumer)
        assert mechanism == "cache_fold"
        # Equal residual cost and bytes: benefit-per-byte ties, insertion order wins.
        assert entry.key == yearly(1990, 1999).signature
        assert plan == fold_plan(consumer, entry.node)
        # The charge counts every entry that could have been a provider,
        # not the few the index handed to the subsumption test.
        assert examined == 3
        assert count(cache, "fold_hits") == 0  # the lookup is pure; admission accounts
        cache.record_hit(entry, folded=True)
        assert count(cache, "fold_hits") == 1 and entry.hits == 1

    def test_an_exact_entry_wins_with_the_empty_fold(self):
        _, cache = make_cache(capacity=10_000.0)
        admit_node(cache, yearly(1990, 1999))
        admit_node(cache, yearly(1993, 1995))
        exact = cache._entries[yearly(1993, 1995).signature]
        assert lookup(cache, yearly(1993, 1995)) == ("cache_hit", exact, FoldPlan(), 0)

    def test_evicted_entry_is_never_returned(self):
        _, cache = make_cache(capacity=250.0, policy="lru")
        admit_node(cache, yearly(1990, 1999))
        assert lookup(cache, yearly(1993, 1995), first=True)  # indexes the entry
        admit_node(cache, yearly(2000, 2009))
        admit_node(cache, yearly(2010, 2019))  # evicts the 1990s
        assert count(cache, "evictions") == 1
        assert lookup(cache, yearly(1993, 1995), first=True) is None
        assert lookup(cache, yearly(1993, 1995)) is None
        assert len(cache.providers._index) == len(cache._entries) == 2

    def test_readmitted_key_serves_the_new_entry_only(self):
        _, cache = make_cache(capacity=10_000.0)
        admit_node(cache, yearly(1990, 1999))
        stale = lookup(cache, yearly(1993, 1995)).provider
        admit_node(cache, yearly(1990, 1999), nbytes=200.0)  # same key, new entry
        fresh = lookup(cache, yearly(1993, 1995)).provider
        assert fresh is not stale and fresh.nbytes == 200.0
        assert len(cache.providers._index) == 1

    def test_invalidated_and_cleared_entries_are_never_returned(self):
        _, cache = make_cache(capacity=10_000.0)
        admit_node(cache, yearly(1990, 1999))
        assert lookup(cache, yearly(1993, 1995), first=True)
        assert cache.invalidate_table("years") == 1
        assert lookup(cache, yearly(1993, 1995), first=True) is None
        assert len(cache.providers._index) == 0
        admit_node(cache, yearly(1990, 1999))
        # A full-capacity entry clears every other one out.
        cache.admit(("big",), entry_batches(), 10_000.0, 1.0, frozenset(), "sort", SCAN)
        assert list(cache._entries) == [("big",)]
        assert lookup(cache, yearly(1993, 1995)) is None


class TestStats:
    def test_stats_snapshot(self):
        _, cache = make_cache(capacity=500.0, policy="lru")
        cache.admit(("a",), entry_batches(), 10.0, 1.0, frozenset(), "sort", SCAN)
        probe(cache, ("a",))
        probe(cache, ("b",))
        stats = cache.stats()
        assert stats["policy"] == "lru"
        assert stats["capacity_bytes"] == 500.0
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["insertions"] == 1
