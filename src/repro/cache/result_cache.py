"""Shared result cache: materialized sub-plan reuse beyond the WoP.

The paper shares work only among queries whose identical sub-plans overlap
*in time*: the step Window of Opportunity closes the moment a host starts
emitting, and a query arriving a millisecond later recomputes everything.
Cache-based multi-query optimization (Michiardi et al.) and shared cloud
execution ("Pay One, Get Hundreds for Free") add the missing axis: keep the
*materialized output* of common sub-plans and replay it for later identical
arrivals at memory-read cost.

:class:`ResultCache` is that store.  It is keyed by the very plan
signatures the SP machinery already matches hosts and satellites on
(:attr:`~repro.engine.packet.Packet.signature`), so anything SP could have
shared inside the WoP the cache can share after it.  One cache instance
lives on the :class:`~repro.storage.manager.StorageManager`, which both
engines of a query service share -- a result filled by the
query-centric path is visible to a query routed anywhere.

Mechanics (all in simulated time, fully deterministic):

* **lookup** -- every resident entry sits in the run's one provider set
  (:class:`~repro.query.subsume.ProviderSet`) beside the live WoP hosts,
  and one pure :meth:`~repro.query.subsume.ProviderSet.lookup` finds the
  entry under the packet's own signature (an exact hit, the empty fold),
  else, under query folding, the best entry whose plan subsumes it.
  ``Stage.decide`` makes that lookup for a packet, and the router's
  :func:`cached_query_centric_plan` makes it for the cache alone;
  admission accounts the outcome, and a hit replays the cached pages
  through the packet's exchange.
* **fill** -- a miss with an eligible sub-plan opens one extra consumer on
  the host's Shared Pages List; the SPL's pull model means the extra
  consumer adds *nothing* to the producer's critical path (the same
  argument as paper Section 4), and the SPL's bounded size still holds.
* **eviction** -- byte-budgeted, two policies: plain ``lru`` and
  ``benefit`` (cost x frequency / size: evict the entry whose re-creation
  cost per resident byte is lowest).
* **invalidation** -- entries record the base tables their sub-plan read;
  :meth:`invalidate_table` drops everything touching an updated table.

Ordering inside the cache is insertion-ordered dicts plus a logical tick
counter, never wall-clock or unseeded randomness, so a run's hit/miss/
eviction sequence is exactly reproducible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.storage.page import ColumnBatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.query.subsume import ProviderSet
    from repro.sim.engine import Simulator

#: name -> one-line description, for ``python -m repro list``.
CACHE_POLICIES = {
    "lru": "evict the least recently probed entry",
    "benefit": "evict the lowest cost x frequency / size entry first",
}

#: The run counters :meth:`ResultCache.stats` reports, in its key order;
#: each is ``sim.metrics.counts["result_cache_<name>"]``.
STAT_COUNTERS = ("hits", "misses", "insertions", "evictions", "rejected", "invalidated", "fold_hits")

#: Largest admissible entry, as a fraction of the byte budget.
MAX_ENTRY_FRACTION = 0.5


class CacheEntry:
    """One materialized sub-plan result."""

    __slots__ = ("key", "batches", "nbytes", "cost_seconds", "tables", "stage",
                 "hits", "last_used", "seq", "node")

    def __init__(
        self,
        key: tuple,
        batches: list[ColumnBatch],
        nbytes: float,
        cost_seconds: float,
        tables: frozenset[str],
        stage: str,
        seq: int,
        node,
    ):
        self.key = key
        self.batches = batches
        self.nbytes = nbytes
        self.cost_seconds = cost_seconds  # simulated time the producer took
        self.tables = tables  # base tables read, for invalidation
        self.stage = stage
        self.hits = 0
        self.last_used = seq
        self.seq = seq
        # The plan node this entry materialized: subsumption probes
        # (repro.query.subsume) need the structure, not just the signature
        # hash.
        self.node = node

    def benefit_per_byte(self) -> float:
        """Eviction score of the ``benefit`` policy: what re-creating this
        entry would cost, per resident byte, weighted by observed reuse."""
        return self.cost_seconds * (1.0 + self.hits) / max(self.nbytes, 1.0)

    def fold_eligible(self) -> bool:
        return True  # a resident entry serves every consumer it subsumes

    def fold_rank(self) -> tuple:
        """Tie-break among entries leaving equal residuals: the smallest,
        then the highest benefit per byte, then the oldest."""
        return (self.nbytes, -self.benefit_per_byte(), self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CacheEntry {self.stage} pages={len(self.batches)} hits={self.hits}>"


class ResultCache:
    """Byte-budgeted, cost-aware store of materialized sub-plan outputs."""

    def __init__(
        self,
        sim: "Simulator",
        providers: "ProviderSet",
        capacity_bytes: float,
        policy: str = "benefit",
    ):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if policy not in CACHE_POLICIES:
            raise ValueError(
                f"unknown cache policy {policy!r} (choose from: {', '.join(CACHE_POLICIES)})"
            )
        self.sim = sim
        #: the run's provider set, which holds every entry for lookups
        self.providers = providers
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self._entries: dict[tuple, CacheEntry] = {}  # insertion-ordered
        self._filling: set[tuple] = set()  # keys with an in-flight fill
        self._bytes = 0.0
        self._tick = 0  # logical clock: deterministic LRU / tie-breaks

    # -- accounting -----------------------------------------------------
    def record_hit(self, entry: CacheEntry, folded: bool = False) -> None:
        """Account a lookup that served from ``entry`` (exactly, or
        through a fold)."""
        self._tick += 1
        entry.hits += 1
        entry.last_used = self._tick
        self.sim.metrics.bump("result_cache_fold_hits" if folded else "result_cache_hits")

    def record_miss(self) -> None:
        """Account a lookup with no exact entry."""
        self._tick += 1
        self.sim.metrics.bump("result_cache_misses")

    # -- fills ----------------------------------------------------------
    def begin_fill(self, key: tuple) -> bool:
        """Claim ``key`` for one in-flight fill; False if one is already
        running (concurrent identical hosts fill once, not N times)."""
        if key in self._filling:
            return False
        self._filling.add(key)
        return True

    def end_fill(self, key: tuple) -> None:
        self._filling.discard(key)

    def fits_entry(self, nbytes: float) -> bool:
        """Would an entry of ``nbytes`` be admissible at all?  Fill workers
        consult this page by page and abandon oversized spills early."""
        return nbytes <= self.capacity_bytes * MAX_ENTRY_FRACTION

    def admit(
        self,
        key: tuple,
        batches: list[ColumnBatch],
        nbytes: float,
        cost_seconds: float,
        tables: frozenset[str],
        stage: str,
        node,
    ) -> bool:
        """Insert a materialized result, evicting by policy to fit."""
        if not self.fits_entry(nbytes):
            self.sim.metrics.bump("result_cache_rejected")
            return False
        if key in self._entries:
            self._drop(key)
        while self._bytes + nbytes > self.capacity_bytes and self._entries:
            self._evict_one()
        self._tick += 1
        entry = self._entries[key] = CacheEntry(
            key, batches, nbytes, cost_seconds, tables, stage, self._tick, node
        )
        self.providers.add(self, key, entry, indexed=True)
        self._bytes += nbytes
        self.sim.metrics.bump("result_cache_insertions")
        return True

    def _evict_one(self) -> None:
        if self.policy == "lru":
            victim = min(self._entries.values(), key=lambda e: (e.last_used, e.seq))
        else:  # benefit per byte; seq breaks exact-score ties deterministically
            victim = min(self._entries.values(), key=lambda e: (e.benefit_per_byte(), e.seq))
        self._drop(victim.key)
        self.sim.metrics.bump("result_cache_evictions")

    # -- invalidation ---------------------------------------------------
    def invalidate_table(self, table_name: str) -> int:
        """Drop every entry whose sub-plan read ``table_name``; returns how
        many were dropped."""
        dead = [k for k, e in self._entries.items() if table_name in e.tables]
        for key in dead:
            self._drop(key)
        if dead:
            self.sim.metrics.bump("result_cache_invalidated", len(dead))
        return len(dead)

    def _drop(self, key: tuple) -> None:
        """Remove the entry under ``key`` from every structure."""
        entry = self._entries.pop(key)
        self._bytes -= entry.nbytes
        self.providers.discard(self, key, entry)

    # -- introspection --------------------------------------------------
    def stats(self) -> dict:
        """JSON-safe snapshot (exported by the service layer): the resident
        state, plus the run's ``result_cache_*`` counters read from
        ``sim.metrics`` -- a view, never a second copy of them."""
        counts = self.sim.metrics.counts
        return {
            "policy": self.policy,
            "capacity_bytes": self.capacity_bytes,
            "resident_bytes": self._bytes,
            "entries": len(self._entries),
            **{name: counts.get(f"result_cache_{name}", 0) for name in STAT_COUNTERS},
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ResultCache {self.policy} entries={len(self._entries)} "
            f"bytes={self._bytes:.0f}/{self.capacity_bytes:.0f}>"
        )


def cached_query_centric_plan(storage, spec, query_folding: bool):
    """The spec's query-centric plan when its admission would be served
    from ``storage``'s cache -- the provider set's lookup, restricted to
    the cache's entries, finds one for its root or, under a sort root, the
    aggregate below -- else ``None``.

    This is the routing layer's cache discount (``QueryService._execute``
    calls it before the policy): a likely hit replays materialized pages
    at memory-read cost, so the query should stay query-centric instead of
    paying GQP admission.  ``query_folding`` is the setting of
    the query-centric engine that will run the plan: only an engine that
    folds replays a merely *subsuming* entry.  Plan construction is pure
    bookkeeping with no simulated cost; the replay worker pays the probe
    cycles."""
    cache = storage.result_cache
    if cache is None:
        return None
    from repro.query.plan import SortNode  # deferred: avoid import cycles

    plan = spec.to_query_centric_plan(storage.tables)
    # The lookups the plan's admission runs: the root's, then -- a sort
    # folds only exactly, and a sort miss admits the aggregate below it --
    # the aggregate's, exact or (under query folding) through a fold.
    nodes = (plan, plan.child) if isinstance(plan, SortNode) else (plan,)
    if any(
        storage.providers.lookup(node, None, cache, query_folding, first=True) is not None
        for node in nodes
    ):
        return plan
    return None
