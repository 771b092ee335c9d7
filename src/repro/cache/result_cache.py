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

* **probe** -- on stage dispatch a packet looks itself up before the WoP
  registry; a hit replays the cached pages through the packet's exchange.
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

from typing import TYPE_CHECKING, Iterable

from repro.query.subsume import FoldIndex, FoldPlan, FoldPlanner, fold_plan
from repro.storage.page import ColumnBatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: name -> one-line description, for ``python -m repro list``.
CACHE_POLICIES = {
    "lru": "evict the least recently probed entry",
    "benefit": "evict the lowest cost x frequency / size entry first",
}

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
        node=None,
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
        # The plan node this entry materialized, when the filler recorded
        # it: subsumption probes (repro.query.subsume) need the structure,
        # not just the signature hash.  Entries without a node only serve
        # exact hits.
        self.node = node

    def benefit_per_byte(self) -> float:
        """Eviction score of the ``benefit`` policy: what re-creating this
        entry would cost, per resident byte, weighted by observed reuse."""
        return self.cost_seconds * (1.0 + self.hits) / max(self.nbytes, 1.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CacheEntry {self.stage} pages={len(self.batches)} hits={self.hits}>"


class ResultCache:
    """Byte-budgeted, cost-aware store of materialized sub-plan outputs."""

    def __init__(
        self,
        sim: "Simulator",
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
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self._entries: dict[tuple, CacheEntry] = {}  # insertion-ordered
        # The entries that recorded their plan node, searchable by
        # subsumption (entries without one only serve exact hits).
        self._fold_index = FoldIndex()
        self._filling: set[tuple] = set()  # keys with an in-flight fill
        self._bytes = 0.0
        self._tick = 0  # logical clock: deterministic LRU / tie-breaks
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.rejected = 0  # entries larger than the per-entry bound
        self.invalidated = 0
        self.fold_hits = 0  # partial hits served through a subsuming entry

    # -- probes ---------------------------------------------------------
    def probe(self, key: tuple) -> CacheEntry | None:
        """Look up ``key``, counting the hit or miss."""
        entry = self._entries.get(key)
        self._tick += 1
        if entry is None:
            self.misses += 1
            self.sim.metrics.bump("result_cache_misses")
            return None
        entry.hits += 1
        entry.last_used = self._tick
        self.hits += 1
        self.sim.metrics.bump("result_cache_hits")
        return entry

    def contains_any(self, keys: Iterable[tuple]) -> bool:
        """Silent membership test (no counters) -- the routing layer's
        "would this query likely be served from cache?" probe."""
        return any(k in self._entries for k in keys)

    def probe_subsuming(self, node) -> tuple[CacheEntry, FoldPlan, int] | None:
        """Partial-hit probe: the cheapest entry whose recorded plan
        *subsumes* ``node`` (repro.query.subsume), as ``(entry, fold plan,
        candidates examined)``.  Called only after an exact :meth:`probe`
        missed, so it never shadows a direct hit.  Ranking: fewest residual
        terms first, then smallest entry with the highest
        benefit-per-byte (cheapest to replay, most worth keeping hot), then
        insertion order."""
        planner = FoldPlanner(node)
        for entry in self._fold_candidates(node):
            planner.consider(
                entry.node,
                entry,
                tie_break=(entry.nbytes, -entry.benefit_per_byte(), entry.seq),
            )
        best = planner.best()
        if best is None:
            return None
        entry, plan = best
        self._tick += 1
        entry.hits += 1
        entry.last_used = self._tick
        self.fold_hits += 1
        self.sim.metrics.bump("result_cache_fold_hits")
        # Charged per entry that *could* have been a provider (it has a
        # node and another key), whatever the index spared the host clock.
        examined = len(self._fold_index)
        exact = self._entries.get(node.signature)
        if exact is not None and exact.node is not None:
            examined -= 1
        return entry, plan, examined

    def has_subsuming(self, node) -> bool:
        """Silent fold-hit test (no counters) -- the routing layer's
        "would folding likely serve this query from cache?" probe."""
        return any(
            fold_plan(node, entry.node) is not None
            for entry in self._fold_candidates(node)
        )

    def _fold_candidates(self, node) -> list[CacheEntry]:
        """The entries that may subsume ``node`` (a superset, from the
        index), minus the entry under its own key -- an exact probe's."""
        exact = self._entries.get(node.signature)
        return [e for e in self._fold_index.candidates(node) if e is not exact]

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
        stage: str = "",
        node=None,
    ) -> bool:
        """Insert a materialized result, evicting by policy to fit."""
        if not self.fits_entry(nbytes):
            self.rejected += 1
            self.sim.metrics.bump("result_cache_rejected")
            return False
        if key in self._entries:
            self._drop(key)
        while self._bytes + nbytes > self.capacity_bytes and self._entries:
            self._evict_one()
        self._tick += 1
        entry = self._entries[key] = CacheEntry(
            key, batches, nbytes, cost_seconds, tables, stage, self._tick, node=node
        )
        if node is not None:
            self._fold_index.add(node, entry)
        self._bytes += nbytes
        self.insertions += 1
        self.sim.metrics.bump("result_cache_insertions")
        return True

    def _evict_one(self) -> None:
        if self.policy == "lru":
            victim = min(self._entries.values(), key=lambda e: (e.last_used, e.seq))
        else:  # benefit per byte; seq breaks exact-score ties deterministically
            victim = min(self._entries.values(), key=lambda e: (e.benefit_per_byte(), e.seq))
        self._drop(victim.key)
        self.evictions += 1
        self.sim.metrics.bump("result_cache_evictions")

    # -- invalidation ---------------------------------------------------
    def invalidate_table(self, table_name: str) -> int:
        """Drop every entry whose sub-plan read ``table_name``; returns how
        many were dropped."""
        dead = [k for k, e in self._entries.items() if table_name in e.tables]
        for key in dead:
            self._drop(key)
        if dead:
            self.invalidated += len(dead)
            self.sim.metrics.bump("result_cache_invalidated", len(dead))
        return len(dead)

    def _drop(self, key: tuple) -> None:
        """Remove the entry under ``key`` from every structure."""
        entry = self._entries.pop(key)
        self._bytes -= entry.nbytes
        self._fold_index.discard(entry)

    # -- introspection --------------------------------------------------
    def stats(self) -> dict:
        """JSON-safe counter snapshot (exported by the service layer)."""
        return {
            "policy": self.policy,
            "capacity_bytes": self.capacity_bytes,
            "resident_bytes": self._bytes,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "rejected": self.rejected,
            "invalidated": self.invalidated,
            "fold_hits": self.fold_hits,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ResultCache {self.policy} entries={len(self._entries)} "
            f"bytes={self._bytes:.0f}/{self.capacity_bytes:.0f}>"
        )


def cached_query_centric_plan(storage, spec, query_folding: bool):
    """The spec's query-centric plan when a result-cache hit is likely for
    it -- its root signature (or, under a sort root, the aggregate below)
    is resident in ``storage``'s cache -- else ``None``.

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
    candidates = [plan.signature]
    if isinstance(plan, SortNode):
        candidates.append(plan.child.signature)
    if cache.contains_any(candidates):
        return plan
    # Under query folding, a *subsuming* entry serves the query the same
    # way (residual replay at memory-read cost), so the routing discount
    # applies to partial hits too.  Sorts fold only exactly, so under a
    # sort root it is the aggregate that may have a subsuming entry.
    if query_folding:
        root = plan.child if isinstance(plan, SortNode) else plan
        if cache.has_subsuming(root):
            return plan
    return None
