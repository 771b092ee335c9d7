"""Stage base: packet admission, the sharing decision, worker spawning.

Each sharing stage registers its in-flight host packets, by plan
signature, in the run's one provider set
(:class:`~repro.query.subsume.ProviderSet`, on the storage manager).
Admitting a packet whose signature matches a host of the same stage
*inside the host's Window of Opportunity* attaches it as a satellite: its
whole sub-plan is cancelled and its consumers reuse the host's results
(paper Section 2.3).

Cache-eligible stages also read the shared result cache
(:mod:`repro.cache`), whose entries sit in the same set: a *hit* replays
the materialized pages through the packet's own exchange at memory-read
cost -- the sub-plan is cancelled as for a satellite, with no host in
flight: sharing beyond the Window of Opportunity.  A miss that becomes a
host spills its output into the cache through one extra SPL consumer; the
SPL's pull model keeps the producer's critical path untouched (the
Section 4 argument) and its bounded size still governs producer pacing.

Under query folding (``EngineConfig.query_folding``; see
:mod:`repro.query.subsume`) both providers also serve by *subsumption*: a
host or entry whose plan subsumes the packet's feeds it through a residual
operator (post-filter + projection) at memory-read + residual cost.  An
exact match is the fold with the empty residual, so :meth:`Stage.decide`
is one :meth:`~repro.query.subsume.ProviderSet.lookup` -- the same call
the router's cache probe makes -- which picks one winner by a fixed
precedence: exact cache hit, exact WoP attach, host fold, cache fold.
:meth:`Stage.admit` runs the winner, or computes the packet when there is
none.  A folded packet still registers its own exact signature (identical
arrivals attach to it) and still spills to the cache, so one broad host
seeds both layers for its whole cone of narrower queries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Iterator

from repro.engine.exchange import END
from repro.engine.packet import Packet
from repro.engine.wop import STAGE_WOP, WindowOfOpportunity
from repro.query.plan import referenced_tables
from repro.query.subsume import Decision, ResidualOperator
from repro.storage.page import ColumnBatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache import ResultCache
    from repro.engine.qpipe import QPipeEngine
    from repro.query.plan import PlanNode
    from repro.query.star import Query

#: Stages whose packets may probe/fill the shared result cache (when the
#: storage manager carries one; see repro.cache): materialization points
#: with small outputs and large recompute costs -- aggregate/sort roots
#: serve whole recurring queries from cache, CJOIN packets cover the GQP
#: route.  Raw scans are never cached (the buffer pool holds base pages),
#: nor are joins (potentially fact-sized intermediate results).
RESULT_CACHE_STAGES = frozenset({"aggregate", "sort", "cjoin"})

#: Sharing mechanism -> its ``Metrics.counts`` key prefix (a WoP attach
#: is counted by ``Metrics.record_sharing``).
SERVED_COUNTS = {
    "cache_hit": "result_cache_hit",
    "host_fold": "fold_attach",
    "cache_fold": "fold_cache_hit",
}


class Stage:
    """One relational-operator stage of the QPipe engine."""

    def __init__(self, engine: "QPipeEngine", name: str):
        self.engine = engine
        self.name = name
        self.wop = STAGE_WOP.get(name, WindowOfOpportunity.NONE)
        self.providers = engine.storage.providers
        cfg = engine.config
        self.sp_enabled: bool = {
            "tablescan": cfg.sp_scan,
            "join": cfg.sp_join,
            "cjoin": cfg.sp_cjoin,
        }.get(name, False)

    def result_cache(self) -> "ResultCache | None":
        """The shared result cache, when one exists and this stage is
        cache-eligible (None otherwise -- the zero-cost default path)."""
        if self.name not in RESULT_CACHE_STAGES:
            return None
        return self.engine.storage.result_cache

    def make_packet(self, node: "PlanNode", query: "Query") -> Packet:
        return Packet(node, query, self.name, self.wop)

    def decide(self, packet: Packet) -> Decision | None:
        """The one sharing decision for ``packet``: the mechanism, provider
        and fold that serve it, or None when it must be computed -- one
        lookup over this stage's hosts (when it shares) and the cache's
        entries (when it may read them).  Pure: :meth:`admit` accounts and
        runs the winner."""
        return self.providers.lookup(
            packet.node,
            self if self.sp_enabled else None,
            self.result_cache(),
            self.engine.config.query_folding,
        )

    def admit(self, packet: Packet) -> bool:
        """Register ``packet``; returns True if its sub-plan must not be
        built -- :meth:`decide` found a host or a cache entry to serve it."""
        won = self.decide(packet)
        mechanism = won.mechanism if won is not None else None
        cache = self.result_cache()
        if cache is not None:
            if mechanism == "cache_hit":
                cache.record_hit(won.provider)
            else:
                cache.record_miss()
                if mechanism == "cache_fold":
                    cache.record_hit(won.provider, folded=True)
        if mechanism == "wop_attach":
            won.provider.attach_satellite(packet)
            self._record_sharing(packet)
            return True
        # A fold reader is opened before the host can emit (the decision
        # skipped hosts that already did: earlier pages would be lost).
        reader = won.provider.exchange.open_reader() if mechanism == "host_fold" else None
        packet.exchange = self.engine.new_exchange(f"{self.name}.p{packet.packet_id}")
        if won is not None:
            key = SERVED_COUNTS[mechanism]
            self.engine.sim.metrics.bump(f"{key}:{self._sharing_label(packet)}")
        if mechanism in ("cache_hit", "cache_fold"):
            packet.query.cache_served = True
            self.spawn_worker(packet, self._replay(packet, won))
            return True
        # A computed or folded packet is a full host for its own exact
        # signature: identical arrivals attach to it, and it may spill to
        # the cache.
        if self.sp_enabled:  # replacing a host that fell out of its WoP, if any
            folds = self.engine.config.query_folding  # a fold-off engine's host attaches only
            self.providers.add(self, packet.signature, packet, indexed=folds)
        if cache is not None and self._fill_eligible(packet, cache):
            self.engine.sim.spawn(
                self._fill_cache(packet, cache),
                name=f"cachefill-{self.name}-p{packet.packet_id}",
            )
        if mechanism == "host_fold":
            self.spawn_worker(packet, self._fold_from_host(packet, won, reader))
            return True
        return False

    def unregister(self, packet: Packet) -> None:
        """Retire a host (step WoP: on first output)."""
        self.providers.discard(self, packet.signature, packet)

    def spawn_worker(self, packet: Packet, gen: Generator[Any, Any, Any]) -> None:
        self.engine.sim.spawn(
            gen,
            name=f"q{packet.query.query_id}-{self.name}-p{packet.packet_id}",
            query_id=packet.query.query_id,
        )

    # ------------------------------------------------------------------
    # Result cache: replay (hit) and spill (fill-on-miss)
    # ------------------------------------------------------------------
    def _fill_eligible(self, packet: Packet, cache: "ResultCache") -> bool:
        """Spill this host's output into the cache?  Only through an SPL
        (a pull-model extra consumer is free for the producer; a FIFO
        satellite would push copy costs onto its critical path), and only
        once per signature at a time."""
        if packet.exchange.kind != "spl":
            return False
        return cache.begin_fill(packet.signature)

    def _replay(self, packet: Packet, won: Decision) -> Iterator[Any]:
        """Worker for a cache hit: replay the entry's pages through the
        packet's exchange at memory-read cost, then close.  A fold first
        pays its search and passes every page through the residual
        operator; an exact hit emits copies."""
        cost = self.engine.cost
        exchange = packet.exchange
        entry, plan = won.provider, won.plan
        op = None
        if won.mechanism == "cache_fold":
            op = ResidualOperator(plan, entry.node.schema)
            yield cost.fold_search(won.examined)
        yield cost.cache_probe_charge
        terms = plan.residual_terms
        for batch in entry.batches:
            yield cost.cache_replay_charge
            n = len(batch)
            yield cost.read(n, batch.weight)
            if op is None:
                yield from exchange.emit(batch.copy())
                continue
            if terms and n:
                yield cost.predicate(n, batch.weight, terms)
            out = op.apply(batch)
            if len(out):
                yield from exchange.emit(out)
        packet.mark_started()
        exchange.close()
        packet.finished = True

    def _fill_cache(self, packet: Packet, cache: "ResultCache") -> Iterator[Any]:
        """Worker for a fillable miss: one extra consumer on the host's
        SPL accumulates its pages and commits them at completion.  A spill
        that outgrows the per-entry bound is abandoned (pages are still
        drained so the bounded SPL never blocks on the cache)."""
        sim = self.engine.sim
        cost = self.engine.cost
        key = packet.signature
        reader = packet.exchange.open_reader()
        start = sim.now
        row_bytes = max(packet.node.schema.row_bytes, 1.0)
        batches: list[ColumnBatch] = []
        nbytes = 0.0
        abandoned = False
        try:
            while True:
                batch = yield from reader.read()
                if batch is END:
                    break
                if abandoned:
                    continue
                nbytes += len(batch) * batch.weight * row_bytes
                if not cache.fits_entry(nbytes):
                    abandoned = True
                    batches = []
                    continue
                yield cost.cache_store_charge
                batches.append(batch.copy())
            if not abandoned:
                cache.admit(
                    key,
                    batches,
                    nbytes,
                    cost_seconds=sim.now - start,
                    tables=referenced_tables(packet.node),
                    stage=self.name,
                    node=packet.node,
                )
        finally:
            cache.end_fill(key)

    # ------------------------------------------------------------------
    # Query folding (repro.query.subsume): residual stream from a host
    # ------------------------------------------------------------------
    def _fold_from_host(self, packet: Packet, won: Decision, reader: Any) -> Iterator[Any]:
        """Worker for a host fold: stream the host's output through the
        compiled residual operator into this packet's own exchange.  The
        packet pays the fold search, a memory read per page and the
        residual predicate per term; the host's critical path is untouched
        (one more SPL reader under the pull model)."""
        cost = self.engine.cost
        exchange = packet.exchange
        op = ResidualOperator(won.plan, won.provider.node.schema)
        yield cost.fold_search(won.examined)
        terms = won.plan.residual_terms
        first = True
        while True:
            batch = yield from reader.read()
            if batch is END:
                break
            n = len(batch)
            if n == 0:
                continue
            yield cost.read(n, batch.weight)
            if terms:
                yield cost.predicate(n, batch.weight, terms)
            out = op.apply(batch)
            if len(out):
                if first:
                    first = False
                    packet.mark_started()
                    self.unregister(packet)
                yield from exchange.emit(out)
        packet.mark_started()
        self.unregister(packet)
        exchange.close()
        packet.finished = True

    # ------------------------------------------------------------------
    def _sharing_label(self, packet: Packet) -> str:
        label = getattr(packet.node, "label", None)
        return f"{self.name}:{label}" if label else self.name

    def _record_sharing(self, packet: Packet) -> None:
        self.engine.sim.metrics.record_sharing(self._sharing_label(packet))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Stage {self.name}>"
