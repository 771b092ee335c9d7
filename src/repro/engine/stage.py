"""Stage base: packet admission, sharing detection, worker spawning.

Each stage keeps a registry of in-flight host packets keyed by plan
signature.  Admitting a packet whose signature matches a registered host
*inside the host's Window of Opportunity* attaches it as a satellite: its
whole sub-plan is cancelled and its consumers reuse the host's results
(paper Section 2.3).

On top of the WoP, cache-eligible stages consult the shared result cache
(:mod:`repro.cache`) on dispatch.  A probe *hit* replays the materialized
pages through the packet's own exchange at memory-read cost -- the whole
sub-plan is cancelled exactly as for a satellite, but with no host required
to be in flight: sharing beyond the Window of Opportunity.  A probe *miss*
that becomes a host additionally spills its output into the cache through
one extra SPL consumer; the SPL's pull model keeps the producer's critical
path untouched (the Section 4 argument) and its bounded size still governs
producer pacing.

Under query folding (``EngineConfig.query_folding``; see
:mod:`repro.query.subsume`), both layers also match by *subsumption*.  When
no exact host or cache entry exists, admission searches the registry
(through the :class:`~repro.query.subsume.FoldIndex` kept beside it) for a
host whose plan subsumes the packet's and -- if one is inside its WoP --
attaches through a residual operator: a worker streams the host's output
through the compiled post-filter and projection into the packet's own
exchange, at memory-read + residual cost instead of the whole
sub-plan.  Failing that, the result cache is probed for a *subsuming* entry
and replayed the same way.  The folded packet still registers its own exact
signature (identical arrivals attach to it) and still spills to the cache,
so one broad host seeds both sharing layers for its whole cone of narrower
queries.  Admission order: exact cache hit, exact WoP attach, subsuming WoP
fold, subsuming cache fold, then query-centric.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Iterator

from repro.engine.exchange import END
from repro.engine.packet import Packet
from repro.engine.wop import STAGE_WOP, WindowOfOpportunity
from repro.query.plan import referenced_tables
from repro.query.subsume import FoldIndex, FoldPlan, FoldPlanner, ResidualOperator
from repro.storage.page import ColumnBatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache import CacheEntry, ResultCache
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


class Stage:
    """One relational-operator stage of the QPipe engine."""

    def __init__(self, engine: "QPipeEngine", name: str):
        self.engine = engine
        self.name = name
        self.wop = STAGE_WOP.get(name, WindowOfOpportunity.NONE)
        self._registry: dict[tuple, Packet] = {}
        # The registry's hosts again, searchable by subsumption.
        self._fold_index = FoldIndex()
        self.packets_admitted = 0
        self.packets_shared = 0
        self.packets_cached = 0
        self.packets_folded = 0  # attached to a subsuming in-flight host
        self.packets_fold_cached = 0  # served from a subsuming cache entry

    # ------------------------------------------------------------------
    @property
    def sp_enabled(self) -> bool:
        cfg = self.engine.config
        return {
            "tablescan": cfg.sp_scan,
            "join": cfg.sp_join,
            "cjoin": cfg.sp_cjoin,
        }.get(self.name, False)

    def result_cache(self) -> "ResultCache | None":
        """The shared result cache, when one exists and this stage is
        cache-eligible (None otherwise -- the zero-cost default path)."""
        if self.name not in RESULT_CACHE_STAGES:
            return None
        return self.engine.storage.result_cache

    def make_packet(self, node: "PlanNode", query: "Query") -> Packet:
        return Packet(node, query, self.name, self.wop)

    def admit(self, packet: Packet) -> bool:
        """Register ``packet``; returns True if its sub-plan must not be
        built -- it attached as a satellite (exactly or through a fold),
        or it is served from the result cache (exactly or folded)."""
        self.packets_admitted += 1
        cache = self.result_cache()
        if cache is not None:
            entry = cache.probe(packet.signature)
            if entry is not None:
                packet.exchange = self.engine.new_exchange(
                    f"{self.name}.p{packet.packet_id}"
                )
                self.packets_cached += 1
                packet.query.cache_served = True
                self._record_cache_hit(packet)
                self.spawn_worker(packet, self._replay_cached(packet, entry))
                return True
        if self.sp_enabled:
            host = self._registry.get(packet.signature)
            if host is not None and host.can_attach():
                host.attach_satellite(packet)
                self.packets_shared += 1
                self._record_sharing(packet)
                return True
        fold_on = self.engine.config.query_folding
        if fold_on and self.sp_enabled and self._try_fold_host(packet, cache):
            return True
        if fold_on and cache is not None and self._try_fold_cached(packet, cache):
            return True
        packet.exchange = self.engine.new_exchange(f"{self.name}.p{packet.packet_id}")
        if self.sp_enabled:
            self._register(packet)
        if cache is not None and self._fill_eligible(packet, cache):
            self.engine.sim.spawn(
                self._fill_cache(packet, cache),
                name=f"cachefill-{self.name}-p{packet.packet_id}",
            )
        return False

    def _register(self, packet: Packet) -> None:
        """Make ``packet`` the host for its signature, replacing a host
        that fell out of its WoP, if any."""
        old = self._registry.get(packet.signature)
        if old is not None:
            self._fold_index.discard(old)
        self._registry[packet.signature] = packet
        self._fold_index.add(packet.node, packet)

    def unregister(self, packet: Packet) -> None:
        """Remove a host from the registry (step WoP: on first output)."""
        if self._registry.get(packet.signature) is packet:
            del self._registry[packet.signature]
            self._fold_index.discard(packet)

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

    def _replay_cached(self, packet: Packet, entry: "CacheEntry") -> Iterator[Any]:
        """Worker for a cache hit: replay the materialized pages through
        the packet's exchange at memory-read cost, then close."""
        cost = self.engine.cost
        exchange = packet.exchange
        yield cost.cache_probe_charge
        for batch in entry.batches:
            yield cost.cache_replay_charge
            yield cost.read(len(batch), batch.weight)
            yield from exchange.emit(batch.copy())
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
    # Query folding (repro.query.subsume): subsumption attach and replay
    # ------------------------------------------------------------------
    def _try_fold_host(self, packet: Packet, cache: "ResultCache | None") -> bool:
        """Search the registry for the cheapest host whose plan subsumes
        this packet's and attach through a residual operator.  The fold
        reader is opened *here*, before the host can emit -- a host that
        has already started emitting is skipped (pages before the attach
        point would be lost)."""
        planner = FoldPlanner(packet.node)
        # Exact attach was already tried (and missed).
        exact = self._registry.get(packet.signature)
        for host in self._fold_index.candidates(packet.node):
            if host is not exact and self._fold_eligible(host):
                planner.consider(host.node, host, tie_break=(host.packet_id,))
        best = planner.best()
        if best is None:
            return False
        host, plan = best
        # The search is charged per *eligible* host, whatever the index
        # spared the host clock (what an indexed search should cost in
        # simulated time is a separate, tick-moving decision).
        examined = sum(
            1
            for h in self._registry.values()
            if h is not exact and self._fold_eligible(h)
        )
        reader = host.exchange.open_reader()
        packet.exchange = self.engine.new_exchange(f"{self.name}.p{packet.packet_id}")
        self.packets_folded += 1
        self.engine.sim.metrics.bump(f"fold_attach:{self._sharing_label(packet)}")
        # The folded packet is a full host for its own exact signature:
        # identical arrivals attach to it, and it may spill to the cache.
        self._register(packet)
        if cache is not None and self._fill_eligible(packet, cache):
            self.engine.sim.spawn(
                self._fill_cache(packet, cache),
                name=f"cachefill-{self.name}-p{packet.packet_id}",
            )
        self.spawn_worker(
            packet, self._fold_from_host(packet, host, reader, plan, examined)
        )
        return True

    @staticmethod
    def _fold_eligible(host: Packet) -> bool:
        """May a newcomer still fold into ``host``?  Inside its WoP, not
        yet emitting (pages before the attach point would be lost), and
        pull-model only: a FIFO host would pay the copies."""
        if host.started_emitting or not host.can_attach():
            return False
        exchange = host.exchange
        return exchange is not None and exchange.kind == "spl"

    def _fold_from_host(
        self,
        packet: Packet,
        host: Packet,
        reader: Any,
        plan: FoldPlan,
        examined: int,
    ) -> Iterator[Any]:
        """Worker for a host fold: stream the host's output through the
        compiled residual operator into this packet's own exchange.  The
        packet pays the fold search, a memory read per page and the
        residual predicate per term; the host's critical path is untouched
        (one more SPL reader under the pull model)."""
        cost = self.engine.cost
        exchange = packet.exchange
        op = ResidualOperator(plan, host.node.schema)
        yield cost.fold_search(examined)
        terms = plan.residual_terms
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

    def _try_fold_cached(self, packet: Packet, cache: "ResultCache") -> bool:
        """Probe the result cache for a *subsuming* entry (exact probe
        already missed) and replay it through the residual operator."""
        hit = cache.probe_subsuming(packet.node)
        if hit is None:
            return False
        entry, plan, examined = hit
        packet.exchange = self.engine.new_exchange(f"{self.name}.p{packet.packet_id}")
        self.packets_fold_cached += 1
        packet.query.cache_served = True
        self.engine.sim.metrics.bump(f"fold_cache_hit:{self._sharing_label(packet)}")
        self.spawn_worker(packet, self._replay_folded(packet, entry, plan, examined))
        return True

    def _replay_folded(
        self, packet: Packet, entry: "CacheEntry", plan: FoldPlan, examined: int
    ) -> Iterator[Any]:
        """Worker for a folded cache hit: like :meth:`_replay_cached`, but
        every page passes through the residual operator first."""
        cost = self.engine.cost
        exchange = packet.exchange
        op = ResidualOperator(plan, entry.node.schema)
        yield cost.fold_search(examined)
        yield cost.cache_probe_charge
        terms = plan.residual_terms
        for batch in entry.batches:
            yield cost.cache_replay_charge
            n = len(batch)
            yield cost.read(n, batch.weight)
            if terms and n:
                yield cost.predicate(n, batch.weight, terms)
            out = op.apply(batch)
            if len(out):
                yield from exchange.emit(out)
        packet.mark_started()
        exchange.close()
        packet.finished = True

    # ------------------------------------------------------------------
    def _sharing_label(self, packet: Packet) -> str:
        label = getattr(packet.node, "label", None)
        return f"{self.name}:{label}" if label else self.name

    def _record_sharing(self, packet: Packet) -> None:
        self.engine.sim.metrics.record_sharing(self._sharing_label(packet))

    def _record_cache_hit(self, packet: Packet) -> None:
        self.engine.sim.metrics.bump(f"result_cache_hit:{self._sharing_label(packet)}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Stage {self.name} hosts={len(self._registry)}>"
