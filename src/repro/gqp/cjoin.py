"""The CJOIN pipeline: shared selections + shared hash-joins for star
queries, evaluated by a single always-on dataflow (see package docstring).

Thread structure (all simulated, all daemons):

* 1 preprocessor -- circular fact scan, admission batching, page tagging;
* ``filter_workers`` workers -- move fact pages through the filter chain
  (the paper's *horizontal* configuration; the per-page ``filter_sync_page``
  charge models their queue synchronization, one of CJOIN's inherent
  bookkeeping costs);
* ``distributor_parts`` workers -- route joined tuples to query outputs.

Admission (Section 3.1/3.2) pauses the pipeline: it waits for in-flight
pages to drain, clears retired bitmap slots, scans the referenced dimension
tables through the buffer pool (so file-system caching -- or its absence
under direct I/O -- shows up exactly as in the paper's Figure 13), inserts
or re-annotates selected dimension tuples in the filter hash tables, and
records the new query's point of entry on the fact table's circular scan.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, repeat
from operator import and_, or_
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro.sim.commands import SLEEP
from repro.sim.sync import Channel, Condition
from repro.engine.stages.aggregate import GroupTable
from repro.gqp.bitmap import SlotAllocator
from repro.query.expr import compile_selection
from repro.storage.arrangements import ARRANGEMENTS
from repro.storage.packed import take_values
from repro.storage.page import ColumnBatch
from repro.storage.prefetch import PageSource

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.packet import Packet
    from repro.engine.qpipe import QPipeEngine
    from repro.query.plan import CJoinNode
    from repro.storage.page import Page
    from repro.storage.selections import Selection
    from repro.storage.table import Table


class Filter:
    """Shared scan + shared selection + shared hash-join for one dimension
    (CJOIN groups the three into a 'filter').

    Each resident dimension tuple has one key in two dicts: ``ht`` maps it
    to the bitmap of queries that selected it, ``at`` to its position in
    the dimension table (the distributor gathers payload columns there).
    Both change only at admission and slot reclaim, with the pipeline
    paused and drained, so the distributor reads the positions the filter
    pass saw."""

    __slots__ = (
        "dim_name",
        "fact_fk_idx",
        "weight",
        "ht",
        "at",
        "pass_mask",
        "referencing",
    )

    def __init__(self, dim_name: str, fact_fk_idx: int, weight: float):
        self.dim_name = dim_name
        self.fact_fk_idx = fact_fk_idx
        self.weight = weight  # dim row weight, for bookkeeping charges
        self.ht: dict[Any, int] = {}
        self.at: dict[Any, int] = {}
        self.pass_mask = 0  # bits of queries that do not reference this dim
        self.referencing: set[int] = set()  # slots that do

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Filter {self.dim_name} entries={len(self.ht)}>"


class _QueryState:
    """Runtime state of one admitted star query."""

    __slots__ = (
        "packet",
        "slot",
        "bit",
        "pages_left",
        "outstanding",
        "no_more_pages",
        "projector",
        "fact_pred",
        "fact_pred_terms",
        "done",
        "agg",
    )

    def __init__(self, packet: "Packet", slot: int, pages_left: int):
        self.packet = packet
        self.slot = slot
        self.bit = 1 << slot  # slot mask, hoisted out of the per-page loops
        self.pages_left = pages_left  # fact pages until the scan wraps to the entry point
        self.outstanding = 0  # addressed pages not yet distributed
        self.no_more_pages = False
        self.projector: Callable | None = None
        self.fact_pred: Callable | None = None
        self.fact_pred_terms = 0
        self.done = False
        # DataPath-style shared aggregation (running sums per group & query);
        # None when the query's aggregation runs query-centric above the GQP.
        self.agg: GroupTable | None = None


class _WorkItem:
    """One tagged fact page moving through the pipeline.

    Nothing is read as rows and nothing is sliced: the item holds the
    fact table's column vectors (``cols``, shared with the table and all
    its pages, read-only) and carries the page's surviving tuples as two
    *parallel lists* -- ``pos`` (their positions in the table, starting as
    the page's row range) and ``bms`` (per-tuple query bitmaps).  A filter
    reads only its foreign-key column at ``pos``, the distributor only the
    fact columns a query's predicate and projection name (and finds the
    joined dimension rows through each filter's ``at``), and the bitmap
    pass is a single comprehension over ``bms`` with no per-tuple
    unpacking."""

    __slots__ = ("cols", "weight", "mask", "addressed", "filters", "high_slots", "pos", "bms")

    def __init__(
        self,
        page: "Page",
        mask: int,
        addressed: list[_QueryState],
        filters: list[Filter],
        high_slots: int,
    ):
        self.cols = page.vectors
        self.weight = page.weight
        self.mask = mask
        self.addressed = addressed
        self.filters = filters
        self.high_slots = high_slots
        self.pos: Sequence[int] = range(page.start, page.stop)
        self.bms = [mask] * len(page)


class CJoinPipeline:
    """The always-on GQP for one fact table."""

    def __init__(self, engine: "QPipeEngine", fact_table: "Table"):
        self.engine = engine
        self.sim = engine.sim
        self.cost = engine.cost
        self.storage = engine.storage
        self.fact = fact_table
        cfg = engine.config

        self.filters: dict[str, Filter] = {}  # insertion-ordered chain
        #: snapshot of the filter chain handed to every work item.  The
        #: chain only changes during admission/retirement (pipeline paused),
        #: so the preprocessor reuses one list instead of rebuilding it for
        #: every fact page; work items must treat it as read-only.
        self._chain_snapshot: list[Filter] | None = None
        self.active: dict[int, _QueryState] = {}
        self.pending: list["Packet"] = []
        self.slots = SlotAllocator()

        self._page_chan = Channel(self.sim, capacity=4, name=f"cjoin.{fact_table.name}.pages")
        self._dist_chan = Channel(self.sim, capacity=8, name=f"cjoin.{fact_table.name}.dist")
        self.inflight = 0
        self._work = Condition(self.sim, "cjoin.work")
        self._idle = Condition(self.sim, "cjoin.idle")
        self._pause_requested = False
        self._paused = False
        self._pause_cond = Condition(self.sim, "cjoin.paused")
        self._resume_cond = Condition(self.sim, "cjoin.resume")
        self._source: PageSource | None = None

        self._vchans: list[Channel] = []
        self.sim.spawn(self._preprocessor(), f"cjoin-{fact_table.name}-pre", daemon=True)
        self.sim.spawn(self._admission_worker(), f"cjoin-{fact_table.name}-adm", daemon=True)
        if cfg.cjoin_threads == "vertical":
            self._ensure_vertical_worker(0)
            self.sim.spawn(
                self._vertical_worker(0), f"cjoin-{fact_table.name}-vflt0", daemon=True
            )
        else:
            for i in range(cfg.filter_workers):
                self.sim.spawn(self._filter_worker(), f"cjoin-{fact_table.name}-flt{i}", daemon=True)
        for i in range(cfg.distributor_parts):
            self.sim.spawn(self._distributor_part(), f"cjoin-{fact_table.name}-dist{i}", daemon=True)

    # ------------------------------------------------------------------
    def submit(self, packet: "Packet") -> None:
        """Queue a CJOIN packet for the next admission batch."""
        self.pending.append(packet)
        self._work.notify_all()

    def _filter_chain(self) -> list[Filter]:
        """The cached chain snapshot for work items."""
        snap = self._chain_snapshot
        if snap is None:
            snap = self._chain_snapshot = list(self.filters.values())
        return snap

    # ------------------------------------------------------------------
    # Preprocessor
    # ------------------------------------------------------------------
    def _preprocessor(self) -> Iterator[Any]:
        sim = self.sim
        cost = self.cost
        while True:
            if self._pause_requested:
                # Admission needs the pipeline quiescent: drain in-flight
                # pages, park, and wait to be resumed.
                while self.inflight > 0:
                    yield from self._idle.wait()
                self._paused = True
                self._pause_cond.notify_all()
                while self._pause_requested:
                    yield from self._resume_cond.wait()
                self._paused = False
                continue
            addressable = [s for s in self.active.values() if not s.no_more_pages]
            if not addressable:
                yield from self._work.wait()
                continue
            if self._source is None:
                self._source = PageSource(
                    sim, self.storage, self.fact, 0, name=f"cjoin.{self.fact.name}"
                )
            page = yield from self._source.next()
            yield cost.preprocess(len(page), page.weight)
            mask = 0
            addressed: list[_QueryState] = []
            for state in addressable:
                mask |= state.bit
                state.outstanding += 1
                state.pages_left -= 1
                if state.pages_left == 0:
                    state.no_more_pages = True  # wrapped to its point of entry
                addressed.append(state)
            item = _WorkItem(
                page=page,
                mask=mask,
                addressed=addressed,
                filters=self._filter_chain(),
                high_slots=max(self.slots.high_water, 1),
            )
            self.inflight += 1
            yield from self._page_chan.put(item)

    # ------------------------------------------------------------------
    # Admission (pipeline paused)
    # ------------------------------------------------------------------
    def _admission_worker(self) -> Iterator[Any]:
        """Admit pending packets in batches.

        Following the original CJOIN, the expensive part of admission --
        scanning the referenced dimension tables and evaluating each new
        query's selection predicates -- happens *asynchronously* while the
        pipeline keeps flowing ("parts of the admission phase ... can be
        done asynchronously while CJOIN is running").  Only the brief filter
        re-adjustment needs the pipeline paused and drained.  Queries
        arriving during an admission form the next batch."""
        sim = self.sim
        cost = self.cost
        batched = self.engine.config.gqp_batched_execution
        while True:
            if not self.pending:
                yield from self._work.wait()
                continue
            if batched and self.active:
                # SharedDB-style generations: the next batch starts only
                # when every query of the current one has completed (its
                # latency is dominated by the longest-running member).
                yield from self._work.wait()
                continue
            batch, self.pending = self.pending, []
            t0 = sim.now
            # ---- phase A (pipeline running): per-query dimension scans ---
            prepared: list[tuple["Packet", list[tuple[Any, "Selection"]]]] = []
            for packet in batch:
                node, _agg = self._split_node(packet)
                plans = []
                for dimspec in node.dims:
                    selected = yield from self._scan_dim_selected(dimspec)
                    plans.append((dimspec, selected))
                prepared.append((packet, plans))
            # ---- phase B (pipeline paused): re-adjust filters ------------
            self._pause_requested = True
            self._work.notify_all()  # wake an idle preprocessor to park
            while not self._paused:
                yield from self._pause_cond.wait()
            yield from self._reclaim_retired_slots()
            touched: set[str] = set()
            for packet, plans in prepared:
                yield from self._apply_admission(packet, plans)
                touched.update(d.dim_table for d, _ in plans)
            # The pipeline stall itself (re-adjusting filters, 3.1 (e)).
            yield SLEEP(cost.admission_pause + cost.admission_pause_per_filter * len(touched))
            self._pause_requested = False
            self._resume_cond.notify_all()
            self._work.notify_all()
            sim.metrics.add_duration("cjoin_admission", sim.now - t0)
            sim.metrics.bump("cjoin_admission_batches")
            sim.metrics.bump("cjoin_queries_admitted", len(batch))

    def _scan_dim_selected(self, dimspec) -> Iterator[Any]:
        """Phase A: scan one dimension table for one query and return its
        selection.  Every admitted query pays this scan (Section 3.1 lists
        it among the per-query admission costs -- the cost CJOIN-SP avoids
        for identical packets); the physical I/O is shared through the
        buffer pool, and the selected rows come from the storage manager's
        selection memo -- random workloads draw predicates from small
        per-dimension vocabularies, so repeat admissions skip the host's
        predicate pass while still paying every simulated charge here."""
        cost = self.cost
        dim = self.storage.table(dimspec.dim_table)
        predicate = dimspec.predicate
        # Prepay the next page's buffer-pool latch charge at the tail of
        # this page's scan/predicate command -- only pure compute happens
        # in between, so the latch is still taken when the charge completes,
        # and one simulator command per page disappears (admission scans
        # every dim page per admitted query, the hottest page loop in CJOIN).
        prepay = cost.bufferpool_latch_charge
        terms = max(predicate.terms, 1) if predicate is not None else 0
        last = dim.num_pages - 1
        prepaid = False
        for page_index in range(dim.num_pages):
            page = yield from self.storage.read_page(dim, page_index, latch_prepaid=prepaid)
            n, w = len(page), page.weight
            prepaid = prepay is not None and page_index < last
            scan = cost.scan(n, w)
            if predicate is None:
                yield cost.fused(scan, prepay) if prepaid else scan
            elif prepaid:
                yield cost.fused(scan, cost.predicate(n, w, terms), prepay)
            else:
                yield cost.fused(scan, cost.predicate(n, w, terms))
        selection = self.storage.selections.select(
            dim, predicate, self.engine.config.query_folding
        )
        if selection.served == "derived":
            # Query folding: filtered out of a subsuming sibling selection
            # instead of the dimension's pages.
            self.sim.metrics.bump("cjoin_fold_dim_sibling")
        return selection

    def _apply_admission(self, packet: "Packet", plans: list[tuple[Any, "Selection"]]) -> Iterator[Any]:
        """Phase B (paused): allocate the query's bitmap slot, extend the
        filters with its selected dimension tuples, and register its point
        of entry on the circular fact scan."""
        cost = self.cost
        node, agg_node = self._split_node(packet)
        slot = self.slots.alloc()
        bit = 1 << slot
        referenced = {d.dim_table for d, _ in plans}
        for dimspec, selection in plans:
            flt = self._ensure_filter(dimspec)
            ht, at = flt.ht, flt.at
            inserts = 0
            annotations = 0
            selected = selection.positions
            # All admission charges (dim scans above, hashing/build/bitmap
            # below) are paid per admitted query -- only the Python key
            # list is reused across admissions.
            keys = selection.keys(dimspec.dim_key)
            # Base-key uniqueness makes every selected subset unique, so
            # the set-equality check is skipped (it would always pass).
            # Transient pin: held only across the lookup; the extended
            # filter owns its own tables.
            arr = ARRANGEMENTS.acquire(
                self.storage.table(dimspec.dim_table), dimspec.dim_key
            )
            unique = arr.unique or len(set(keys)) == len(keys)
            ARRANGEMENTS.release(arr)
            if unique:
                # Unique keys (dimensions keyed by primary key -- the
                # common case): probe the hash table in one C-level map
                # pass, then branch only on the precomputed entries.
                bitmaps = list(map(ht.get, keys))
                inserts = bitmaps.count(None)
                annotations = len(keys) - inserts
                for key, p, bm in zip(keys, selected, bitmaps):
                    if bm is None:
                        ht[key] = bit
                        at[key] = p
                    else:
                        ht[key] = bm | bit
            else:
                for key, p in zip(keys, selected):
                    bm = ht.get(key)
                    if bm is None:
                        ht[key] = bit
                        at[key] = p
                        inserts += 1
                    else:
                        ht[key] = bm | bit
                        annotations += 1
            cmds = []
            if inserts:
                cmds.append(cost.hashing(inserts, flt.weight))
                cmds.append(cost.build(inserts, flt.weight))
            if annotations:
                cmds.append(cost.annotate(annotations, flt.weight))
            if cmds:
                # Pure bookkeeping between the charges (pipeline paused):
                # fuse them into one event per extended filter.
                yield cost.fused(*cmds)
        for name, flt in self.filters.items():
            if name in referenced:
                flt.referencing.add(slot)
            else:
                flt.pass_mask |= bit
        state = _QueryState(packet, slot, pages_left=self.fact.num_pages)
        state.projector = self._make_projector(node)
        if node.fact_predicate is not None:
            state.fact_pred = compile_selection(node.fact_predicate, self.fact.schema)
            state.fact_pred_terms = node.fact_predicate.terms
        if agg_node is not None:
            schema = node.schema  # the projected (payload) schema
            state.agg = GroupTable(agg_node.aggregates, schema.indices(agg_node.group_by), schema)
        self.active[slot] = state

    def _ensure_filter(self, dimspec) -> Filter:
        flt = self.filters.get(dimspec.dim_table)
        if flt is None:
            dim = self.storage.table(dimspec.dim_table)
            flt = Filter(
                dim_name=dimspec.dim_table,
                fact_fk_idx=self.fact.schema.index(dimspec.fact_fk),
                weight=dim.row_weight,
            )
            # Every currently active query predates this filter, hence does
            # not reference it and must pass through freely.
            for state in self.active.values():
                flt.pass_mask |= state.bit
            self.filters[dimspec.dim_table] = flt
            self._chain_snapshot = None  # chain grew: work items need a fresh snapshot
        return flt

    def _reclaim_retired_slots(self) -> Iterator[Any]:
        """Clear the bits of completed queries from every filter entry and
        recycle their slots (done with the pipeline paused)."""
        cost = self.cost
        stale = self.slots.retired_mask()
        if not stale:
            return
        keep = ~stale
        for flt in self.filters.values():
            ht, at = flt.ht, flt.at
            entries = len(ht)
            dead = []
            for key, bm in ht.items():
                bm &= keep
                if bm:
                    ht[key] = bm
                else:
                    dead.append(key)
            for key in dead:
                del ht[key]
                del at[key]
            flt.pass_mask &= keep
            flt.referencing -= {s for s in flt.referencing if stale >> s & 1}
            if entries:
                yield cost.annotate(entries, flt.weight)
        # Drop filters no longer referenced by any live query.
        dropped = [n for n, f in self.filters.items() if not f.referencing]
        for name in dropped:
            del self.filters[name]
        if dropped:
            self._chain_snapshot = None
        self.slots.reclaim()

    # ------------------------------------------------------------------
    # Filter workers (horizontal configuration)
    # ------------------------------------------------------------------
    def _apply_one_filter(self, item: _WorkItem, flt: Filter) -> Iterator[Any]:
        """Probe one filter with the item's surviving tuples (generator:
        charges the shared-operator costs); updates the item's parallel
        survivor lists in place.

        The survivor pass runs before the cycle charges so all of them
        (including the survivor-count-dependent ``emit_join``) can be fused
        into one command; the computation is pure Python between yields,
        so the charge values and their order are those of the separate
        sequence."""
        cost = self.cost
        w = item.weight
        pos = item.pos
        n = len(pos)
        if n == 0:
            return
        # Each tuple keeps the queries that selected its dimension row (no
        # row: none) or do not reference this dimension, in C-level maps
        # over the FK column at the surviving positions.
        keys = take_values(item.cols[flt.fact_fk_idx], pos)
        found = map(flt.ht.get, keys, repeat(0))
        bms = list(map(and_, item.bms, map(or_, found, repeat(flt.pass_mask))))
        new_pos = list(compress(pos, bms))
        hashing = cost.hashing(n, w)
        probing = cost.probe(n, w, shared=True)
        bitmaps = cost.bitmap_and(n, w, item.high_slots)
        if new_pos:
            # Materializing the joined tuple (attaching the dimension
            # payload) costs the same as a query-centric join's output
            # materialization.
            yield cost.fused(hashing, probing, bitmaps, cost.emit_join(len(new_pos), w))
        else:
            yield cost.fused(hashing, probing, bitmaps)
        item.pos, item.bms = new_pos, list(filter(None, bms))

    def _filter_worker(self) -> Iterator[Any]:
        """Horizontal configuration: each worker carries a page through the
        whole filter chain."""
        sync = self.cost.filter_sync_charge
        while True:
            item = yield from self._page_chan.get()
            if item is Channel.CLOSED:  # pragma: no cover - pipeline never closes
                return
            yield sync
            for flt in item.filters:
                if not item.pos:
                    break
                yield from self._apply_one_filter(item, flt)
            yield from self._dist_chan.put(item)

    def _vertical_worker(self, position: int) -> Iterator[Any]:
        """Vertical configuration (Section 5.2.2): one thread per filter
        *position*; pages are handed from stage to stage through bounded
        channels, paying the hand-off synchronization at every stage."""
        in_chan = self._page_chan if position == 0 else self._vchans[position]
        sync = self.cost.filter_sync_charge
        while True:
            item = yield from in_chan.get()
            if item is Channel.CLOSED:  # pragma: no cover
                return
            yield sync
            if position < len(item.filters):
                yield from self._apply_one_filter(item, item.filters[position])
            if position + 1 < len(item.filters):
                self._ensure_vertical_worker(position + 1)
                yield from self._vchans[position + 1].put(item)
            else:
                yield from self._dist_chan.put(item)

    def _ensure_vertical_worker(self, position: int) -> None:
        while len(self._vchans) <= position:
            k = len(self._vchans)
            self._vchans.append(
                Channel(self.sim, capacity=4, name=f"cjoin.{self.fact.name}.v{k}")
            )
            if k > 0:
                self.sim.spawn(
                    self._vertical_worker(k),
                    f"cjoin-{self.fact.name}-vflt{k}",
                    daemon=True,
                )

    # ------------------------------------------------------------------
    # Distributor parts
    # ------------------------------------------------------------------
    def _distributor_part(self) -> Iterator[Any]:
        cost = self.cost
        while True:
            item = yield from self._dist_chan.get()
            if item is Channel.CLOSED:  # pragma: no cover
                return
            w = item.weight
            cols = item.cols
            pos = item.pos
            bms = item.bms
            # Most addressed queries have no surviving tuple on a given
            # page: one OR over the page's bitmaps tells which do (with a
            # single addressed query the pass below is that same one pass).
            live = reduce(or_, bms, 0) if len(item.addressed) > 1 else -1
            for state in item.addressed:
                # The bitmap pass is one comprehension over the parallel
                # ``bms`` list with the query's bit pre-bound -- no per-row
                # triple unpacking.  Charges for the selection, routing and
                # (optional) shared-aggregation update fuse into one
                # command, values and order as the separate sequence.
                bit = state.bit
                pred = state.fact_pred
                sel = [j for j, bm in enumerate(bms) if bm & bit] if live & bit else []
                cmds = []
                if sel and pred is not None:
                    cmds.append(cost.predicate(len(sel), w, max(state.fact_pred_terms, 1)))
                    # Over the fact columns at the survivors' positions.
                    at = [pos[j] for j in sel]
                    kept = pred(cols, at)
                    if len(kept) < len(at):
                        keep = set(kept)
                        sel = [j for j, p in zip(sel, at) if p in keep]
                out = None
                if sel:
                    out = state.projector(cols, [pos[j] for j in sel], w)
                    cmds.append(cost.distribute(len(sel), w))
                    if state.agg is not None:
                        cmds.append(cost.shared_aggregate(len(sel), w, len(state.agg.specs)))
                if cmds:
                    yield cost.fused(*cmds)
                if out is not None:
                    if state.agg is not None:
                        # Shared aggregation: fold into running sums instead
                        # of emitting (the packet's step WoP stays open for
                        # the whole execution -- results are buffered).
                        state.agg.add(out)
                    else:
                        packet = state.packet
                        if not packet.started_emitting:
                            packet.mark_started()
                            if self.engine.cjoin_stage is not None:
                                self.engine.cjoin_stage.unregister(packet)
                        yield from packet.exchange.emit(out)
                state.outstanding -= 1
                if state.no_more_pages and state.outstanding == 0 and not state.done:
                    yield from self._complete(state)
            self.inflight -= 1
            if self.inflight == 0:
                self._idle.notify_all()

    def _complete(self, state: _QueryState) -> Iterator[Any]:
        state.done = True
        packet = state.packet
        if state.agg is not None:
            out = state.agg.result()
            packet.mark_started()
            if self.engine.cjoin_stage is not None:
                self.engine.cjoin_stage.unregister(packet)
            if len(out):
                yield from packet.exchange.emit(out)
        packet.exchange.close()
        packet.finished = True
        if self.engine.cjoin_stage is not None:
            self.engine.cjoin_stage.unregister(packet)
        del self.active[state.slot]
        self.slots.retire(state.slot)
        self._work.notify_all()

    # ------------------------------------------------------------------
    def _split_node(self, packet: "Packet") -> tuple["CJoinNode", Any]:
        """A pipeline packet carries either a bare CJoinNode or -- with
        shared aggregation -- an AggregateNode directly above one."""
        from repro.query.plan import AggregateNode

        node = packet.node
        if isinstance(node, AggregateNode):
            return node.child, node
        return node, None

    def _make_projector(self, node: "CJoinNode") -> Callable:
        """``project(cols, at, weight)``: the query's output batch
        (``node.schema``) for the tuples at fact-table positions ``at``,
        joined to each dimension's row through its filter's ``at``.  Each
        payload column is gathered as one vector, so only the fact and
        dimension columns the query projects are read, and no row tuple is
        built.  Built at admission, once the query's filters exist; a filter
        lives while a query references it."""
        fact_idx = self.fact.schema.indices(node.fact_payload)
        dim_proj: list[tuple[Filter, list]] = []
        for d in node.dims:
            dim = self.storage.table(d.dim_table)
            payload = [dim.columns()[i] for i in dim.schema.indices(d.payload)]
            if payload:
                dim_proj.append((self.filters[d.dim_table], payload))

        def project(cols, at: list[int], weight: float) -> ColumnBatch:
            # Plain loops: most calls carry a single survivor, where a
            # comprehension's own frame would cost more than its body.
            out = []
            add = out.append
            for i in fact_idx:
                add(take_values(cols[i], at))
            for flt, payload in dim_proj:
                dim_at = list(map(flt.at.__getitem__, take_values(cols[flt.fact_fk_idx], at)))
                for col in payload:
                    add(take_values(col, dim_at))
            return ColumnBatch(tuple(out), None if out else range(len(at)), weight)

        return project
