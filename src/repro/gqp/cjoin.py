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
from operator import or_
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.sim.commands import SLEEP
from repro.sim.sync import Channel, Condition
from repro.engine.stages.aggregate import accumulate, compile_values, finalize
from repro.gqp.bitmap import SlotAllocator
from repro.query.expr import column_indices
from repro.storage.arrangements import ARRANGEMENTS
from repro.storage.page import Batch
from repro.storage.prefetch import PageSource

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.packet import Packet
    from repro.engine.qpipe import QPipeEngine
    from repro.query.plan import CJoinNode
    from repro.storage.selections import Selection
    from repro.storage.table import Table


class _Entry:
    """One dimension tuple resident in a filter's hash table."""

    __slots__ = ("row", "bitmap")

    def __init__(self, row: tuple, bitmap: int):
        self.row = row
        self.bitmap = bitmap


class Filter:
    """Shared scan + shared selection + shared hash-join for one dimension
    (CJOIN groups the three into a 'filter')."""

    __slots__ = (
        "dim_name",
        "fact_fk_idx",
        "weight",
        "ht",
        "pass_mask",
        "referencing",
    )

    def __init__(self, dim_name: str, fact_fk_idx: int, weight: float):
        self.dim_name = dim_name
        self.fact_fk_idx = fact_fk_idx
        self.weight = weight  # dim row weight, for bookkeeping charges
        self.ht: dict[Any, _Entry] = {}
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
        "agg_node",
        "agg_schema",
        "agg_group_idx",
        "agg_value_fns",
        "agg_groups",
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
        self.agg_node = None
        self.agg_schema = None
        self.agg_group_idx: tuple[int, ...] = ()
        self.agg_value_fns: list[Callable | None] = []
        self.agg_groups: dict | None = None


class _WorkItem:
    """One tagged fact page moving through the pipeline.

    Surviving tuples are carried as three *parallel lists* -- ``rows``
    (fact rows), ``bms`` (per-row query bitmaps) and ``dims`` (per-row
    tuples of joined dimension rows) -- instead of a list of triples, so
    the distributor's bitmap pass is a single comprehension over ``bms``
    with no per-row unpacking."""

    __slots__ = (
        "batch",
        "mask",
        "addressed",
        "filters",
        "filter_pos",
        "high_slots",
        "rows",
        "bms",
        "dims",
    )

    def __init__(
        self,
        batch: Batch,
        mask: int,
        addressed: list[_QueryState],
        filters: list[Filter],
        filter_pos: dict[str, int],
        high_slots: int,
    ):
        self.batch = batch
        self.mask = mask
        self.addressed = addressed
        self.filters = filters
        self.filter_pos = filter_pos
        self.high_slots = high_slots
        self.rows: list[tuple] = []
        self.bms: list[int] = []
        self.dims: list[tuple] = []


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
        #: so the preprocessor reuses one (list, position-map) pair instead
        #: of rebuilding both for every fact page; work items must treat
        #: them as read-only.
        self._chain_snapshot: tuple[list[Filter], dict[str, int]] | None = None
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

    def _filter_chain(self) -> tuple[list[Filter], dict[str, int]]:
        """The cached (chain, name->position) snapshot for work items."""
        snap = self._chain_snapshot
        if snap is None:
            filters = list(self.filters.values())
            snap = (filters, {name: i for i, name in enumerate(self.filters)})
            self._chain_snapshot = snap
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
            filters, filter_pos = self._filter_chain()
            item = _WorkItem(
                batch=page.to_batch(),
                mask=mask,
                addressed=addressed,
                filters=filters,
                filter_pos=filter_pos,
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
        prepay = self.storage.cost.bufferpool_latch_charge
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
            ht = flt.ht
            inserts = 0
            annotations = 0
            selected = selection.rows
            # All admission charges (dim scans above, hashing/build/bitmap
            # below) are paid per admitted query -- only the Python key
            # list is reused across admissions.
            keys = selection.keys(dimspec.dim_key)
            # Base-key uniqueness makes every selected subset unique, so
            # the set-equality check is skipped (it would always pass).
            # Transient pin: held only across the lookup; the extended
            # filter owns its own _Entry table.
            arr = ARRANGEMENTS.acquire(
                self.storage.table(dimspec.dim_table), dimspec.dim_key
            )
            unique = arr.unique or len(set(keys)) == len(keys)
            ARRANGEMENTS.release(arr)
            if unique:
                # Unique keys (dimensions keyed by primary key -- the
                # common case): probe the hash table in one C-level map
                # pass, then branch only on the precomputed entries.
                entries = list(map(ht.get, keys))
                inserts = entries.count(None)
                annotations = len(keys) - inserts
                for key, r, entry in zip(keys, selected, entries):
                    if entry is None:
                        ht[key] = _Entry(r, bit)
                    else:
                        entry.bitmap |= bit
            else:
                for key, r in zip(keys, selected):
                    entry = ht.get(key)
                    if entry is None:
                        ht[key] = _Entry(r, bit)
                        inserts += 1
                    else:
                        entry.bitmap |= bit
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
            state.fact_pred = node.fact_predicate.compile(self.fact.schema)
            state.fact_pred_terms = node.fact_predicate.terms
        if agg_node is not None:
            schema = node.schema  # the projected (payload) schema
            state.agg_node = agg_node
            state.agg_schema = schema
            state.agg_group_idx = schema.indices(agg_node.group_by)
            state.agg_value_fns = compile_values(agg_node.aggregates, schema)
            state.agg_groups = {}
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
            entries = len(flt.ht)
            dead = []
            for key, entry in flt.ht.items():
                entry.bitmap &= keep
                if entry.bitmap == 0:
                    dead.append(key)
            for key in dead:
                del flt.ht[key]
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
        w = item.batch.weight
        rows = item.rows
        n = len(rows)
        if n == 0:
            return
        get = flt.ht.get
        fk = flt.fact_fk_idx
        pass_mask = flt.pass_mask
        new_rows: list[tuple] = []
        new_bms: list[int] = []
        new_dims: list[tuple] = []
        add_row = new_rows.append
        add_bm = new_bms.append
        add_dim = new_dims.append
        for row, bm, dims in zip(rows, item.bms, item.dims):
            entry = get(row[fk])
            if entry is None:
                bm &= pass_mask
                dim_row = None
            else:
                bm &= entry.bitmap | pass_mask
                dim_row = entry.row
            if bm:
                add_row(row)
                add_bm(bm)
                add_dim(dims + (dim_row,))
        hashing = cost.hashing(n, w)
        probing = cost.probe(n, w, shared=True)
        bitmaps = cost.bitmap_and(n, w, item.high_slots)
        if new_rows:
            # Materializing the joined tuple (attaching the dimension
            # payload) costs the same as a query-centric join's output
            # materialization.
            yield cost.fused(hashing, probing, bitmaps, cost.emit_join(len(new_rows), w))
        else:
            yield cost.fused(hashing, probing, bitmaps)
        item.rows, item.bms, item.dims = new_rows, new_bms, new_dims

    def _filter_worker(self) -> Iterator[Any]:
        """Horizontal configuration: each worker carries a page through the
        whole filter chain."""
        sync = self.cost.filter_sync_charge
        while True:
            item = yield from self._page_chan.get()
            if item is Channel.CLOSED:  # pragma: no cover - pipeline never closes
                return
            yield sync
            rows = item.batch.rows
            item.rows = rows
            item.bms = [item.mask] * len(rows)
            item.dims = [()] * len(rows)
            for flt in item.filters:
                if not item.rows:
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
            if position == 0:
                rows = item.batch.rows
                item.rows = rows
                item.bms = [item.mask] * len(rows)
                item.dims = [()] * len(rows)
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
            w = item.batch.weight
            rows = item.rows
            bms = item.bms
            dims = item.dims
            filter_pos = item.filter_pos
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
                    sel = [j for j in sel if pred(rows[j])]
                out = None
                if sel:
                    project = state.projector
                    out = [project(rows[j], dims[j], filter_pos) for j in sel]
                    cmds.append(cost.distribute(len(out), w))
                    if state.agg_groups is not None:
                        cmds.append(cost.shared_aggregate(
                            len(out), w, len(state.agg_node.aggregates)
                        ))
                if cmds:
                    yield cost.fused(*cmds)
                if out:
                    if state.agg_groups is not None:
                        # Shared aggregation: fold into running sums instead
                        # of emitting (the packet's step WoP stays open for
                        # the whole execution -- results are buffered).
                        accumulate(
                            Batch(out, w),
                            state.agg_group_idx,
                            state.agg_node.aggregates,
                            state.agg_value_fns,
                            state.agg_schema,
                            state.agg_groups,
                        )
                    else:
                        packet = state.packet
                        if not packet.started_emitting:
                            packet.mark_started()
                            if self.engine.cjoin_stage is not None:
                                self.engine.cjoin_stage.unregister(packet)
                        yield from packet.exchange.emit(Batch(out, w))
                state.outstanding -= 1
                if state.no_more_pages and state.outstanding == 0 and not state.done:
                    yield from self._complete(state)
            self.inflight -= 1
            if self.inflight == 0:
                self._idle.notify_all()

    def _complete(self, state: _QueryState) -> Iterator[Any]:
        state.done = True
        packet = state.packet
        if state.agg_groups is not None:
            out_rows = finalize(state.agg_node.aggregates, state.agg_groups)
            packet.mark_started()
            if self.engine.cjoin_stage is not None:
                self.engine.cjoin_stage.unregister(packet)
            if out_rows:
                yield from packet.exchange.emit(Batch(out_rows, weight=1.0))
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
        fact_idx = column_indices(self.fact.schema, node.fact_payload)
        dim_proj: list[tuple[str, tuple[int, ...]]] = []
        for d in node.dims:
            dim_schema = self.storage.table(d.dim_table).schema
            dim_proj.append((d.dim_table, column_indices(dim_schema, d.payload)))

        def project(fact_row: tuple, dims: tuple, filter_pos: dict[str, int]) -> tuple:
            out = [fact_row[i] for i in fact_idx]
            for name, idxs in dim_proj:
                if idxs:
                    dim_row = dims[filter_pos[name]]
                    out.extend(dim_row[i] for i in idxs)
            return tuple(out)

        return project
