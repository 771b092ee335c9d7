"""Volcano-style query-centric engine (the paper's PostgreSQL stand-in).

One simulated thread per query (a backend process) evaluates the plan
bottom-up with no sharing of any kind: no circular scans, no SP, no shared
operators.  Per-tuple CPU constants are scaled by ``volcano_cpu_factor``
(< 1): the paper notes that "as Postgres is a more mature system than the
two research prototypes, it attains a better performance for low
concurrency" -- the point of the comparison is sharing behavior at high
concurrency, where the query-centric model contends for resources.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.engine.qpipe import QueryHandle
from repro.engine.stages.aggregate import GroupTable
from repro.engine.stages.join import probe
from repro.engine.stages.sort import order_by
from repro.query.expr import compile_selection, select_batch
from repro.query.plan import (
    AggregateNode,
    CJoinNode,
    HashJoinNode,
    PlanNode,
    ScanNode,
    SelectNode,
    SortNode,
)
from repro.query.star import Query, StarQuerySpec
from repro.sim.sync import Gate
from repro.storage.page import ColumnBatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.storage.manager import StorageManager


class VolcanoEngine:
    """Query-centric iterator engine on the simulated machine."""

    name = "Postgres"

    def __init__(self, sim: "Simulator", storage: "StorageManager"):
        self.sim = sim
        self.storage = storage
        self.cost = sim.cost.mature
        self._query_ids = iter(range(10**9))
        self.handles: list[QueryHandle] = []

    # ------------------------------------------------------------------
    def submit(self, spec: StarQuerySpec, label: str | None = None) -> QueryHandle:
        plan = spec.to_query_centric_plan(self.storage.tables)
        return self.submit_plan(plan, label=label or spec.label, spec=spec)

    def submit_plan(self, plan: PlanNode, label: str = "", spec: StarQuerySpec | None = None) -> QueryHandle:
        """Submit an explicit physical plan on its own backend thread."""
        query = Query(
            query_id=next(self._query_ids),
            spec=spec,
            plan=plan,
            label=label,
            submit_time=self.sim.now,
        )
        handle = QueryHandle(query=query, gate=Gate(self.sim, f"pg-q{query.query_id}.done"))
        self.handles.append(handle)
        self.sim.spawn(
            self._backend(query, plan, handle),
            name=f"pg-q{query.query_id}",
            query_id=query.query_id,
        )
        return handle

    # ------------------------------------------------------------------
    def _backend(self, query: Query, plan: PlanNode, handle: QueryHandle) -> Iterator[Any]:
        yield self.cost.dispatch_charge
        rel = yield from self._eval(plan)
        rows = list(rel.rows)
        query.results = rows
        query.finish_time = self.sim.now
        handle.results = rows
        handle.gate.open()

    def _eval(self, node: PlanNode) -> Iterator[Any]:
        """Evaluate bottom-up; a relation is one :class:`ColumnBatch`
        carrying its row weight -- a view over the table's column vectors
        until an aggregate or sort computes fresh rows, which are
        transposed back into columns.  Charges count rows, never
        representation.

        The tree walk is an explicit stack machine rather than recursive
        ``yield from``: every simulator resume re-enters exactly one
        generator frame instead of bubbling through one frame per plan
        level (Q3.2 plans are ~6 deep, and the per-page scan yields are the
        hottest resume path in the whole baseline).  Frames are
        ``(node, phase, saved)``; ``result`` carries the last completed
        subtree's relation.  The phase splits reproduce the
        recursive order exactly -- a hash join charges its build *before*
        its probe subtree runs."""
        cost = self.cost
        result: ColumnBatch | None = None
        stack: list[tuple[PlanNode, int, Any]] = [(node, 0, None)]
        while stack:
            nd, phase, saved = stack.pop()
            if isinstance(nd, ScanNode):
                # Sequential scan through the buffer pool with OS read-ahead
                # (PostgreSQL enjoys the same kernel prefetching the research
                # prototypes do), but no sharing across queries of any kind.
                # Inlined here (not a helper generator): the per-page yields
                # are the hottest resume path in the whole baseline, and on
                # the direct path the buffer pool is driven straight -- no
                # PageSource frame, no helper frame.
                table = nd.table
                npages = table.num_pages
                if npages:
                    storage = self.storage
                    if storage.ram_resident or storage.config.direct_io:
                        read_page = storage.read_page
                        prepay = self.sim.cost.bufferpool_latch_charge
                        if prepay is not None:
                            # Prepay the next page's buffer-pool latch charge
                            # at the tail of this page's scan charge: one
                            # fewer command per page (the latch take still
                            # happens when the charge completes).
                            last = npages - 1
                            prepaid = False
                            for i in range(npages):
                                page = yield from read_page(
                                    table, i, latch_prepaid=prepaid
                                )
                                scan = cost.scan(len(page), page.weight)
                                prepaid = i < last
                                yield cost.fused(scan, prepay) if prepaid else scan
                        else:
                            for i in range(npages):
                                page = yield from read_page(table, i)
                                yield cost.scan(len(page), page.weight)
                    else:
                        from repro.storage.prefetch import PageSource

                        source = PageSource(
                            self.sim, storage, table, 0, name="pg-scan"
                        )
                        for _ in range(npages):
                            page = yield from source.next()
                            yield cost.scan(len(page), page.weight)
                        source.close()
                # Pages arrive in table order, so the scan output is a
                # zero-copy view of the table's (cached) column vectors.
                result = ColumnBatch(table.columns(), None, table.row_weight)
            elif isinstance(nd, SelectNode):
                if phase == 0:
                    stack.append((nd, 1, None))
                    stack.append((nd.child, 0, None))
                    continue
                yield cost.predicate(
                    len(result), result.weight, max(nd.predicate.terms, 1)
                )
                result = select_batch(compile_selection(nd.predicate, nd.child.schema), result)
            elif isinstance(nd, HashJoinNode):
                if phase == 0:
                    stack.append((nd, 1, None))
                    stack.append((nd.build, 0, None))
                    continue
                if phase == 1:
                    # Build rows materialize either way: they become the
                    # probe output's tail payloads (dims are small
                    # post-filter).
                    build_rows, bw = result.rows, result.weight
                    # Star dimensions are keyed by primary key, so the
                    # common case is one row per key: build the flat
                    # single-match dict directly (C-level dict(zip)) and
                    # only fall back to the multi-match table when a
                    # duplicate key shows up.  An empty build side leaves
                    # the empty multi-match table: nothing matches.
                    table: dict[Any, list[tuple]] = {}
                    single: dict[Any, tuple] | None = None
                    bkey = nd.build.schema.index(nd.build_key)
                    if build_rows:
                        nb = len(build_rows)
                        yield cost.fused(cost.hashing(nb, bw), cost.build(nb, bw))
                        bkeys = [r[bkey] for r in build_rows]
                        single = dict(zip(bkeys, build_rows))
                        if len(single) != nb:
                            single = None
                            setdefault = table.setdefault
                            for k, r in zip(bkeys, build_rows):
                                setdefault(k, []).append(r)
                    stack.append((nd, 2, (table, single)))
                    stack.append((nd.probe, 0, None))
                    continue
                table, single = saved
                n, w = len(result), result.weight
                pkey = nd.probe.schema.index(nd.probe_key)
                result = probe(result, pkey, table.get, w, single)
                nout = len(result)
                cmds = []
                if n:
                    cmds.append(cost.hashing(n, w, equals=nout))
                    cmds.append(cost.probe(n, w))
                if nout:
                    cmds.append(cost.emit_join(nout, w))
                if cmds:
                    yield cost.fused(*cmds)
            elif isinstance(nd, AggregateNode):
                if phase == 0:
                    stack.append((nd, 1, None))
                    stack.append((nd.child, 0, None))
                    continue
                n, w = len(result), result.weight
                if n:
                    yield cost.fused(
                        cost.group_hash(n, w),
                        cost.aggregate(n, w, functions=len(nd.aggregates)),
                    )
                schema = nd.child.schema
                table = GroupTable(nd.aggregates, schema.indices(nd.group_by), schema)
                table.add(result)
                result = table.result()
            elif isinstance(nd, SortNode):
                if phase == 0:
                    stack.append((nd, 1, None))
                    stack.append((nd.child, 0, None))
                    continue
                n, w = len(result), result.weight
                if n:
                    yield cost.sort(n, w)
                schema = nd.child.schema
                cols = [result.column(i) for i in range(len(schema.columns))]
                result = order_by(cols, n, nd.keys, schema, w)
            elif isinstance(nd, CJoinNode):
                raise TypeError("the Volcano baseline does not evaluate GQP plans")
            else:
                raise TypeError(f"cannot evaluate {type(nd).__name__}")
        return result

