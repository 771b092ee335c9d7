"""The QPipe engine: plan-to-packet conversion, submission, clients.

A submitted query plan becomes a tree of packets built *top-down*: each
node's packet is admitted to its stage first, and only if it did not attach
as a satellite is its sub-plan built (satellites cancel their entire
sub-plan, paper Figure 2a).  Workers are spawned bottom-wired: a worker
receives readers on its children's (effective) exchanges.

With ``config.use_cjoin`` star-query specs compile to a CJOIN-rooted plan
and the joins run in the shared CJOIN pipeline (:mod:`repro.gqp`);
aggregation and sorting above remain query-centric, as in the paper.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.engine.config import EngineConfig, QPIPE
from repro.engine.exchange import END, FifoExchange
from repro.engine.packet import Packet
from repro.engine.spl import SharedPagesList
from repro.engine.stage import Stage
from repro.engine.stages.aggregate import AggregateStage
from repro.engine.stages.inputs import FilteredInput, unwrap_selects
from repro.engine.stages.join import HashJoinStage
from repro.engine.stages.scan import TableScanStage
from repro.engine.stages.sort import SortStage
from repro.query.plan import (
    AggregateNode,
    CJoinNode,
    HashJoinNode,
    PlanNode,
    ScanNode,
    SortNode,
)
from repro.query.star import Query, StarQuerySpec
from repro.sim.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.sim.sync import Gate
from repro.storage.arrangements import ARRANGEMENTS, Arrangement

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.storage.manager import StorageManager


@dataclass
class QueryHandle:
    """Client-side handle of a submitted query."""

    query: Query
    gate: Gate
    root_packet: Packet | None = None
    results: list = field(default_factory=list)
    #: ``(rows, weight)`` per root-exchange batch, recorded only when the
    #: query was submitted with ``collect_batches=True``.  Weighted batches
    #: are what the shard tier's partial-aggregate merge consumes: each
    #: generated row stands for ``weight`` real rows, and additive
    #: aggregates must scale by it (exactly as the aggregation stage does).
    batches: list[tuple[list, float]] | None = None

    def wait(self) -> Iterator[Any]:
        """Generator: block (in simulated time) until the query completes."""
        yield from self.gate.wait()

    @property
    def response_time(self) -> float:
        return self.query.response_time

    @property
    def done(self) -> bool:
        return self.gate.is_open


class QPipeEngine:
    """One engine instance bound to one simulator and storage manager."""

    def __init__(
        self,
        sim: "Simulator",
        storage: "StorageManager",
        config: EngineConfig = QPIPE,
        cost: CostModel = DEFAULT_COST_MODEL,
    ):
        self.sim = sim
        self.storage = storage
        self.config = config
        self.cost = cost
        self.scan_stage = TableScanStage(self)
        self.join_stage = HashJoinStage(self)
        self.agg_stage = AggregateStage(self)
        self.sort_stage = SortStage(self)
        self.cjoin_stage = None
        if config.use_cjoin:
            from repro.gqp.stage import CJoinStage  # deferred: gqp imports engine

            self.cjoin_stage = CJoinStage(self)
        self._query_ids = itertools.count()
        self.handles: list[QueryHandle] = []

    # ------------------------------------------------------------------
    def new_exchange(self, name: str) -> Any:
        if self.config.comm == "spl":
            return SharedPagesList(self.sim, self.cost, self.config.spl_max_pages, name)
        return FifoExchange(self.sim, self.cost, self.config.fifo_capacity, name)

    # ------------------------------------------------------------------
    def submit(self, spec: StarQuerySpec, label: str | None = None) -> QueryHandle:
        """Submit a star query; the engine config decides its plan shape."""
        if self.config.use_cjoin:
            plan = spec.to_gqp_plan(self.storage.tables)
        else:
            plan = spec.to_query_centric_plan(self.storage.tables)
        return self.submit_plan(plan, label=label or spec.label, spec=spec)

    def submit_plan(
        self,
        plan: PlanNode,
        label: str = "",
        spec: StarQuerySpec | None = None,
        collect_batches: bool = False,
    ) -> QueryHandle:
        """Submit an explicit physical plan (e.g. TPC-H Q1).

        ``collect_batches=True`` additionally records each root-exchange
        batch as ``(rows, weight)`` on the handle (see
        :attr:`QueryHandle.batches`)."""
        query = Query(
            query_id=next(self._query_ids),
            spec=spec,
            plan=plan,
            label=label,
            submit_time=self.sim.now,
        )
        root = self._build(plan, query)
        handle = QueryHandle(query=query, gate=Gate(self.sim, f"q{query.query_id}.done"), root_packet=root)
        if collect_batches:
            handle.batches = []
        self.handles.append(handle)
        self.sim.spawn(
            self._client(query, root, handle),
            name=f"q{query.query_id}-client",
            query_id=query.query_id,
        )
        return handle

    # ------------------------------------------------------------------
    def _client(self, query: Query, root: Packet, handle: QueryHandle) -> Iterator[Any]:
        reader = root.connect(budget=self._budget_for(root.node))
        while True:
            batch = yield from reader.read()
            if batch is END:
                break
            if handle.batches is not None:
                handle.batches.append((list(batch.rows), batch.weight))
            query.results.extend(batch.rows)
        query.finish_time = self.sim.now
        handle.results = query.results
        handle.gate.open()

    @staticmethod
    def _budget_for(node: PlanNode) -> int | None:
        return node.table.num_pages if isinstance(node, ScanNode) else None

    # ------------------------------------------------------------------
    def _build(self, node: PlanNode, query: Query) -> Packet:
        """Build the packet tree for ``node`` (top-down, sharing-aware)."""
        inner, predicate = unwrap_selects(node)
        if predicate is not None:
            raise ValueError(
                "a plan may not be rooted at a SelectNode; wrap it in an operator"
            )
        if isinstance(inner, ScanNode):
            return self.scan_stage.submit_scan(inner, query)
        if isinstance(inner, CJoinNode):
            if self.cjoin_stage is None:
                raise RuntimeError("plan contains a CJoinNode but use_cjoin is off")
            return self.cjoin_stage.submit_cjoin(inner, query)
        if isinstance(inner, HashJoinNode):
            packet = self.join_stage.make_packet(inner, query)
            if self.join_stage.admit(packet):
                return packet
            probe = self._input(inner.probe, query)
            build = self._input(inner.build, query)
            self.join_stage.run(packet, probe, build, shared=self._shared_build(inner))
            return packet
        if isinstance(inner, AggregateNode):
            if self.cjoin_stage is not None and self.config.shared_aggregation:
                child_inner, child_pred = unwrap_selects(inner.child)
                if isinstance(child_inner, CJoinNode) and child_pred is None:
                    # DataPath-style shared aggregation: fold the aggregation
                    # into the GQP's distributor (running sums per group and
                    # query); the packet emits finalized groups.
                    return self.cjoin_stage.submit_cjoin(child_inner, query, agg=inner)
            packet = self.agg_stage.make_packet(inner, query)
            if self.agg_stage.admit(packet):
                return packet
            child = self._input(inner.child, query)
            self.agg_stage.run(packet, child)
            return packet
        if isinstance(inner, SortNode):
            packet = self.sort_stage.make_packet(inner, query)
            if self.sort_stage.admit(packet):
                return packet
            child = self._input(inner.child, query)
            self.sort_stage.run(packet, child)
            return packet
        raise TypeError(f"cannot build a packet for {type(inner).__name__}")

    def _shared_build(self, node: HashJoinNode) -> tuple[Arrangement, Any] | None:
        """Resolve a shared build side for ``node`` -- ``(arrangement,
        build predicate)`` -- or None for a private build.  Applies only
        when the build side unwraps to a base-table scan (optionally
        filtered) AND the base table is unique on the build key: unique
        base keys make any filtered subset's mapping independent of build
        insertion order, so queries whose circular build scans start at
        different pages still see one identical view.  The build input is
        still read and charged in full either way -- sharing never moves a
        simulated tick.  The view itself is resolved in the join stage
        (the storage manager's memoized selection for the predicate)."""
        inner, predicate = unwrap_selects(node.build)
        if not isinstance(inner, ScanNode) or node.build_key not in inner.table.schema:
            return None
        arr = ARRANGEMENTS.acquire(inner.table, node.build_key)
        if not arr.unique:
            ARRANGEMENTS.release(arr)
            return None
        # Pinned until the join worker finishes (released in the stage).
        return (arr, predicate)

    def _input(self, child: PlanNode, query: Query) -> FilteredInput:
        """Resolve one operator input: build the child sub-plan (or attach
        to a host) and wrap its reader with any fused selection."""
        inner, predicate = unwrap_selects(child)
        child_packet = self._build(inner, query)
        reader = child_packet.connect(budget=self._budget_for(inner))
        return FilteredInput(reader, self.cost, predicate, inner.schema)

    # ------------------------------------------------------------------
    def sharing_summary(self) -> dict[str, int]:
        """Sharing events recorded so far, keyed by stage:label."""
        return dict(self.sim.metrics.sharing_events)
