"""Physical plan nodes.

A plan is a tree of immutable nodes.  Each node exposes:

* ``children`` -- input nodes;
* ``schema`` -- output schema;
* ``signature`` -- canonical hashable encoding of the node *and its whole
  sub-plan*, the key for QPipe's common-sub-plan detection (two packets
  share iff signatures match and the interarrival is inside the pivot
  operator's Window of Opportunity).

Selection (:class:`SelectNode`) is *fused*: it never gets its own packet --
the consuming operator applies the predicate while reading (standard in
engines that exchange pages, and it keeps scan outputs raw so circular
scans can be shared across queries with different predicates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.query.expr import And, Expr
from repro.storage.schema import Column, Schema

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.table import Table


@dataclass(frozen=True)
class AggSpec:
    """One aggregate function: ``func(expr) AS name``."""

    func: str  # 'sum' | 'count' | 'avg' | 'min' | 'max'
    expr: Expr | None  # None only for count(*)
    name: str

    def __post_init__(self) -> None:
        if self.func not in ("sum", "count", "avg", "min", "max"):
            raise ValueError(f"unknown aggregate {self.func!r}")
        if self.expr is None and self.func != "count":
            raise ValueError("only count(*) may omit an expression")

    @property
    def signature(self) -> tuple:
        return (self.func, self.expr.signature if self.expr else None, self.name)


@dataclass(frozen=True)
class DimJoinSpec:
    """One fact-to-dimension equi-join of a star query."""

    dim_table: str
    fact_fk: str  # foreign-key column on the fact table
    dim_key: str  # key column on the dimension
    predicate: Expr | None = None  # selection on the dimension
    payload: tuple[str, ...] = ()  # dimension columns needed downstream

    @property
    def signature(self) -> tuple:
        return (
            "dimjoin",
            self.dim_table,
            self.fact_fk,
            self.dim_key,
            self.predicate.signature if self.predicate else None,
            self.payload,
        )


class PlanNode:
    """Base class for plan nodes."""

    # Lazily filled, per-node memos (nodes are immutable): the signature,
    # the output schema of the nodes that *build* one, and the fold-search
    # summary owned by :mod:`repro.query.subsume`.
    __slots__ = ("_signature", "_schema", "_fold_summary")

    @property
    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def _compute_schema(self) -> Schema:
        raise NotImplementedError

    @property
    def schema(self) -> Schema:
        schema = getattr(self, "_schema", None)
        if schema is None:
            schema = self._compute_schema()
            object.__setattr__(self, "_schema", schema)
        return schema

    def _compute_signature(self) -> tuple:
        raise NotImplementedError

    @property
    def signature(self) -> tuple:
        sig = getattr(self, "_signature", None)
        if sig is None:
            sig = self._compute_signature()
            object.__setattr__(self, "_signature", sig)
        return sig

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kids = ", ".join(repr(c) for c in self.children)
        return f"{type(self).__name__}({kids})"


class ScanNode(PlanNode):
    """Raw table scan.  Emits unfiltered pages, so a circular scan can be
    shared by queries with different predicates (linear WoP)."""

    __slots__ = ("table",)

    def __init__(self, table: "Table"):
        self.table = table

    @property
    def schema(self) -> Schema:
        return self.table.schema

    def _compute_signature(self) -> tuple:
        return ("scan", self.table.name)


class SelectNode(PlanNode):
    """Filter; fused into the consuming operator's input."""

    __slots__ = ("child", "predicate")

    def __init__(self, child: PlanNode, predicate: Expr):
        self.child = child
        self.predicate = predicate

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def _compute_signature(self) -> tuple:
        return ("select", self.predicate.signature, self.child.signature)


def unwrap_selects(node: PlanNode) -> tuple[PlanNode, Expr | None]:
    """Strip a chain of SelectNodes, folding predicates into one conjunction
    (outermost select evaluated last, matching plan semantics)."""
    predicate: Expr | None = None
    while isinstance(node, SelectNode):
        predicate = node.predicate if predicate is None else And(node.predicate, predicate)
        node = node.child
    return node, predicate


class HashJoinNode(PlanNode):
    """Query-centric equi hash-join (build on ``build``, probe with
    ``probe``).  Step WoP: a satellite can reuse results only if it attaches
    before the first output tuple."""

    __slots__ = ("probe", "build", "probe_key", "build_key", "label")

    def __init__(
        self,
        probe: PlanNode,
        build: PlanNode,
        probe_key: str,
        build_key: str,
        label: str = "hj",
    ):
        self.probe = probe
        self.build = build
        self.probe_key = probe_key
        self.build_key = build_key
        self.label = label  # e.g. 'hj1'..'hj3': join depth, for sharing stats

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.probe, self.build)

    def _compute_schema(self) -> Schema:
        return self.probe.schema.concat(self.build.schema)

    def _compute_signature(self) -> tuple:
        return (
            "hashjoin",
            self.probe_key,
            self.build_key,
            self.probe.signature,
            self.build.signature,
        )


class AggregateNode(PlanNode):
    """Hash group-by aggregation.  Step WoP."""

    __slots__ = ("child", "group_by", "aggregates")

    def __init__(self, child: PlanNode, group_by: tuple[str, ...], aggregates: tuple[AggSpec, ...]):
        if not aggregates:
            raise ValueError("aggregation needs at least one aggregate")
        self.child = child
        self.group_by = tuple(group_by)
        self.aggregates = tuple(aggregates)

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def _compute_schema(self) -> Schema:
        cols = [self.child.schema.column(g) for g in self.group_by]
        cols += [Column(a.name, "float") for a in self.aggregates]
        return Schema(cols, row_bytes=8.0 * len(cols))

    def _compute_signature(self) -> tuple:
        return (
            "aggregate",
            self.group_by,
            tuple(a.signature for a in self.aggregates),
            self.child.signature,
        )


class SortNode(PlanNode):
    """Sort on ``keys`` ((column, ascending) pairs).  Linear WoP in the
    paper; SP for the sort stage is disabled in all its experiments."""

    __slots__ = ("child", "keys")

    def __init__(self, child: PlanNode, keys: tuple[tuple[str, bool], ...]):
        if not keys:
            raise ValueError("sort needs at least one key")
        self.child = child
        self.keys = tuple(keys)

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def _compute_signature(self) -> tuple:
        return ("sort", self.keys, self.child.signature)


class CJoinNode(PlanNode):
    """The joins of one star query, evaluated by the shared CJOIN pipeline
    (global query plan).  Output = fact payload columns followed by each
    dimension's payload columns, already filtered by the fact predicate
    (CJOIN evaluates fact predicates on its *output*, Section 3.2).

    Step WoP for CJOIN-SP: an identical CJOIN packet arriving before the
    host's first output re-uses the host's results entirely, skipping
    admission, bitmap extension and distribution."""

    __slots__ = ("fact_table_obj", "dims", "dim_tables", "fact_predicate", "fact_payload")

    def __init__(
        self,
        fact_table: "Table",
        dims: tuple[DimJoinSpec, ...],
        fact_payload: tuple[str, ...],
        fact_predicate: Expr | None = None,
        dim_tables: tuple["Table", ...] = (),
    ):
        if not dims:
            raise ValueError("a star query joins at least one dimension")
        if dim_tables and len(dim_tables) != len(dims):
            raise ValueError("dim_tables must match dims")
        self.fact_table_obj = fact_table
        self.dims = tuple(dims)
        self.dim_tables = tuple(dim_tables)
        self.fact_payload = tuple(fact_payload)
        self.fact_predicate = fact_predicate

    @property
    def fact_table(self) -> str:
        return self.fact_table_obj.name

    def _compute_schema(self) -> Schema:
        cols = [self.fact_table_obj.schema.column(c) for c in self.fact_payload]
        for d in self.dims:
            cols += [Column(c, "str") for c in d.payload]
        return Schema(cols, row_bytes=16.0 * max(len(cols), 1))

    def _compute_signature(self) -> tuple:
        return (
            "cjoin",
            self.fact_table,
            tuple(d.signature for d in self.dims),
            self.fact_payload,
            self.fact_predicate.signature if self.fact_predicate else None,
        )


def referenced_tables(node: PlanNode) -> frozenset[str]:
    """Names of every base table the sub-plan rooted at ``node`` reads.

    The result cache records this per entry so an update to a table can
    invalidate exactly the materialized results derived from it."""
    names: set[str] = set()
    stack: list[PlanNode] = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ScanNode):
            names.add(n.table.name)
        elif isinstance(n, CJoinNode):
            names.add(n.fact_table)
            names.update(d.dim_table for d in n.dims)
        stack.extend(n.children)
    return frozenset(names)
