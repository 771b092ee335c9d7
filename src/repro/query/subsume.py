"""Subsumption lattice over plan signatures: fold similar queries into one.

Every sharing mechanism in this repo -- the Window-of-Opportunity registry
(paper Section 2.3), the shared result cache (:mod:`repro.cache`) and the
dimension-selection memo (:mod:`repro.storage.selections`) -- matched
plans by *exact* signature equality.  Two concurrent Q3.2 instances that
differ only in a year bound therefore ran fully query-centric even though
one's output strictly contains the other's.  Following GraftDB (*Dynamic
Folding of Concurrent Analytical Queries*) and the coordinated-reuse
argument of Sioulas et al. (*Real-Time Analytics by Coordinating Reuse and
Work Sharing*), this module defines ONE structural subsumption relation
that all three layers consult:

* :func:`predicate_subsumes` -- conjunctive-predicate containment.
  ``weak`` subsumes ``strong`` when every row passing ``strong`` passes
  ``weak`` (per-column interval/set containment for cmp/between/in-set
  conjuncts; opaque shapes must match by signature).  On success it also
  returns the *residual* conjuncts ``R`` with ``strong == weak AND R`` --
  exactly the post-filter a folded consumer must apply to the provider's
  rows.  The check is conservative: it may miss a true containment (a
  missed fold is only a missed optimization) but never reports a false
  one, so folded results are always exact.
* :func:`fold_plan` -- lifts predicate subsumption to whole plan nodes:
  selects over an identical sub-plan, CJOIN stars (per-dimension predicate
  containment + payload projection), hash joins (per-side containment) and
  aggregations with the same grouping.  Returns a :class:`FoldPlan`: the
  residual filter and an optional output projection, or ``None`` when the
  provider cannot serve the consumer.
* :class:`FoldIndex` -- the search structure: providers bucketed by plan
  *shape* and posted under the values of one finite-value constraint, so
  an admission runs :func:`fold_plan` on a handful of candidates instead
  of every in-flight host or cache entry.  Both sides of every test read
  per-node and per-predicate summaries derived once and memoized on the
  (immutable) node or expression.
* :class:`ProviderSet` -- the run's one set of providers: every WoP host
  of every stage and every result-cache entry, by exact signature and in
  one :class:`FoldIndex`.  Its :meth:`~ProviderSet.lookup` makes every
  reuse decision -- ``Stage.decide`` and the router's cache probe alike:
  a provider under the consumer's own signature (the empty fold), else
  the provider whose fold leaves the fewest residual terms, by a fixed
  mechanism precedence.  :class:`ResidualOperator` is the compiled
  runtime form the engine workers stream batches through.

Everything here is pure bookkeeping over immutable plan/expression
structures -- no simulated time.  The *engine* charges fold-search and
residual-filter work through :class:`~repro.sim.costmodel.CostModel`
(``fold_search`` plus the ordinary read/predicate builders) at the
consumer sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, NamedTuple

from repro.query.expr import (
    And,
    Between,
    Cmp,
    Col,
    Const,
    Expr,
    InSet,
    compile_selection,
    select_batch,
)
from repro.query.plan import (
    AggregateNode,
    CJoinNode,
    HashJoinNode,
    PlanNode,
    unwrap_selects,
)
from repro.storage.page import ColumnBatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.schema import Schema

__all__ = [
    "Decision",
    "FoldIndex",
    "FoldPlan",
    "ProviderSet",
    "ResidualOperator",
    "and_of",
    "conjuncts",
    "fold_plan",
    "predicate_subsumes",
]


# ---------------------------------------------------------------------------
# Conjunct algebra
# ---------------------------------------------------------------------------
def conjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten a predicate into its top-level conjuncts (nested ``And``
    included).  ``None`` (no predicate) flattens to no conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, And):
        out: list[Expr] = []
        for p in expr.parts:
            out.extend(conjuncts(p))
        return out
    return [expr]


def and_of(parts: Iterable[Expr]) -> Expr | None:
    """Rebuild a conjunction: ``None`` for zero parts, the part itself for
    one, ``And`` otherwise."""
    parts = list(parts)
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return And(*parts)


class _Constraint:
    """The region one column is constrained to by a set of conjuncts:
    an interval (open/closed bounds, ``None`` = unbounded) intersected
    with an optional finite value set."""

    __slots__ = ("lo", "lo_open", "hi", "hi_open", "values")

    def __init__(self):
        self.lo: Any = None
        self.lo_open = False
        self.hi: Any = None
        self.hi_open = False
        self.values: frozenset | None = None

    # -- construction ----------------------------------------------------
    def add_lo(self, v: Any, open_: bool) -> None:
        if self.lo is None or v > self.lo or (v == self.lo and open_):
            self.lo, self.lo_open = v, open_

    def add_hi(self, v: Any, open_: bool) -> None:
        if self.hi is None or v < self.hi or (v == self.hi and open_):
            self.hi, self.hi_open = v, open_

    def add_values(self, vals: Iterable[Any]) -> None:
        vs = frozenset(vals)
        self.values = vs if self.values is None else (self.values & vs)

    # -- membership / containment ----------------------------------------
    def admits(self, x: Any) -> bool:
        """Is value ``x`` inside this region?"""
        if self.values is not None and x not in self.values:
            return False
        if self.lo is not None and (x < self.lo or (x == self.lo and self.lo_open)):
            return False
        if self.hi is not None and (x > self.hi or (x == self.hi and self.hi_open)):
            return False
        return True

    def _interval_contains(self, other: "_Constraint") -> bool:
        if self.lo is not None:
            if other.lo is None:
                return False
            if other.lo < self.lo:
                return False
            if other.lo == self.lo and self.lo_open and not other.lo_open:
                return False
        if self.hi is not None:
            if other.hi is None:
                return False
            if other.hi > self.hi:
                return False
            if other.hi == self.hi and self.hi_open and not other.hi_open:
                return False
        return True

    def contains(self, other: "_Constraint") -> bool:
        """Is ``other``'s region a subset of this one?  Conservative:
        ``False`` on any shape (or type) mismatch it cannot decide."""
        try:
            if other.values is not None:
                # Finite region: check each surviving point directly.
                return all(
                    self.admits(x) for x in other.values if other.admits(x)
                )
            if self.values is not None:
                # A finite set cannot contain a (non-degenerate) interval;
                # the one decidable case is a single-point interval.
                if other.is_point():
                    return self.admits(other.lo)
                return False
            return self._interval_contains(other)
        except TypeError:
            return False  # incomparable value types: undecidable, so no

    def is_point(self) -> bool:
        """An interval closed on one single value (``Between(x, x)``)."""
        return (
            self.lo is not None
            and self.lo == self.hi
            and not self.lo_open
            and not self.hi_open
        )

    def probe_value(self) -> Any:
        """One value every *finite value set* containing this region must
        hold -- the :class:`FoldIndex` lookup key: a surviving point of the
        value set, or the single point of a closed interval (what
        :meth:`contains` decides against a set).  ``_UNBOUNDED`` when the
        region is a proper interval (no set contains it), ``_EMPTY`` when
        no point survives (every region contains it, vacuously).  Raises
        ``TypeError`` on incomparable value types."""
        if self.values is None:
            return self.lo if self.is_point() else _UNBOUNDED
        for x in self.values:
            if self.admits(x):
                return x
        return _EMPTY


#: :meth:`_Constraint.probe_value` outcomes that are not a value.
_UNBOUNDED = object()
_EMPTY = object()


def _classify(conj: Expr) -> tuple[str, _Constraint] | None:
    """``(column, constraint)`` for the supported single-column shapes,
    ``None`` for opaque conjuncts (compared by signature only)."""
    c = _Constraint()
    if isinstance(conj, Between):
        c.add_lo(conj.lo, False)
        c.add_hi(conj.hi, False)
        return conj.col, c
    if isinstance(conj, InSet):
        c.add_values(conj.values)
        return conj.col, c
    if isinstance(conj, Cmp) and isinstance(conj.left, Col) and isinstance(conj.right, Const):
        v = conj.right.value
        if conj.op == "<":
            c.add_hi(v, True)
        elif conj.op == "<=":
            c.add_hi(v, False)
        elif conj.op == ">":
            c.add_lo(v, True)
        elif conj.op == ">=":
            c.add_lo(v, False)
        elif conj.op == "=":
            c.add_values((v,))
        else:  # '!=' has no convex region; treat as opaque
            return None
        return conj.left.name, c
    return None


class _PredSummary:
    """One conjunctive predicate, classified once: its conjuncts with
    their signatures and per-conjunct constraints, the merged per-column
    constraints and the opaque conjuncts' signatures.  Memoized on the
    expression (:attr:`Expr._fold_summary`), so every subsumption test
    after the first reads it instead of re-deriving both sides."""

    __slots__ = ("conj", "conj_sigs", "classified", "cols", "opaque_sigs")

    def __init__(self, predicate: Expr | None):
        self.conj = tuple(conjuncts(predicate))
        self.conj_sigs = tuple(c.signature for c in self.conj)
        self.classified = tuple(_classify(c) for c in self.conj)
        #: column -> the region all of its conjuncts together allow
        self.cols: dict[str, _Constraint] = {}
        opaque: list[tuple] = []
        for sig, info in zip(self.conj_sigs, self.classified):
            if info is None:
                opaque.append(sig)
                continue
            col, c = info
            merged = self.cols.get(col)
            if merged is None:
                merged = self.cols[col] = _Constraint()
            try:
                if c.lo is not None:
                    merged.add_lo(c.lo, c.lo_open)
                if c.hi is not None:
                    merged.add_hi(c.hi, c.hi_open)
            except TypeError:
                # Bounds of incomparable types on one column: undecidable,
                # so this conjunct only ever matches by signature.
                opaque.append(sig)
            if c.values is not None:
                merged.add_values(c.values)
        self.opaque_sigs = tuple(opaque)


_NO_PREDICATE = _PredSummary(None)


def _pred_summary(predicate: Expr | None) -> _PredSummary:
    if predicate is None:
        return _NO_PREDICATE
    summary = getattr(predicate, "_fold_summary", None)
    if summary is None:
        summary = predicate._fold_summary = _PredSummary(predicate)
    return summary


def predicate_subsumes(
    weak: Expr | None, strong: Expr | None
) -> tuple[bool, list[Expr]]:
    """Does ``weak`` subsume ``strong`` -- rows(strong) a subset of
    rows(weak)?  Returns ``(ok, residual)`` where ``residual`` is the list
    of ``strong``'s conjuncts not already implied by ``weak``; on success
    ``weak AND residual`` selects *exactly* the rows of ``strong`` (the
    dropped conjuncts are each implied by ``weak``), so a consumer can run
    the residual as a post-filter over the provider's output."""
    return _subsumes(_pred_summary(weak), _pred_summary(strong))


def _subsumes(weak: _PredSummary, strong: _PredSummary) -> tuple[bool, list[Expr]]:
    """:func:`predicate_subsumes` over two classified predicates."""
    if not weak.conj:
        return True, list(strong.conj)
    if not strong.conj:
        return False, []
    # Every opaque conjunct of the weak side must literally reappear.
    ssigs = strong.conj_sigs
    for sig in weak.opaque_sigs:
        if sig not in ssigs:
            return False, []
    # Every column the weak side constrains must be constrained at least
    # as tightly by the strong side.
    wcols = weak.cols
    scols = strong.cols
    for col, wc in wcols.items():
        sc = scols.get(col)
        if sc is None or not wc.contains(sc):
            return False, []
    # Residual: strong conjuncts not implied by the weak predicate.
    wsigs = weak.conj_sigs
    residual: list[Expr] = []
    for cj, sig, info in zip(strong.conj, strong.conj_sigs, strong.classified):
        if sig in wsigs:
            continue
        if info is not None:
            col, cc = info
            wc = wcols.get(col)
            if wc is not None and cc.contains(wc):
                continue  # weak's own constraint already implies this
        residual.append(cj)
    return True, residual


# ---------------------------------------------------------------------------
# Plan-level folding
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FoldPlan:
    """How a subsuming provider's output becomes the consumer's result:
    residual filter, then projection."""

    #: post-filter over the provider's output rows (None = pass everything)
    residual: Expr | None = None
    #: output projection (positions into the provider's output row);
    #: ``None`` = identity
    project: tuple[int, ...] | None = None

    @property
    def residual_terms(self) -> int:
        return self.residual.terms if self.residual is not None else 0


def _residual_over(
    residual: list[Expr], available: Schema | tuple[str, ...]
) -> list[Expr] | None:
    """The residual conjuncts, provided every referenced column survives
    into the provider's output (else the fold is impossible)."""
    for r in residual:
        if not all(c in available for c in r.columns()):
            return None
    return residual


def _within(small: tuple[str, ...], big: tuple[str, ...]) -> bool:
    """``set(small) <= set(big)`` for the short name tuples of payloads and
    group-bys; equal tuples (the common case) build no set."""
    return small == big or set(small) <= set(big)


#: One operator input with its select chain unwrapped: the node below the
#: chain and the chain's classified predicate.
_Input = tuple[PlanNode, _PredSummary]


class _Summary:
    """Everything fold search reads from one stage-root plan node, derived
    once and memoized on the node (:attr:`PlanNode._fold_summary`).

    ``shape`` is hashable and holds all that two plans must agree on
    *exactly* to fold: node type, fact table and dimension join keys,
    join keys, sort keys, the shapes of the select-unwrapped inputs and
    the exact signature of any sub-plan the lattice only matches exactly.
    ``slots`` lists, in one traversal order fixed by the shape, the
    classified predicate of every place :func:`fold_plan` tests
    containment -- per node: a CJOIN's dimensions then its fact predicate;
    each input's select chain followed by the slots of the join below it.
    Two nodes of one shape therefore pair up slot by slot."""

    __slots__ = ("shape", "slots", "inputs", "aggs", "post_keys")

    def __init__(self, node: PlanNode):
        #: select-unwrapped inputs (aggregate: one; hash join: probe, build)
        self.inputs: tuple[_Input, ...] = ()
        #: aggregate: ``(func, expr signature)`` per aggregate
        self.aggs: tuple[tuple, ...] = ()
        if isinstance(node, CJoinNode):
            self.shape: tuple = (
                "cjoin",
                node.fact_table,
                tuple((d.dim_table, d.fact_fk, d.dim_key) for d in node.dims),
            )
            self.slots: tuple[_PredSummary, ...] = tuple(
                _pred_summary(d.predicate) for d in node.dims
            ) + (_pred_summary(node.fact_predicate),)
        elif isinstance(node, HashJoinNode):
            self._take_inputs(("hashjoin", node.probe_key, node.build_key), node.probe, node.build)
        elif isinstance(node, AggregateNode):
            self._take_inputs(("aggregate",), node.child)
            self.aggs = tuple(
                (a.func, a.expr.signature if a.expr else None) for a in node.aggregates
            )
        else:  # only ever matched by signature equality (sorts included)
            self.shape = ("exact", node.signature)
            self.slots = ()
        #: where :class:`FoldIndex` posts this node as a provider: one
        #: ``(slot, column, value)`` key per value of its first finite-value
        #: constraint, or the unkeyed list (``None``) when it has none
        self.post_keys: tuple = next(
            (
                tuple((i, col, v) for v in c.values)
                for i, slot in enumerate(self.slots)
                for col, c in slot.cols.items()
                if c.values is not None
            ),
            (None,),
        )

    def _take_inputs(self, head: tuple, *children: PlanNode) -> None:
        shape = head
        slots: tuple[_PredSummary, ...] = ()
        inputs: list[_Input] = []
        for child in children:
            inner, predicate = unwrap_selects(child)
            pred = _pred_summary(predicate)
            inputs.append((inner, pred))
            slots += (pred,)
            if isinstance(inner, (CJoinNode, HashJoinNode)):
                below = _summary(inner)
                shape += (below.shape,)
                slots += below.slots
            else:
                shape += (("exact", inner.signature),)
        self.shape = shape
        self.slots = slots
        self.inputs = tuple(inputs)


def _summary(node: PlanNode) -> _Summary:
    summary = getattr(node, "_fold_summary", None)
    if summary is None:
        summary = _Summary(node)
        object.__setattr__(node, "_fold_summary", summary)
    return summary


def _child_residual(consumer: _Input, provider: _Input) -> tuple[bool, list[Expr]]:
    """Subsumption between two operator *inputs* (select chains included):
    ``(ok, residual conjuncts over the provider child's output schema)``."""
    ci, cpred = consumer
    pi, ppred = provider
    if ci.signature == pi.signature:
        return _subsumes(ppred, cpred)
    if isinstance(ci, CJoinNode) and isinstance(pi, CJoinNode):
        # Aggregations over CJOIN outputs: the star itself may subsume.
        # A projection below an aggregation would shift the column
        # positions its exprs resolve against; require equal payloads.
        plan = _fold_cjoin(ci, pi)
        if plan is not None and plan.project is not None:
            plan = None
    elif isinstance(ci, HashJoinNode) and isinstance(pi, HashJoinNode):
        # Query-centric join trees: recurse -- a narrower dimension
        # predicate anywhere in the tree surfaces as a residual over the
        # join's output (``_fold_join`` never projects, so column
        # positions are stable for the consuming operator's exprs).
        plan = _fold_join(ci, pi)
    else:
        plan = None
    if plan is None:
        return False, []
    ok, outer = _subsumes(ppred, cpred)
    if not ok:
        return False, []
    return True, conjuncts(plan.residual) + outer


def _fold_aggregate(
    consumer: AggregateNode, provider: AggregateNode
) -> FoldPlan | None:
    # Same grouping only: groups pass through (filter + projection).  A
    # coarser consumer would need a roll-up of finalized groups, and no
    # template family has two groupings over one star shape.
    cg, pg = consumer.group_by, provider.group_by
    if cg != pg and set(cg) != set(pg):
        return None
    cs, ps = _summary(consumer), _summary(provider)
    ok, residual = _child_residual(cs.inputs[0], ps.inputs[0])
    if not ok:
        return None
    # The residual runs over the provider's *output groups*, so it may
    # only reference columns the provider grouped by (within one group
    # all rows agree on those columns, making the group-level filter
    # exactly equivalent to the row-level one).
    residual = _residual_over(residual, provider.group_by)
    if residual is None:
        return None
    out = provider.schema
    n_groups = len(provider.group_by)
    # Map each consumer aggregate onto a provider aggregate with the same
    # function and expression.
    matches: list[int] = []
    for want in cs.aggs:
        try:
            matches.append(n_groups + ps.aggs.index(want))
        except ValueError:
            return None
    project: tuple[int, ...] | None = out.indices(cg) + tuple(matches)
    if project == tuple(range(len(out))):
        project = None
    return FoldPlan(residual=and_of(residual), project=project)


def _fold_cjoin(consumer: CJoinNode, provider: CJoinNode) -> FoldPlan | None:
    cs, ps = _summary(consumer), _summary(provider)
    if cs.shape != ps.shape:
        return None  # another fact table or dimension join list
    for cd, pd in zip(consumer.dims, provider.dims):
        if not _within(cd.payload, pd.payload):
            return None
    if not _within(consumer.fact_payload, provider.fact_payload):
        return None
    # Dimension predicates in join order, then the fact predicate.
    residual: list[Expr] = []
    for cpred, ppred in zip(cs.slots, ps.slots):
        ok, res = _subsumes(ppred, cpred)
        if not ok:
            return None
        residual.extend(res)
    out = provider.schema
    checked = _residual_over(residual, out)
    if checked is None:
        return None
    names = consumer.schema.names
    project = None if names == out.names else out.indices(names)
    return FoldPlan(residual=and_of(checked), project=project)


def _fold_join(consumer: HashJoinNode, provider: HashJoinNode) -> FoldPlan | None:
    if (consumer.probe_key, consumer.build_key) != (provider.probe_key, provider.build_key):
        return None
    cs, ps = _summary(consumer), _summary(provider)
    ok_p, res_p = _child_residual(cs.inputs[0], ps.inputs[0])
    if not ok_p:
        return None
    ok_b, res_b = _child_residual(cs.inputs[1], ps.inputs[1])
    if not ok_b:
        return None
    checked = _residual_over(res_p + res_b, provider.schema)
    if checked is None:
        return None
    return FoldPlan(residual=and_of(checked))


def fold_plan(consumer: PlanNode, provider: PlanNode) -> FoldPlan | None:
    """A :class:`FoldPlan` turning ``provider``'s output into exactly
    ``consumer``'s, or ``None`` when ``provider`` does not subsume it.
    Both arguments are stage-root nodes (never ``SelectNode`` roots).
    Sorts fold only exactly: two sorts over one aggregate can differ only
    by a select between the sort and the aggregate, which no plan builder
    emits."""
    if consumer.signature == provider.signature:
        return FoldPlan()
    if isinstance(consumer, AggregateNode) and isinstance(provider, AggregateNode):
        return _fold_aggregate(consumer, provider)
    if isinstance(consumer, CJoinNode) and isinstance(provider, CJoinNode):
        return _fold_cjoin(consumer, provider)
    if isinstance(consumer, HashJoinNode) and isinstance(provider, HashJoinNode):
        return _fold_join(consumer, provider)
    return None


# ---------------------------------------------------------------------------
# Search: the one index behind the run's provider set
# ---------------------------------------------------------------------------
class _Bucket:
    """The providers of one shape: ``posted`` maps a provider's posting
    key ``(slot, column, value)`` -- or ``None`` for providers without a
    finite-value constraint -- to the tokens posted under it."""

    __slots__ = ("members", "posted")

    def __init__(self) -> None:
        self.members: dict[Any, None] = {}
        self.posted: dict[Any, dict[Any, None]] = {}


class FoldIndex:
    """Which providers can possibly subsume a consumer, without testing
    each: :meth:`candidates` returns a **superset** of the providers ``p``
    with ``fold_plan(consumer, p) is not None``.

    Providers are bucketed by summary shape (plans of different shapes
    never fold).  Inside a bucket a provider is posted under every value
    of its first finite-value constraint: it can only subsume consumers
    whose region on that column is itself finite and inside the value set,
    so a consumer finds it with one dictionary lookup on one of its own
    surviving values.  Providers without such a constraint are always
    candidates.  Everything is lazy: providers are summarized on the first
    search that finds the index non-empty, so a registry nobody searches
    (folding off) or that is empty at every admission (MPL 1) builds no
    summary.  Tokens are hashable, unique, and added at most once until
    discarded."""

    __slots__ = ("_pending", "_posted", "_buckets")

    def __init__(self) -> None:
        self._pending: dict[Any, PlanNode] = {}  # added, not yet summarized
        self._posted: dict[Any, PlanNode] = {}
        self._buckets: dict[tuple, _Bucket] = {}

    def __len__(self) -> int:
        return len(self._pending) + len(self._posted)

    def add(self, node: PlanNode, token: Any) -> None:
        """Index ``node`` as a provider; ``token`` is what
        :meth:`candidates` hands back."""
        self._pending[token] = node

    def discard(self, token: Any) -> None:
        """Forget ``token`` (a no-op when it is not indexed)."""
        if self._pending.pop(token, None) is not None:
            return
        node = self._posted.pop(token, None)
        if node is None:
            return
        summary = _summary(node)
        bucket = self._buckets[summary.shape]
        del bucket.members[token]
        if not bucket.members:
            del self._buckets[summary.shape]
            return
        for key in summary.post_keys:
            tokens = bucket.posted[key]
            del tokens[token]
            if not tokens:
                del bucket.posted[key]

    def candidates(self, consumer: PlanNode) -> list:
        """Tokens of every provider that may subsume ``consumer``."""
        if not self:
            return []
        if self._pending:
            self._post_pending()
        summary = _summary(consumer)
        bucket = self._buckets.get(summary.shape)
        if bucket is None:
            return []
        posted = bucket.posted
        found = list(posted.get(None, ()))
        # A keyed provider's value set must contain the consumer's whole
        # region on that column; probe with one point of the region.
        try:
            for i, slot in enumerate(summary.slots):
                for col, region in slot.cols.items():
                    value = region.probe_value()
                    if value is _UNBOUNDED:
                        continue  # no value set contains an interval
                    if value is _EMPTY:
                        return list(bucket.members)  # contained in anything
                    found.extend(posted.get((i, col, value), ()))
        except TypeError:
            return list(bucket.members)  # incomparable types: undecidable
        return found

    def _post_pending(self) -> None:
        for token, node in self._pending.items():
            summary = _summary(node)
            bucket = self._buckets.get(summary.shape)
            if bucket is None:
                bucket = self._buckets[summary.shape] = _Bucket()
            bucket.members[token] = None
            for key in summary.post_keys:
                bucket.posted.setdefault(key, {})[token] = None
        self._posted.update(self._pending)
        self._pending.clear()


# ---------------------------------------------------------------------------
# The run's one provider set + runtime operator
# ---------------------------------------------------------------------------
class Decision(NamedTuple):
    """Which mechanism serves a consumer, from which provider, through
    which fold; ``examined`` is what ``CostModel.fold_search`` charges for
    (0 for an exact match, which searches nothing)."""

    mechanism: str
    provider: Any
    plan: FoldPlan
    examined: int


class ProviderSet:
    """The run's providers (owned by its
    :class:`~repro.storage.manager.StorageManager`): the WoP hosts every
    stage of every engine registered, and every resident result-cache
    entry.  Each is held under its *owner* -- the registering stage, or the
    cache -- by the signature it serves exactly and, when it may serve
    folds, in the one :class:`FoldIndex` as an ``(owner, provider)`` token.
    A provider has ``node``, ``fold_eligible()`` and a unique ``fold_rank()``."""

    __slots__ = ("_exact", "_index")

    def __init__(self) -> None:
        self._exact: dict[Any, dict[tuple, Any]] = {}  # owner -> signature -> provider
        self._index = FoldIndex()

    def add(self, owner: Any, key: tuple, provider: Any, indexed: bool) -> None:
        """Make ``provider`` ``owner``'s provider for signature ``key``,
        replacing the one held there; ``indexed``: it may serve folds."""
        held = self._exact.setdefault(owner, {})
        self._index.discard((owner, held.get(key)))
        held[key] = provider
        if indexed:
            self._index.add(provider.node, (owner, provider))

    def discard(self, owner: Any, key: tuple, provider: Any) -> None:
        """Forget ``provider`` unless another has replaced it under ``key``."""
        held = self._exact.get(owner)
        if held is not None and held.get(key) is provider:
            del held[key]
            self._index.discard((owner, provider))

    def lookup(
        self, node: PlanNode, stage: Any, cache: Any, fold: bool, first: bool = False
    ) -> Decision | None:
        """The one reuse decision for ``node`` over ``stage``'s hosts and
        ``cache``'s entries (either None: not a candidate owner), by
        precedence ``cache_hit``, ``wop_attach``, ``host_fold``,
        ``cache_fold``; a fold is searched (only when ``fold``) when no
        mechanism above it won.  A fold is the owner's eligible provider
        with the fewest residual terms, then the lowest rank; only once it
        has won are the owner's eligible providers counted, as
        ``examined``.  A sort is never searched.  ``first`` stops at the
        first fold found (an existence test).  Pure."""
        sig = node.signature
        entry = self._exact.get(cache, {}).get(sig)
        if entry is not None:
            return Decision("cache_hit", entry, FoldPlan(), 0)
        host = self._exact.get(stage, {}).get(sig)
        if host is not None and host.can_attach():
            return Decision("wop_attach", host, FoldPlan(), 0)
        if not fold or (stage is None and cache is None) or _summary(node).shape[0] == "exact":
            return None
        # A provider may be proposed more than once (posted under several keys).
        candidates = dict.fromkeys(self._index.candidates(node))
        for mechanism, owner in (("host_fold", stage), ("cache_fold", cache)):
            if owner is None:
                continue
            best: tuple | None = None
            for held_by, provider in candidates:
                if held_by is not owner or not provider.fold_eligible():
                    continue
                plan = fold_plan(node, provider.node)
                if plan is None:
                    continue
                key = (plan.residual_terms, provider.fold_rank())
                if best is None or key < best[0]:
                    best = (key, provider, plan)
                    if first:
                        break
            if best is not None:
                examined = sum(1 for p in self._exact[owner].values() if p.fold_eligible())
                return Decision(mechanism, best[1], best[2], examined)
        return None


class ResidualOperator:
    """Compiled runtime form of a :class:`FoldPlan`: stream the provider's
    output batches through the residual filter, then project columns.  Row
    order matches what direct evaluation would produce, so folded results
    are exact."""

    __slots__ = ("plan", "_select")

    def __init__(self, plan: FoldPlan, provider_schema: "Schema"):
        self.plan = plan
        self._select = (
            compile_selection(plan.residual, provider_schema)
            if plan.residual is not None
            else None
        )

    def apply(self, batch: ColumnBatch) -> ColumnBatch:
        """Filter + project one batch (the projection gathers the kept
        columns through the selection; a full view shares them)."""
        if self._select is not None:
            batch = select_batch(self._select, batch)
        idx = self.plan.project
        if idx is not None and len(batch):
            batch = ColumnBatch(tuple(map(batch.column, idx)), None, batch.weight)
        return batch
