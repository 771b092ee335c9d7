"""Property suite for the subsumption lattice (:mod:`repro.query.subsume`).

The fold plane's whole correctness argument rests on four claims, each
checked here over arbitrary generated predicates and relations:

* **Order** -- subsumption is reflexive and transitive, and adding
  conjuncts always strengthens (``w`` subsumes ``w AND r``).
* **Containment** -- whenever ``predicate_subsumes(weak, strong)`` says
  yes, every row passing ``strong`` passes ``weak`` (the check is
  conservative: it may say no to a true containment, never yes to a
  false one).
* **Residual exactness** -- ``weak AND residual`` selects *exactly* the
  rows of ``strong``, and :class:`ResidualOperator` applied to the
  provider's output equals direct evaluation of the consumer (both
  kernel and row-closure filter paths).
* **Aggregate fold exactness** -- filtering and projecting a provider's
  finalized groups equals direct aggregation of the consumer,
  value-for-value (exact ``Fraction`` arithmetic) and in the same
  emission order; a coarser grouping (a roll-up) is refused.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.query.expr import And, Between, Cmp, InSet, Or
from repro.query.plan import (
    AggregateNode,
    AggSpec,
    CJoinNode,
    DimJoinSpec,
    HashJoinNode,
    ScanNode,
    SelectNode,
    SortNode,
)
from repro.query.subsume import (
    FoldIndex,
    FoldPlan,
    FoldPlanner,
    ResidualOperator,
    and_of,
    conjuncts,
    fold_plan,
    predicate_subsumes,
)
from repro.query.subsume import _classify  # the unmemoized primitive, for the reference
from repro.storage.schema import Column, Schema
from repro.storage.table import Table
from tests.boxed import boxed_table

# ----------------------------------------------------------------------
# Strategies: small-int relations over a fixed 3-column schema (values
# collide often, so containment/residual checks exercise real regions).
# ----------------------------------------------------------------------
SCHEMA = Schema([Column("a"), Column("b"), Column("c")], row_bytes=24)

rows_strategy = st.lists(
    st.tuples(st.integers(0, 9), st.integers(-5, 5), st.integers(0, 3)),
    max_size=80,
)

values = st.integers(-6, 10)
col_names = st.sampled_from(["a", "b", "c"])


def leaves(cols=col_names):
    cmps = st.builds(
        Cmp, st.sampled_from(["<", "<=", "=", "!=", ">=", ">"]), cols, values
    )
    betweens = st.builds(
        lambda c, lo, span: Between(c, lo, lo + span),
        cols,
        values,
        st.integers(0, 6),
    )
    insets = st.builds(
        lambda c, vs: InSet(c, tuple(vs)),
        cols,
        st.lists(values, min_size=1, max_size=4),
    )
    return st.one_of(cmps, betweens, insets)


conj_lists = st.lists(leaves(), min_size=1, max_size=4)
predicates = conj_lists.map(and_of)
maybe_predicates = st.one_of(st.none(), predicates)


def passing(pred, rows):
    """Positions of ``rows`` passing ``pred`` (all of them for None)."""
    if pred is None:
        return list(range(len(rows)))
    f = pred.compile(SCHEMA)
    return [i for i, r in enumerate(rows) if f(r)]


# ----------------------------------------------------------------------
# Order properties
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(pred=maybe_predicates)
def test_subsumption_is_reflexive(pred):
    ok, residual = predicate_subsumes(pred, pred)
    assert ok
    assert residual == []


@settings(max_examples=120, deadline=None)
@given(weak=maybe_predicates, extra=conj_lists)
def test_conjunction_strengthening_subsumes(weak, extra):
    strong = and_of(conjuncts(weak) + extra)
    ok, _ = predicate_subsumes(weak, strong)
    assert ok


@settings(max_examples=200, deadline=None)
@given(a=maybe_predicates, b=maybe_predicates, c=maybe_predicates)
def test_subsumption_is_transitive(a, b, c):
    if predicate_subsumes(a, b)[0] and predicate_subsumes(b, c)[0]:
        assert predicate_subsumes(a, c)[0]


# ----------------------------------------------------------------------
# Containment + residual exactness
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(weak=maybe_predicates, strong=maybe_predicates, rows=rows_strategy)
def test_subsumes_implies_row_containment(weak, strong, rows):
    ok, _ = predicate_subsumes(weak, strong)
    if ok:
        assert set(passing(strong, rows)) <= set(passing(weak, rows))


@settings(max_examples=200, deadline=None)
@given(weak=maybe_predicates, extra=conj_lists, rows=rows_strategy)
def test_residual_restores_strong_exactly(weak, extra, rows):
    strong = and_of(conjuncts(weak) + extra)
    ok, residual = predicate_subsumes(weak, strong)
    assert ok
    survivors = passing(weak, rows)
    refined = passing(and_of(residual), [rows[i] for i in survivors])
    assert [survivors[i] for i in refined] == passing(strong, rows)


@settings(max_examples=120, deadline=None)
@given(
    weak=maybe_predicates,
    extra=conj_lists,
    rows=rows_strategy,
)
def test_residual_operator_equals_direct(weak, extra, rows):
    """Streaming the provider's (weak-filtered) rows through the compiled
    ResidualOperator must equal evaluating the consumer's predicate
    directly."""
    strong = and_of(conjuncts(weak) + extra)
    ok, residual = predicate_subsumes(weak, strong)
    assert ok
    op = ResidualOperator(FoldPlan(residual=and_of(residual)), SCHEMA)
    provider_rows = [rows[i] for i in passing(weak, rows)]
    assert op.apply(provider_rows) == [rows[i] for i in passing(strong, rows)]


# ----------------------------------------------------------------------
# Aggregate folds
# ----------------------------------------------------------------------
def _aggs():
    from repro.query.expr import Col

    return (
        AggSpec("sum", Col("c"), "sum_c"),
        AggSpec("count", None, "n"),
        AggSpec("min", Col("c"), "min_c"),
        AggSpec("max", Col("c"), "max_c"),
    )


def direct_agg(rows, group_by, aggs):
    """Reference aggregation: exact Fractions, first-occurrence group
    order (what the engine's hash aggregation emits)."""
    idx = {c.name: i for i, c in enumerate(SCHEMA.columns)}
    groups: dict[tuple, list] = {}
    for r in rows:
        key = tuple(r[idx[g]] for g in group_by)
        acc = groups.get(key)
        if acc is None:
            acc = groups[key] = [None] * len(aggs)
        for i, a in enumerate(aggs):
            v = r[idx[a.expr.name]] if a.expr is not None else None
            if a.func == "sum":
                acc[i] = (acc[i] or Fraction(0)) + Fraction(v)
            elif a.func == "count":
                acc[i] = (acc[i] or Fraction(0)) + Fraction(1)
            elif a.func == "min":
                acc[i] = v if acc[i] is None else min(acc[i], v)
            elif a.func == "max":
                acc[i] = v if acc[i] is None else max(acc[i], v)
    return [key + tuple(acc) for key, acc in groups.items()]


@settings(max_examples=120, deadline=None)
@given(
    rows=rows_strategy,
    weak=maybe_predicates,
    extra=st.lists(leaves(st.sampled_from(["a", "b"])), max_size=3),
    consumer_groups=st.sampled_from([("a", "b"), ("b", "a")]),
    agg_mask=st.integers(1, 15),
)
def test_aggregate_fold_equals_direct(rows, weak, extra, consumer_groups, agg_mask):
    """Fold a consumer aggregate into a provider with the same grouping:
    the ResidualOperator over the provider's finalized groups must equal
    direct aggregation of the consumer's input, exactly (Fraction
    arithmetic) and in the same emission order."""
    aggs = _aggs()
    consumer_aggs = tuple(a for i, a in enumerate(aggs) if agg_mask >> i & 1)
    table = boxed_table("t", SCHEMA, rows)

    def child(pred):
        scan = ScanNode(table)
        return scan if pred is None else SelectNode(scan, pred)

    strong = and_of(conjuncts(weak) + extra)
    provider = AggregateNode(child(weak), ("a", "b"), aggs)
    consumer = AggregateNode(child(strong), consumer_groups, consumer_aggs)
    plan = fold_plan(consumer, provider)
    assume(plan is not None)  # conservative misses are allowed, silence isn't

    provider_out = direct_agg(
        [rows[i] for i in passing(weak, rows)], ("a", "b"), aggs
    )
    folded = ResidualOperator(plan, provider.schema).apply(provider_out)
    direct = direct_agg(
        [rows[i] for i in passing(strong, rows)], consumer_groups, consumer_aggs
    )
    assert folded == direct


@settings(max_examples=60, deadline=None)
@given(weak=maybe_predicates, consumer_groups=st.sampled_from([("a",), ("b",), ()]))
def test_coarser_grouping_is_not_folded(weak, consumer_groups):
    """A roll-up of finalized groups is not a fold shape: a consumer
    grouping by a proper subset of the provider's columns is refused."""
    table = Table("t", SCHEMA, [])
    scan = ScanNode(table)
    child = scan if weak is None else SelectNode(scan, weak)
    provider = AggregateNode(child, ("a", "b"), _aggs())
    assert fold_plan(AggregateNode(child, consumer_groups, _aggs()), provider) is None


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, weak=maybe_predicates, extra=conj_lists)
def test_rollup_residual_on_nongroup_column_is_rejected(rows, weak, extra):
    """A residual conjunct on a column the provider did not group by can't
    run over finalized groups; fold_plan must refuse rather than guess --
    for a roll-up (refused outright) and for the same grouping alike."""
    aggs = _aggs()
    table = boxed_table("t", SCHEMA, rows)
    scan = ScanNode(table)
    strong_extra = and_of(conjuncts(weak) + extra + [Cmp(">", "c", 1)])
    provider = AggregateNode(
        scan if weak is None else SelectNode(scan, weak), ("a", "b"), aggs
    )
    consumer = AggregateNode(SelectNode(scan, strong_extra), ("a",), aggs[:1])
    assert fold_plan(consumer, provider) is None
    consumer = AggregateNode(SelectNode(scan, strong_extra), ("b", "a"), aggs[:1])
    plan = fold_plan(consumer, provider)
    if plan is not None:
        # Only acceptable if c>1 was implied by the weak predicate itself
        # (then it is not part of the residual at all).
        assert plan.residual is None or "c" not in plan.residual.columns()


# ----------------------------------------------------------------------
# Planner ranking
# ----------------------------------------------------------------------
def test_fold_planner_prefers_fewest_residual_terms():
    from repro.query.expr import Col

    aggs = (AggSpec("sum", Col("c"), "sum_c"),)
    table = boxed_table("t", SCHEMA, [(1, 2, 3)])
    scan = ScanNode(table)
    consumer = AggregateNode(
        SelectNode(scan, And(Between("a", 1, 4), Between("b", 0, 2))),
        ("a", "b"),
        aggs,
    )
    far = AggregateNode(scan, ("a", "b"), aggs)  # residual: both conjuncts
    near = AggregateNode(
        SelectNode(scan, Between("a", 1, 4)), ("a", "b"), aggs
    )  # residual: b only
    planner = FoldPlanner(consumer)
    planner.consider(far, "far")
    planner.consider(near, "near")
    token, plan = planner.best()
    assert token == "near"
    assert plan.residual.columns() == {"b"}


# ----------------------------------------------------------------------
# Search: memoized summaries and the FoldIndex
#
# Generated plans of every shape the lattice handles, over predicates
# that stress the index's fallbacks: opaque ``!=``/``Or`` conjuncts,
# value sets whose intersection is empty, contradictory equalities,
# ``Between(x, x)`` points, inverted ranges and mixed int/float/str
# values (undecidable comparisons).  The references -- a from-scratch
# predicate derivation and a brute-force walk over every provider -- live
# here, not in the module under test.
# ----------------------------------------------------------------------
mixed_values = st.sampled_from([0, 1, 2, 3, 4, 1.0, 2.5, "a", "b"])

FACT = Table(
    "f",
    Schema([Column("fk1"), Column("fk2"), Column("m"), Column("q")], row_bytes=32),
    [],
)
DIM1 = Table("d1", Schema([Column("k1"), Column("x"), Column("y")], row_bytes=24), [])
DIM2 = Table("d2", Schema([Column("k2"), Column("u"), Column("v")], row_bytes=24), [])
COLSETS = {"f": ("m", "q"), "d1": ("x", "y"), "d2": ("u", "v")}


def mixed_leaves(cols):
    col = st.sampled_from(cols)
    cmps = st.builds(
        Cmp, st.sampled_from(["<", "<=", "=", "=", "!=", ">=", ">"]), col, mixed_values
    )
    ranges = st.builds(Between, col, mixed_values, mixed_values)
    points = st.builds(lambda c, v: Between(c, v, v), col, mixed_values)
    insets = st.builds(
        lambda c, vs: InSet(c, tuple(vs)),
        col,
        st.lists(mixed_values, min_size=1, max_size=3),
    )
    ors = st.builds(
        lambda c, a, b: Or(Cmp("=", c, a), Cmp(">", c, b)), col, mixed_values, mixed_values
    )
    return st.one_of(cmps, ranges, points, insets, ors)


@st.composite
def leaf_pools(draw):
    """A few leaves per table: predicates drawn as sub-conjunctions of one
    pool subsume each other often, so positive cases are not rare."""
    return {
        t: draw(st.lists(mixed_leaves(cols), min_size=2, max_size=4))
        for t, cols in COLSETS.items()
    }


class PlanDraw:
    """The draws behind one generated plan.  ``pick`` makes a structural
    choice and logs it; a *variant* (``replay=`` an earlier log) repeats
    those choices -- so it has the same shape -- while ``free`` choices
    (payloads, group-by, aggregate lists) are drawn afresh and every
    predicate gains freshly drawn conjuncts, which is how subsuming pairs
    of every shape become common instead of vanishingly rare."""

    def __init__(self, draw, pool, replay=None):
        self.free = draw
        self.pool = pool
        self.log = []
        self._replay = None if replay is None else iter(replay)

    def pick(self, strategy):
        if self._replay is not None:
            return next(self._replay)
        value = self.free(strategy)
        self.log.append(value)
        return value

    def pred(self, table):
        parts = self.pick(st.lists(st.sampled_from(self.pool[table]), max_size=2))
        if self._replay is not None:
            parts = parts + self.free(st.lists(st.sampled_from(self.pool[table]), max_size=2))
        return and_of(parts)

    def chain(self, table_obj):
        """A scan under zero to two fused selects."""
        node = ScanNode(table_obj)
        for _ in range(self.pick(st.integers(0, 2))):
            node = SelectNode(node, self.pick(st.sampled_from(self.pool[table_obj.name])))
        if self._replay is not None and self.free(st.booleans()):
            node = SelectNode(node, self.free(st.sampled_from(self.pool[table_obj.name])))
        return node


def draw_star(d, full_payload=False):
    payload1 = ("x", "y") if full_payload else d.free(st.sampled_from([("x", "y"), ("x",), ("y", "x")]))
    payload2 = ("u", "v") if full_payload else d.free(st.sampled_from([("u",), ("u", "v")]))
    dims = [DimJoinSpec("d1", "fk1", "k1", d.pred("d1"), payload1)]
    if d.pick(st.booleans()):
        dims.append(DimJoinSpec("d2", "fk2", "k2", d.pred("d2"), payload2))
    return CJoinNode(
        FACT,
        tuple(dims),
        ("m", "q") if full_payload else d.free(st.sampled_from([("m", "q"), ("m",)])),
        d.pred("f"),
    )


def draw_join_tree(d):
    tree = HashJoinNode(d.chain(FACT), d.chain(DIM1), "fk1", "k1")
    if d.pick(st.booleans()):
        probe = tree
        if d.pick(st.booleans()):  # a select over the lower join's output
            probe = SelectNode(tree, d.pick(st.sampled_from(d.pool["d1"] + d.pool["f"])))
        tree = HashJoinNode(probe, d.chain(DIM2), "fk2", "k2")
    return tree


def draw_aggregate(d):
    """Aggregates over stars (equal payloads, as a fold below an
    aggregation requires) and join trees, grouped finely or coarsely
    (a coarser grouping never folds) with overlapping aggregate lists."""
    from repro.query.expr import Col

    if d.pick(st.booleans()):
        child = draw_star(d, full_payload=True)
    else:
        child = draw_join_tree(d)
    if d.pick(st.booleans()):
        child = SelectNode(child, d.pick(st.sampled_from(d.pool["d1"])))
    group_by = d.free(st.sampled_from([("x", "y"), ("y", "x"), ("x",), ("y",), ()]))
    total, count = AggSpec("sum", Col("m"), "s"), AggSpec("count", None, "n")
    aggs = d.free(
        st.sampled_from(
            [(total, count), (total,), (count, total), (total, AggSpec("avg", Col("m"), "mean"))]
        )
    )
    return AggregateNode(child, group_by, aggs)


def draw_sort(d):
    """Sorts fold only by exact signature (their own bucket per plan)."""
    kind = d.pick(st.integers(0, 3))
    if kind == 0:
        child = draw_aggregate(d)
    elif kind == 1:
        child = draw_join_tree(d)
    else:
        child = d.chain(FACT)
    return SortNode(child, ((d.pick(st.sampled_from(["m", "q"])), d.pick(st.booleans())),))


def draw_scan(d):
    return ScanNode(d.pick(st.sampled_from([FACT, DIM1])))


PLAN_KINDS = [draw_star, draw_join_tree, draw_aggregate, draw_sort, draw_scan]


@st.composite
def plan_families(draw):
    """Two to nine stage-root plans of at most two kinds over one leaf
    pool: independent draws plus narrowed variants of them."""
    pool = draw(leaf_pools())
    kinds = draw(st.lists(st.sampled_from(PLAN_KINDS), min_size=1, max_size=2))
    plans = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(kinds))
        base = PlanDraw(draw, pool)
        plans.append(kind(base))
        for _ in range(draw(st.integers(1 if len(plans) == 1 else 0, 2))):
            plans.append(kind(PlanDraw(draw, pool, replay=base.log)))
    return plans


def _indexed(plans):
    index = FoldIndex()
    for i, p in enumerate(plans):
        index.add(p, i)
    return index


@settings(max_examples=250, deadline=None)
@given(plans=plan_families())
def test_index_candidates_are_a_superset_of_every_subsuming_provider(plans):
    index = _indexed(plans)
    assert len(index) == len(plans)
    for consumer in plans:
        found = index.candidates(consumer)
        assert len(found) == len(set(found)), "a provider was returned twice"
        subsuming = {
            i for i, p in enumerate(plans) if fold_plan(consumer, p) is not None
        }
        assert subsuming <= set(found)


@settings(max_examples=150, deadline=None)
@given(plans=plan_families())
def test_planner_fed_from_index_picks_what_a_full_walk_picks(plans):
    index = _indexed(plans)
    for consumer in plans:
        walk, indexed = FoldPlanner(consumer), FoldPlanner(consumer)
        for i, p in enumerate(plans):
            walk.consider(p, i, tie_break=(i,))
        for i in index.candidates(consumer):
            indexed.consider(plans[i], i, tie_break=(i,))
        assert indexed.best() == walk.best()


@settings(max_examples=150, deadline=None)
@given(plans=plan_families(), data=st.data())
def test_index_never_returns_a_discarded_provider(plans, data):
    """Discards may hit providers still pending (never searched) and
    providers already posted; neither may ever come back."""
    index = _indexed(plans)
    if data.draw(st.booleans()):
        index.candidates(plans[0])  # post everything added so far
    gone = set(data.draw(st.lists(st.sampled_from(range(len(plans))), unique=True)))
    for i in gone:
        index.discard(i)
    index.discard("never added")
    assert len(index) == len(plans) - len(gone)
    for consumer in plans:
        found = set(index.candidates(consumer))
        assert not found & gone
        assert {
            i
            for i, p in enumerate(plans)
            if i not in gone and fold_plan(consumer, p) is not None
        } <= found
    for i in set(range(len(plans))) - gone:
        index.discard(i)
    assert len(index) == 0 and not index._buckets
    assert index.candidates(plans[0]) == []


def test_index_is_lazy():
    """Adding providers, and searching an empty index, derive nothing."""
    def broad():
        return AggregateNode(
            SelectNode(ScanNode(FACT), Between("m", 0, 9)), ("q",), _aggs()[1:2]
        )

    index, provider, consumer = FoldIndex(), broad(), broad()
    assert index.candidates(consumer) == []
    index.add(provider, "p")
    index.discard("p")
    assert index.candidates(consumer) == []
    for node in (provider, consumer):
        assert getattr(node, "_fold_summary", None) is None
    index.add(provider, "p")
    assert index.candidates(consumer) == ["p"]
    assert provider._fold_summary is not None


def test_index_probe_points_vacuous_regions_and_incomparable_values():
    """The documented edge cases, pinned: a closed single-point interval
    probes as a value (exactly as ``_Constraint.contains`` decides it),
    int/float equality follows ``==``, and a consumer whose region is
    empty, or whose values cannot be compared, gets the whole bucket."""
    def grouped_where(pred):  # grouped by m, so residuals on m may fold
        return AggregateNode(SelectNode(ScanNode(FACT), pred), ("m",), _aggs()[1:2])

    one_two = grouped_where(InSet("m", (1, 2)))
    three = grouped_where(InSet("m", (3,)))
    unkeyed = grouped_where(Cmp(">=", "m", 0))
    other_shape = SortNode(SelectNode(ScanNode(FACT), InSet("m", (1, 2))), (("q", True),))
    index = _indexed([one_two, three, unkeyed, other_shape])

    def check(consumer, expect):
        found = sorted(index.candidates(consumer))
        assert found == expect
        assert {
            i
            for i, p in enumerate([one_two, three, unkeyed, other_shape])
            if fold_plan(consumer, p) is not None
        } <= set(found)

    check(grouped_where(Between("m", 1, 1)), [0, 2])
    check(grouped_where(Cmp("=", "m", 2.0)), [0, 2])
    check(grouped_where(InSet("m", (1, 2))), [0, 2])  # same signature as a provider
    check(grouped_where(Between("m", 1, 2)), [2])  # no value set holds an interval
    check(grouped_where(Cmp("!=", "m", 1)), [2])
    check(grouped_where(And(Cmp("=", "m", 1), Cmp("=", "m", 2))), [0, 1, 2])  # empty
    check(grouped_where(And(InSet("m", ("a",)), Cmp(">", "m", 1))), [0, 1, 2])  # TypeError
    assert fold_plan(grouped_where(And(Cmp("=", "m", 1), Cmp("=", "m", 2))), three) is not None


def _ref_constraint_map(parts):
    cols, opaque = {}, []
    for p in parts:
        info = _classify(p)
        if info is None:
            opaque.append(p)
            continue
        col, c = info
        merged = cols.get(col)
        if merged is None:
            cols[col] = c
        else:
            if c.lo is not None:
                merged.add_lo(c.lo, c.lo_open)
            if c.hi is not None:
                merged.add_hi(c.hi, c.hi_open)
            if c.values is not None:
                merged.add_values(c.values)
    return cols, opaque


def ref_predicate_subsumes(weak, strong):
    """``predicate_subsumes`` derived from scratch for one pair -- the
    per-pair derivation the memoized summaries replaced."""
    if weak is None:
        return True, conjuncts(strong)
    if strong is None:
        return False, []
    wconj, sconj = conjuncts(weak), conjuncts(strong)
    ssigs = {c.signature for c in sconj}
    wcols, wopaque = _ref_constraint_map(wconj)
    scols, _ = _ref_constraint_map(sconj)
    if any(o.signature not in ssigs for o in wopaque):
        return False, []
    for col, wc in wcols.items():
        sc = scols.get(col)
        if sc is None or not wc.contains(sc):
            return False, []
    wsigs = {c.signature for c in wconj}
    residual = []
    for cj in sconj:
        if cj.signature in wsigs:
            continue
        info = _classify(cj)
        if info is not None:
            col, cc = info
            wc = wcols.get(col)
            if wc is not None and cc.contains(wc):
                continue
        residual.append(cj)
    return True, residual


@settings(max_examples=300, deadline=None)
@given(pool=leaf_pools(), data=st.data())
def test_summary_based_subsumption_equals_from_scratch_derivation(pool, data):
    leaves_ = pool["d1"] + [Cmp(op, "x", v) for op, v in (("=", 1), ("=", 2), (">=", 1.0))]
    preds = st.one_of(st.none(), st.lists(st.sampled_from(leaves_), min_size=1, max_size=4).map(and_of))
    weak, strong = data.draw(preds), data.draw(preds)
    try:
        expected = ref_predicate_subsumes(weak, strong)
    except TypeError:
        # Two bounds of incomparable types on one column crashed the
        # per-pair derivation; the summary treats the conjunct as opaque.
        expected = predicate_subsumes(weak, strong)  # must not raise
    assert predicate_subsumes(weak, strong) == expected
    assert predicate_subsumes(weak, strong) == expected  # now read from the memo
