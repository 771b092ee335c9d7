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
* **Roll-up exactness** -- re-aggregating a provider's finalized groups
  into a coarser grouping equals direct aggregation of the consumer,
  value-for-value (exact ``Fraction`` arithmetic) and in the same
  emission order.

Plus the canonicalization satellite: :func:`normalize` never changes the
selected rows, is idempotent, and maps any conjunct permutation to one
signature.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.query.expr import And, Between, Cmp, InSet, Not, Or
from repro.query.plan import AggregateNode, AggSpec, ScanNode, SelectNode
from repro.query.subsume import (
    FoldPlan,
    FoldPlanner,
    ResidualOperator,
    and_of,
    conjuncts,
    fold_plan,
    normalize,
    predicate_subsumes,
    split_range,
)
from repro.storage.schema import Column, Schema
from repro.storage.table import Table

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


@settings(max_examples=120, deadline=None)
@given(pred=predicates, rows=rows_strategy)
def test_split_range_is_exact(pred, rows):
    decomposed = split_range(pred)
    if decomposed is None:
        return
    col, lo, hi, residual = decomposed
    rebuilt = and_of([Between(col, lo, hi)] + conjuncts(residual))
    assert passing(rebuilt, rows) == passing(pred, rows)


# ----------------------------------------------------------------------
# Normalization (canonical conjunct form)
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(parts=conj_lists, rows=rows_strategy, data=st.data())
def test_normalize_is_canonical_and_semantics_preserving(parts, rows, data):
    perm = data.draw(st.permutations(parts))
    p1, p2 = and_of(parts), and_of(perm)
    n1, n2 = normalize(p1), normalize(p2)
    # One canonical signature for every author ordering...
    assert n1.signature == n2.signature
    # ...that selects exactly the original rows and is a fixpoint.
    assert passing(n1, rows) == passing(p1, rows)
    assert normalize(n1).signature == n1.signature


@settings(max_examples=80, deadline=None)
@given(parts=conj_lists, rows=rows_strategy)
def test_normalize_handles_negation_and_disjunction(parts, rows):
    pred = Not(Or(and_of(parts), Cmp("=", "a", 0)))
    assert passing(normalize(pred), rows) == passing(pred, rows)


# ----------------------------------------------------------------------
# Roll-up re-aggregation
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


GROUP_SUBSETS = [("a", "b"), ("a",), ("b",), ()]


@settings(max_examples=120, deadline=None)
@given(
    rows=rows_strategy,
    weak=maybe_predicates,
    extra=st.lists(leaves(st.sampled_from(["a", "b"])), max_size=3),
    consumer_groups=st.sampled_from(GROUP_SUBSETS),
    agg_mask=st.integers(1, 15),
)
def test_rollup_reaggregation_equals_direct(
    rows, weak, extra, consumer_groups, agg_mask
):
    """Fold a consumer aggregate into a provider grouped strictly finer:
    the ResidualOperator's absorb/finalize over the provider's finalized
    groups must equal direct aggregation of the consumer's input, exactly
    (Fraction arithmetic) and in the same emission order."""
    aggs = _aggs()
    consumer_aggs = tuple(a for i, a in enumerate(aggs) if agg_mask >> i & 1)
    table = Table("t", SCHEMA, rows, packed=False)

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
    op = ResidualOperator(plan, provider.schema)
    if op.regrouping:
        op.absorb(provider_out)
        folded = op.finalize()
    else:
        folded = op.apply(provider_out)
    direct = direct_agg(
        [rows[i] for i in passing(strong, rows)], consumer_groups, consumer_aggs
    )
    assert folded == direct


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, weak=maybe_predicates, extra=conj_lists)
def test_rollup_residual_on_nongroup_column_is_rejected(rows, weak, extra):
    """A residual conjunct on a column the provider did not group by can't
    run over finalized groups; fold_plan must refuse rather than guess."""
    aggs = _aggs()
    table = Table("t", SCHEMA, rows, packed=False)
    scan = ScanNode(table)
    strong_extra = and_of(conjuncts(weak) + extra + [Cmp(">", "c", 1)])
    provider = AggregateNode(
        scan if weak is None else SelectNode(scan, weak), ("a", "b"), aggs
    )
    consumer = AggregateNode(SelectNode(scan, strong_extra), ("a",), aggs[:1])
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
    table = Table("t", SCHEMA, [(1, 2, 3)], packed=False)
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
