"""The one aggregation kernel (:class:`GroupTable`) against the reference
evaluator's independent per-row loop (exact ``Fraction`` sums, rounded
once), and its memory budget.

Every engine folds its groups through ``engine/stages/aggregate.py``: the
aggregate stage, CJOIN's shared aggregation, the Volcano baseline and the
shard workers.  The engines' integration tests reach the kernel only
through plans, and the workload's plans almost always take its one-sum
fast path.  Here the
kernel is called directly on generated batches -- spec tuples mixing sum,
count, avg, min and max over column, arithmetic and row-closure
expressions, several batches of different (int and float) weights,
selection vectors, empty batches, an empty group-by -- and must give the
reference's rows in the reference's order with the reference's Python
types.

The budget tests count what a group and an idle shared pages list keep
alive, so the layout is pinned by a count rather than a wall clock: a
group is its key tuple plus one list of ``2 * len(specs)`` slots, and an
SPL's lock queues its waiters in a plain list like its conditions do.
The table's result is built as columns: no row tuple per group."""

import gc
import itertools
import math
import sys
import tracemalloc
from fractions import Fraction

import pytest

from hypothesis import example, given
from hypothesis import strategies as st

from repro.baselines.reference import _final, _new_acc, _update
from repro.engine.spl import SharedPagesList
from repro.engine.stages.aggregate import GroupTable
from repro.query.expr import Arith, Cmp, Col, Const
from repro.query.plan import AggSpec
from repro.sim import Simulator
from repro.storage.page import ColumnBatch
from repro.storage.schema import Column, Schema

SCHEMA = Schema([Column("g"), Column("s", "str"), Column("a"), Column("b", "float")])

#: Value expressions by the path ``GroupTable.add`` reads them through: a
#: column, an arithmetic column form, and a comparison, which has no
#: column form and falls back to its row closure.
NUMERIC = {
    "a": Col("a"),
    "b": Col("b"),
    "a*b": Arith("*", "a", Col("b")),
    "b-1": Arith("-", "b", Const(1)),
    "a>2": Cmp(">", "a", 2),
}
#: min/max also take the string column.
ORDERED = dict(NUMERIC, s=Col("s"))

rows_st = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.sampled_from(("x", "y", "z")),
        st.integers(-3, 9),
        st.sampled_from((0.5, -1.25, 3.0, 1e-3, 7.75)),
    ),
    max_size=12,
)
weight_st = st.sampled_from((1, 3, 1.0, 0.5, 2.5, 1000.0))


@st.composite
def spec_st(draw, i):
    func = draw(st.sampled_from(("sum", "count", "avg", "min", "max")))
    if func == "count":
        expr = draw(st.sampled_from((None, Col("a"))))
    else:
        exprs = ORDERED if func in ("min", "max") else NUMERIC
        expr = exprs[draw(st.sampled_from(sorted(exprs)))]
    return AggSpec(func, expr, f"v{i}")


@st.composite
def specs_st(draw):
    n = draw(st.integers(1, 5))
    return tuple(draw(spec_st(i)) for i in range(n))


@st.composite
def batches_st(draw):
    """(rows, weight, selection) per batch; a selection keeps a sorted
    subset of the rows, as a filtered column batch does."""
    out = []
    for _ in range(draw(st.integers(1, 4))):
        rows = draw(rows_st)
        sel = None
        if rows and draw(st.booleans()):
            sel = sorted(draw(st.sets(st.integers(0, len(rows) - 1))))
        out.append((rows, draw(weight_st), sel))
    return out


def _column_batch(rows, weight, sel):
    cols = tuple(list(c) for c in zip(*rows)) if rows else tuple([] for _ in SCHEMA.columns)
    return ColumnBatch(cols, sel, weight)


def kernel(batches, group_by, specs):
    table = GroupTable(specs, SCHEMA.indices(group_by), SCHEMA)
    for rows, weight, sel in batches:
        table.add(_column_batch(rows, weight, sel))
    out = table.result()
    assert out.weight == 1.0 and len(out.cols) == len(group_by) + len(specs)
    return list(out.rows)


def reference(batches, group_by, specs):
    """The reference evaluator's per-row accumulators, one batch weight
    at a time."""
    group_idx = [SCHEMA.index(c) for c in group_by]
    fns = [a.expr.compile(SCHEMA) if a.expr is not None else None for a in specs]
    groups: dict = {}
    for rows, weight, sel in batches:
        for r in rows if sel is None else [rows[p] for p in sel]:
            key = tuple(r[i] for i in group_idx)
            accs = groups.get(key)
            if accs is None:
                accs = groups[key] = [_new_acc(a) for a in specs]
            for acc, spec, fn in zip(accs, specs, fns):
                _update(acc, spec, fn, r, weight)
    return [
        key + tuple(_final(acc, spec) for acc, spec in zip(accs, specs))
        for key, accs in groups.items()
    ]


def typed(rows):
    return [tuple((type(v), v) for v in row) for row in rows]


ONE_SUM = (AggSpec("sum", Col("b"), "v0"),)
FIVE = (
    AggSpec("sum", Col("b"), "v0"),
    AggSpec("count", None, "v1"),
    AggSpec("avg", Arith("*", "a", Col("b")), "v2"),
    AggSpec("min", Col("s"), "v3"),
    AggSpec("max", Cmp(">", "a", 2), "v4"),
)
FIVE_ON_B = (
    AggSpec("sum", Col("b"), "v0"),
    AggSpec("avg", Col("b"), "v1"),
    AggSpec("count", None, "v2"),
    AggSpec("min", Col("b"), "v3"),
    AggSpec("max", Col("b"), "v4"),
)
# Groups first seen in the middle of a batch, a second batch of another
# weight type, and an empty batch in between.
MID = [
    ([(1, "x", 1, 0.5), (2, "y", 4, 3.0), (1, "z", 7, -1.25)], 1, None),
    ([], 2.5, None),
    ([(3, "x", 2, 7.75), (2, "y", -3, 1e-3), (4, "z", 9, 0.5)], 2.5, [1, 2]),
]


@given(batches=batches_st(), group_by=st.sampled_from(((), ("g",), ("g", "s"))), specs=specs_st())
@example(batches=MID, group_by=("g",), specs=ONE_SUM)  # the fast path
@example(batches=MID, group_by=("g", "s"), specs=(AggSpec("avg", Col("a"), "v0"),))
@example(batches=MID, group_by=(), specs=ONE_SUM)  # one sum, no group-by: generic
@example(batches=MID, group_by=("s",), specs=FIVE)
@example(batches=MID, group_by=(), specs=FIVE)
def test_kernel_equals_reference_loop(batches, group_by, specs):
    assert typed(kernel(batches, group_by, specs)) == typed(reference(batches, group_by, specs))


#: A row-order float sum of these products is not the correctly rounded
#: one: at weight 3.0, 3e16 + 3.0 rounds the 3.0 away before -3e16 cancels.
CANCELLING = (1e16, 1.0, -1e16, 0.1)


@pytest.mark.parametrize("specs", [ONE_SUM, FIVE_ON_B], ids=["one-sum", "five"])
def test_row_order_and_batch_splits_do_not_change_a_bit(specs):
    w = 3.0
    rows = [(1, "x", k, v) for k, v in enumerate(CANCELLING)]
    want = reference([(rows, w, None)], ("g",), specs)
    exact = Fraction(0)
    for v in CANCELLING:
        exact += Fraction(v * w)
    assert want[0][1] == float(exact) != sum(v * w for v in CANCELLING)
    for perm in itertools.permutations(rows):
        for cut in range(len(perm) + 1):
            batches = [(list(perm[:cut]), w, None), ([], w, None), (list(perm[cut:]), w, None)]
            assert typed(kernel(batches, ("g",), specs)) == typed(want)


@pytest.mark.parametrize(
    "values, total, mean",
    [
        ((1e308, 1e308, -1e308), 1e308, 1e308 / 3),  # a float sum overflows on the way
        ((1e308, 1e308), math.inf, 1e308),  # only the sum rounds past the largest float
        ((1.0, math.inf, 2.5), math.inf, math.inf),
        ((math.inf, 1e308, -math.inf), math.nan, math.nan),
        ((math.nan, 1.0, -1.0), math.nan, math.nan),
    ],
)
def test_overflow_nan_and_infinities_do_not_depend_on_row_order(values, total, mean):
    specs = (AggSpec("sum", Col("b"), "v0"), AggSpec("avg", Col("b"), "v1"))
    for perm in itertools.permutations(values):
        rows = [(1, "x", 0, v) for v in perm]
        ((_, *got),) = kernel([(rows, 1.0, None)], ("g",), specs)
        assert [repr(v) for v in got] == [repr(total), repr(mean)]


def test_an_int_weight_keeps_an_int_count():
    rows = kernel(MID[:1], ("g",), (AggSpec("count", None, "n"), AggSpec("sum", Col("a"), "t")))
    assert rows == [(1, 2, 8.0), (2, 1, 4.0)]
    assert all(type(r[1]) is int and type(r[2]) is float for r in rows)


# ----------------------------------------------------------------------
# Budget: what a new group and an idle SPL keep alive.
# ----------------------------------------------------------------------
N = 4096


def _blocks_per(make):
    """``sys.getallocatedblocks()`` growth per item while ``make(N)``'s
    result is alive."""
    gc.collect()
    before = sys.getallocatedblocks()
    kept = make(N)
    gc.collect()
    grown = sys.getallocatedblocks() - before
    del kept
    return grown / N


def _groups_of(specs):
    # Distinct int keys and one shared float value: nothing per row is
    # boxed inside the fold but the key tuple, the group and its results.
    batch = ColumnBatch((list(range(N)), [0.5] * N), None, 1.0)
    schema = Schema([Column("k"), Column("v", "float")])

    def make(n):
        table = GroupTable(specs, (0,), schema)
        table.add(batch)
        assert len(table.groups) == n
        return table

    return make


def test_a_one_sum_group_is_its_key_and_one_slot_list():
    # Key tuple 1 block, the [sum, count] list 2 (object + items), and
    # the float sum 1 (a sum's count slot stays None).  A group object
    # holding four per-spec lists took 12.
    specs = (AggSpec("sum", Col("v"), "s"),)
    assert _blocks_per(_groups_of(specs)) < 5.5


def test_a_five_spec_group_is_its_key_and_one_slot_list():
    # Key 1 + list 2 + the sums of sum and avg; a first count is the
    # batch weight itself, and min and max hold the batch's own values.
    # A group object with four per-spec lists took 15.
    specs = (
        AggSpec("sum", Col("v"), "s"),
        AggSpec("count", None, "c"),
        AggSpec("avg", Col("v"), "a"),
        AggSpec("min", Col("v"), "lo"),
        AggSpec("max", Col("v"), "hi"),
    )
    assert _blocks_per(_groups_of(specs)) < 8.5


def test_a_result_allocates_columns_not_rows():
    # The result of N one-sum groups is its key column and its sum column:
    # one pointer per group each, the values themselves already live in
    # the groups.  Building one row tuple per group and transposing the
    # rows peaked at about 168 bytes a group.
    table = _groups_of((AggSpec("sum", Col("v"), "s"),))(N)
    gc.collect()
    tracemalloc.start()
    try:
        out = table.result()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(out.rows) == [(k, 0.5) for k in range(N)]
    assert peak / N < 40


def _spls(n):
    sim = Simulator()
    return [SharedPagesList(sim, max_pages=4) for _ in range(n)]


def test_an_idle_spl_allocates_only_small_blocks():
    # An idle SPL is its own object, its lock and two conditions, their
    # empty waiter lists and names: 17 small blocks.  A lock queue held in
    # a deque took one more small block plus a preallocated ~0.5 KiB block
    # outside the small-object allocator per lock (so invisible to the
    # block count; counted here from tracemalloc's per-allocation traces).
    assert _blocks_per(_spls) < 17.5
    gc.collect()
    tracemalloc.start()
    try:
        kept = _spls(N)
        large = [t for t in tracemalloc.take_snapshot().traces if t.size > 512]
    finally:
        tracemalloc.stop()
    del kept
    assert len(large) < N // 100
