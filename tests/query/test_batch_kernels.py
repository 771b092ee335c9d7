"""Selection equivalence: the one selection kernel (``compile_selection``)
must keep exactly the rows that row-at-a-time ``Expr.compile`` keeps, in
the same order, for every Expr shape over every column layout and every
shape of ``at``.

There is one kernel and the *data* picks the form, so each form is driven
by handing the kernel the columns and positions that select it: boxed
lists, typed arrays, dictionary columns or a mix, at every row, at a
page's range (the bitmap form's case over dictionary columns) and at a
sorted subset; and, through ``select_batch``, a ``ColumnBatch`` with a
preset selection vector plus a tail (what a join hands on).

Property-style: seeded random rows (via :mod:`repro.data.rng`) plus the
corner cases the forms could plausibly get wrong -- empty input, all-pass,
all-fail, a first conjunct that kills every row."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.rng import make_rng
from repro.query.expr import (
    And,
    Arith,
    Between,
    Cmp,
    Col,
    Const,
    Expr,
    InSet,
    Or,
    compile_selection,
    select_batch,
)
from repro.storage.packed import DictColumn, PackedNumeric, pack_column
from repro.storage.page import ColumnBatch
from repro.storage.schema import Column, Schema
from repro.storage.table import Table

SCHEMA = Schema(
    (
        Column("k", "int"),
        Column("v", "float"),
        Column("tag", "str"),
    )
)

TAGS = ("red", "green", "blue", "cyan")


def random_rows(seed: int, n: int) -> list[tuple]:
    rng = make_rng(seed, "batch-kernels")
    return [
        (rng.randrange(-50, 50), rng.uniform(-10.0, 10.0), rng.choice(TAGS))
        for _ in range(n)
    ]


class Not(Expr):
    """A predicate shape the selection kernels know nothing about (the
    package has no negation node): ``compile_selection`` must fall back to
    the oracle for it on every shape of ``at``."""

    __slots__ = ("part",)

    def __init__(self, part: Expr):
        self.part = part

    def compile(self, schema):
        f = self.part.compile(schema)
        return lambda row: not f(row)

    @property
    def signature(self) -> tuple:
        return ("not", self.part.signature)

    def columns(self) -> frozenset[str]:
        return self.part.columns()


# Every Expr shape: leaves (Cmp on Col-vs-Const for all six operators,
# Between, InSet), conjunctions of leaves, and the shapes with no positions
# form (Or, an unknown node, Cmp over Arith, non-Col/Const comparisons).
EXPRS = [
    Cmp("<", "k", 0),
    Cmp("<=", "k", -10),
    Cmp("=", "tag", "red"),
    Cmp("!=", "tag", "blue"),
    Cmp(">=", "v", 2.5),
    Cmp(">", "k", 49),  # near-all-fail
    Between("k", -5, 5),
    Between("v", -100.0, 100.0),  # all-pass
    InSet("tag", ["red", "blue"]),
    InSet("k", [1]),
    And(Cmp(">", "k", -50)),  # single-part And collapses to its part
    And(Between("k", -20, 20), InSet("tag", TAGS)),
    And(Cmp(">", "v", 0.0), Cmp("<", "v", 5.0), Cmp("!=", "tag", "green")),
    And(Cmp(">", "k", 100), Between("v", 0, 1)),  # first part kills all rows
    Or(Cmp("=", "tag", "red"), Cmp(">", "k", 40)),
    Not(Between("k", 0, 100)),
    Cmp(">", Arith("*", "v", Const(2.0)), Const(3.0)),  # arithmetic: the oracle
    Cmp("<", Col("k"), Col("v")),  # non-Const rhs: the oracle
    And(Or(Cmp("=", "tag", "red"), Cmp("=", "tag", "blue")), Cmp(">", "k", 0)),
]


# ----------------------------------------------------------------------
# Column layouts of one relation: what decides the form at run time.
# ----------------------------------------------------------------------
def _boxed(rows):
    return tuple(list(c) for c in zip(*rows)) if rows else ([], [], [])


def _typed(col, code):
    return PackedNumeric(array(code, col), code)


def _encoded(col):
    packed = pack_column(col, "str")
    assert type(packed) is DictColumn
    return packed


LAYOUTS = {
    "boxed": lambda k, v, tag: (k, v, tag),
    "typed": lambda k, v, tag: (_typed(k, "q"), _typed(v, "d"), tag),
    "dict": lambda k, v, tag: (_encoded(k), _encoded(v), _encoded(tag)),
    "mixed": lambda k, v, tag: (_typed(k, "q"), _typed(v, "d"), _encoded(tag)),
}


def column_layouts(rows):
    return {name: build(*_boxed(rows)) for name, build in LAYOUTS.items()}


def preselected(cols, rows):
    """A batch as a join would hand it on: ``k`` and ``v`` still base
    columns behind a selection vector (with a repeated position, as a
    multi-match probe produces), ``tag`` riding in the tail.  Returns the
    batch and the logical rows it stands for."""
    n = len(rows)
    sel = sorted([j for j in range(n) if j % 3 != 1] + list(range(min(n, 2))))
    tail = [(rows[j][2],) for j in sel]
    return ColumnBatch(cols[:2], sel, 2.0, tail), [rows[j] for j in sel]


def at_shapes(n):
    """Every shape of ``at`` the kernel takes over ``n`` rows: every row,
    a page's range, and a sorted subset."""
    return {
        "all": None,
        "page": range(n // 4, n - n // 3),
        "subset": [j for j in range(n) if j % 3 != 1],
    }


@pytest.mark.parametrize("expr", EXPRS, ids=lambda e: repr(e.signature))
@pytest.mark.parametrize("nrows", [0, 1, 7, 200])
def test_rows_kernel_matches_row_closure(expr, nrows):
    """Every layout, every shape of ``at``: the kernel keeps the oracle's
    positions, and a batch keeps the oracle's rows."""
    rows = random_rows(seed=nrows + 3, n=nrows)
    pred = expr.compile(SCHEMA)
    select = compile_selection(expr, SCHEMA)
    expected = [r for r in rows if pred(r)]
    out = select_batch(select, ColumnBatch(tuple(zip(*rows)) or ((), (), ()), None, 3.0))
    assert type(out) is ColumnBatch and out.weight == 3.0
    assert list(out.rows) == expected
    for name, cols in column_layouts(rows).items():
        out = select_batch(select, ColumnBatch(cols, None, 3.0))
        assert list(out.rows) == expected, name
        assert out.weight == 3.0 and len(out) == len(expected)
        for shape, at in at_shapes(nrows).items():
            among = range(nrows) if at is None else at
            assert select(cols, at) == [j for j in among if pred(rows[j])], (name, shape)


@pytest.mark.parametrize("expr", EXPRS, ids=lambda e: repr(e.signature))
@pytest.mark.parametrize("nrows", [0, 1, 7, 200])
def test_indices_kernel_matches_row_closure(expr, nrows):
    """Pass *positions*: a selected batch keeps the base columns and
    carries the oracle's positions as its selection vector -- from an
    unselected batch, from a page's range, and refining a preset
    selection + tail."""
    rows = random_rows(seed=nrows + 11, n=nrows)
    pred = expr.compile(SCHEMA)
    select = compile_selection(expr, SCHEMA)
    for name, cols in column_layouts(rows).items():
        out = select_batch(select, ColumnBatch(cols, None))
        assert out.cols is cols and out.tail is None
        assert out.sel == [j for j, r in enumerate(rows) if pred(r)], name

        page = at_shapes(nrows)["page"]
        out = select_batch(select, ColumnBatch(cols, page))
        assert out.cols is cols and out.sel == [j for j in page if pred(rows[j])], name

        batch, logical = preselected(cols, rows)
        keep = [p for p, r in enumerate(logical) if pred(r)]
        out = select_batch(select, batch)
        assert list(out.rows) == [logical[p] for p in keep], name
        assert out.weight == 2.0
        assert out.cols is batch.cols
        assert out.sel == [batch.sel[p] for p in keep]
        assert out.tail == [batch.tail[p] for p in keep]


#: Row relations for the differential below: small ints collide often.
relations = st.lists(
    st.tuples(st.integers(-50, 50), st.integers(-10, 10).map(float), st.sampled_from(TAGS)),
    max_size=90,
)


def draw_at(data, n):
    """``None``, a contiguous range, or a sorted subset of ``range(n)``."""
    kind = data.draw(st.sampled_from(["all", "page", "subset"]))
    if kind == "all":
        return None
    if kind == "page":
        start = data.draw(st.integers(0, n))
        return range(start, data.draw(st.integers(start, n)))
    return sorted(data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)))


@settings(max_examples=200, deadline=None)
@given(
    rows=relations,
    expr=st.sampled_from(EXPRS),
    layout=st.sampled_from(sorted(LAYOUTS)),
    data=st.data(),
)
def test_one_kernel_matches_the_row_closure(rows, expr, layout, data):
    """The one kernel, over every layout and every shape of ``at``, keeps
    exactly the positions ``predicate.compile`` keeps over the rows."""
    at = draw_at(data, len(rows))
    cols = LAYOUTS[layout](*_boxed(rows))
    pred = expr.compile(SCHEMA)
    among = range(len(rows)) if at is None else at
    assert compile_selection(expr, SCHEMA)(cols, at) == [j for j in among if pred(rows[j])]


def test_kernels_accept_tuples_and_preserve_type():
    """Transposed rows are tuple columns; every form keeps a column batch
    whose rows come back as a list."""
    rows = tuple(random_rows(seed=5, n=50))
    for expr in EXPRS:
        out = select_batch(compile_selection(expr, SCHEMA), ColumnBatch(tuple(zip(*rows)), None, 1.0))
        assert type(out) is ColumnBatch and isinstance(out.rows, list)


def test_all_pass_and_all_fail_extremes():
    rows = random_rows(seed=9, n=64)
    everything = compile_selection(Between("k", -1000, 1000), SCHEMA)
    nothing = compile_selection(Cmp(">", "k", 1000), SCHEMA)
    batch = ColumnBatch(tuple(zip(*rows)), None, 1.0)
    assert list(select_batch(everything, batch).rows) == rows
    assert list(select_batch(nothing, batch).rows) == []
    for name, cols in column_layouts(rows).items():
        for at in (None, range(64)):
            assert everything(cols, at) == list(range(64)), name
            assert nothing(cols, at) == [], name


def test_col_compiles_to_plain_item_access():
    get = Col("v").compile(SCHEMA)
    assert get((1, 2.5, "red")) == 2.5


def oracle_rows(expr, run) -> list[tuple]:
    """The rows ``run(kernel)`` handed the oracle (none: a columnar form
    ran).  Only the oracle calls the predicate's compiled row closure."""
    seen: list[tuple] = []
    real = type(expr).compile

    def spy(self, schema):
        keep = real(self, schema)
        return lambda row: seen.append(row) or keep(row)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(type(expr), "compile", spy)
        kernel = compile_selection(expr, SCHEMA)
    run(kernel)
    return seen


def test_the_data_picks_the_form():
    """Which form runs is visible in what it reads: the kernel stays
    columnar whenever the predicate has a positions form, ``Or`` stays
    columnar only as a bitmap over a contiguous run of dictionary columns,
    and everything else is the oracle -- over tuples of the predicate's
    own columns only."""
    rows = random_rows(seed=21, n=40)
    layouts = column_layouts(rows)
    conj = And(Between("k", -20, 20), InSet("tag", TAGS))
    disj = Or(Cmp("=", "tag", "red"), Cmp(">", "k", 40))
    arith = Cmp("<", Col("k"), Col("v"))
    subset = list(range(0, 40, 3))
    for name, cols in layouts.items():
        for at in (None, range(5, 30), subset):
            at_cols = lambda kernel: kernel(cols, at)  # noqa: E731
            assert not oracle_rows(conj, at_cols), name
            seen = oracle_rows(arith, at_cols)
            assert seen and all(len(r) == 2 for r in seen), name  # (k, v), no tag
            bitmap = name == "dict" and type(at) is not list
            assert (not oracle_rows(disj, at_cols)) is bitmap, (name, at)
    # A bitmap leaves its leaves' pass tables memoized on the dictionary.
    assert Cmp("=", "tag", "red").signature in layouts["dict"][2].dictionary._pass_tables
    # A batch with a tail hands over its gathered columns: no bitmap.
    batch, _ = preselected(layouts["dict"], rows)
    in_batch = lambda kernel: select_batch(kernel, batch)  # noqa: E731
    assert not oracle_rows(conj, in_batch)
    assert oracle_rows(disj, in_batch)


# ----------------------------------------------------------------------
# Guarded predicates over a mixed-type column: the dictionary forms
# evaluate a leaf over every *distinct value*, the oracle only over the
# rows that reach it.
# ----------------------------------------------------------------------
GUARD_SCHEMA = Schema((Column("kind", "str"), Column("val", "int")))
GUARD_ROWS = [("num", 1), ("txt", "a"), ("num", 9), ("txt", "b")]
GUARDED = {
    "and": And(Cmp("=", "kind", "num"), Cmp("<", "val", 5)),
    "or": Or(Cmp("=", "kind", "txt"), Cmp("<", "val", 5)),
}


@pytest.mark.parametrize("expr", list(GUARDED.values()), ids=list(GUARDED))
def test_guarded_predicate_on_mixed_type_dictionary_column(expr):
    pred = expr.compile(GUARD_SCHEMA)
    expected = [r for r in GUARD_ROWS if pred(r)]
    assert expected  # the oracle answers: the guard keeps "<" off the strings
    table = Table("t", GUARD_SCHEMA, GUARD_ROWS)
    assert all(type(c) is DictColumn for c in table.columns())
    select = compile_selection(expr, GUARD_SCHEMA)
    for _ in range(2):  # second pass: served from the memoized "no table"
        assert list(select_batch(select, table.pages[0].to_batch()).rows) == expected
    # An unguarded comparison raises in every form, as the oracle does.
    bare = Cmp("<", "val", 5)
    with pytest.raises(TypeError):
        [r for r in GUARD_ROWS if bare.compile(GUARD_SCHEMA)(r)]
    with pytest.raises(TypeError):
        select_batch(compile_selection(bare, GUARD_SCHEMA), table.pages[0].to_batch())


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.one_of(
            st.tuples(st.just("num"), st.integers(0, 9)),
            st.tuples(st.just("txt"), st.sampled_from("abc")),
        ),
        max_size=60,
    ),
    guard=st.sampled_from(sorted(GUARDED)),
    boxed=st.booleans(),
    data=st.data(),
)
def test_guarded_kernel_fails_closed_at_every_shape_of_at(rows, guard, boxed, data):
    """``kind = 'num' AND val < 5`` (and its ``Or`` twin) over a mixed-type
    ``val``, dictionary-encoded or boxed: the kernel answers wherever the
    oracle does, with the oracle's positions."""
    expr = GUARDED[guard]
    at = draw_at(data, len(rows))
    cols = tuple(list(c) for c in zip(*rows)) if rows else ([], [])
    if not boxed:
        cols = tuple(pack_column(c, cd.kind) for c, cd in zip(cols, GUARD_SCHEMA.columns))
    pred = expr.compile(GUARD_SCHEMA)
    among = range(len(rows)) if at is None else at
    expected = [j for j in among if pred(rows[j])]
    assert compile_selection(expr, GUARD_SCHEMA)(cols, at) == expected
