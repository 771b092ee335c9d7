"""Selection equivalence: ``compile_selection`` must keep exactly the rows
that row-at-a-time ``Expr.compile`` keeps, in the same order, for every
Expr shape over every batch layout.

There is one entry point and the *data* picks the form, so each form is
driven by handing ``compile_selection`` the batch that selects it: a row
``Batch`` (list or tuple of rows), and a ``ColumnBatch`` over boxed lists,
typed arrays, dictionary columns or a mix -- unselected (a page view, the
bitmap form's case) and with a preset selection vector plus a tail (what a
join hands on).

Property-style: seeded random rows (via :mod:`repro.data.rng`) plus the
corner cases the forms could plausibly get wrong -- empty input, all-pass,
all-fail, a first conjunct that kills every row."""

from array import array

import pytest

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
)
from repro.storage.packed import DictColumn, PackedNumeric, pack_column
from repro.storage.page import Batch, ColumnBatch
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
    the row oracle for it on every batch."""

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
    Cmp(">", Arith("*", "v", Const(2.0)), Const(3.0)),  # arithmetic: row form
    Cmp("<", Col("k"), Col("v")),  # non-Const rhs: row form
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


@pytest.mark.parametrize("expr", EXPRS, ids=lambda e: repr(e.signature))
@pytest.mark.parametrize("nrows", [0, 1, 7, 200])
def test_rows_kernel_matches_row_closure(expr, nrows):
    """Every layout, unselected: the selected rows are the oracle's."""
    rows = random_rows(seed=nrows + 3, n=nrows)
    pred = expr.compile(SCHEMA)
    select = compile_selection(expr, SCHEMA)
    expected = [r for r in rows if pred(r)]
    for row_batch in (Batch(rows, 3.0), Batch(tuple(rows), 3.0)):
        out = select(row_batch)
        assert type(out) is Batch and out.weight == 3.0
        assert out.rows == expected
    for name, cols in column_layouts(rows).items():
        out = select(ColumnBatch(cols, None, 3.0))
        assert list(out.rows) == expected, name
        assert out.weight == 3.0 and len(out) == len(expected)


@pytest.mark.parametrize("expr", EXPRS, ids=lambda e: repr(e.signature))
@pytest.mark.parametrize("nrows", [0, 1, 7, 200])
def test_indices_kernel_matches_row_closure(expr, nrows):
    """Pass *positions*: a column batch that stays columnar keeps the base
    columns and carries the oracle's positions as its selection vector --
    from an unselected batch, and refining a preset selection + tail."""
    rows = random_rows(seed=nrows + 11, n=nrows)
    pred = expr.compile(SCHEMA)
    select = compile_selection(expr, SCHEMA)
    for name, cols in column_layouts(rows).items():
        out = select(ColumnBatch(cols, None))
        if type(out) is ColumnBatch:
            assert out.cols is cols and out.tail is None
            assert out.sel == [j for j, r in enumerate(rows) if pred(r)], name

        batch, logical = preselected(cols, rows)
        keep = [p for p, r in enumerate(logical) if pred(r)]
        out = select(batch)
        assert list(out.rows) == [logical[p] for p in keep], name
        assert out.weight == 2.0
        if type(out) is ColumnBatch:
            assert out.cols is batch.cols
            assert out.sel == [batch.sel[p] for p in keep]
            assert out.tail == [batch.tail[p] for p in keep]


def test_kernels_accept_tuples_and_preserve_type():
    """Zero-copy batches hand the row form a *tuple* of rows; the selected
    rows must still come back as a list."""
    rows = tuple(random_rows(seed=5, n=50))
    for expr in EXPRS:
        out = compile_selection(expr, SCHEMA)(Batch(rows))
        assert isinstance(out.rows, list)


def test_all_pass_and_all_fail_extremes():
    rows = random_rows(seed=9, n=64)
    everything = compile_selection(Between("k", -1000, 1000), SCHEMA)
    nothing = compile_selection(Cmp(">", "k", 1000), SCHEMA)
    assert everything(Batch(rows)).rows == rows
    assert nothing(Batch(rows)).rows == []
    for name, cols in column_layouts(rows).items():
        assert everything(ColumnBatch(cols)).sel == list(range(64)), name
        assert nothing(ColumnBatch(cols)).sel == [], name


def test_col_compiles_to_plain_item_access():
    get = Col("v").compile(SCHEMA)
    assert get((1, 2.5, "red")) == 2.5


def test_the_data_picks_the_form():
    """Which form runs is visible in what comes back: a column batch stays
    columnar whenever the predicate has a positions form, ``Or`` stays
    columnar only as a bitmap over unselected dictionary columns, and
    everything else is the row form."""
    rows = random_rows(seed=21, n=40)
    layouts = column_layouts(rows)
    conj = compile_selection(And(Between("k", -20, 20), InSet("tag", TAGS)), SCHEMA)
    disj = compile_selection(Or(Cmp("=", "tag", "red"), Cmp(">", "k", 40)), SCHEMA)
    arith = compile_selection(Cmp("<", Col("k"), Col("v")), SCHEMA)
    for name, cols in layouts.items():
        assert type(conj(ColumnBatch(cols))) is ColumnBatch, name
        assert type(arith(ColumnBatch(cols))) is Batch, name
        assert type(disj(ColumnBatch(cols))) is (ColumnBatch if name == "dict" else Batch)
    selected, _ = preselected(layouts["dict"], rows)
    assert type(conj(selected)) is ColumnBatch
    assert type(disj(selected)) is Batch  # a selected batch has no bitmap form


# ----------------------------------------------------------------------
# Guarded predicates over a mixed-type column: the dictionary forms
# evaluate a leaf over every *distinct value*, the oracle only over the
# rows that reach it.
# ----------------------------------------------------------------------
GUARD_SCHEMA = Schema((Column("kind", "str"), Column("val", "int")))
GUARD_ROWS = [("num", 1), ("txt", "a"), ("num", 9), ("txt", "b")]


@pytest.mark.parametrize(
    "expr",
    [
        And(Cmp("=", "kind", "num"), Cmp("<", "val", 5)),
        Or(Cmp("=", "kind", "txt"), Cmp("<", "val", 5)),
    ],
    ids=["and", "or"],
)
def test_guarded_predicate_on_mixed_type_dictionary_column(expr):
    pred = expr.compile(GUARD_SCHEMA)
    expected = [r for r in GUARD_ROWS if pred(r)]
    assert expected  # the oracle answers: the guard keeps "<" off the strings
    table = Table("t", GUARD_SCHEMA, GUARD_ROWS)
    assert all(type(c) is DictColumn for c in table.columns())
    select = compile_selection(expr, GUARD_SCHEMA)
    for _ in range(2):  # second pass: served from the memoized "no table"
        assert list(select(table.pages[0].to_batch()).rows) == expected
    # An unguarded comparison raises in every form, as the oracle does.
    bare = Cmp("<", "val", 5)
    with pytest.raises(TypeError):
        [r for r in GUARD_ROWS if bare.compile(GUARD_SCHEMA)(r)]
    with pytest.raises(TypeError):
        compile_selection(bare, GUARD_SCHEMA)(table.pages[0].to_batch())
