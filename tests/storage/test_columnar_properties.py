"""Property suite for the columnar data plane.

Holds the two invariants the column-stored pages rest on, over *arbitrary*
generated inputs:

* **Round trip** -- a table built from rows exposes exactly the transposed
  column vectors, a table built from columns exposes exactly the zipped
  row tuples, and a page built either way stores columns and derives the
  same rows.
* **Selection equivalence** -- for any predicate and data, the one
  selection kernel (``compile_selection``) over boxed vectors keeps the
  positions row-at-a-time ``Expr.compile`` evaluation keeps, in the same
  order, over every row, over a page's range and when refining a prior
  selection vector, and ``select_batch`` keeps the same rows of a column
  batch.  (``test_packed_properties`` repeats this over packed vectors.)

Plus the mask helpers (selection vector <-> int bitmap) and the shard
partitioner's row/columnar layout equivalence, which reduce to the same
two invariants.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.expr import And, Between, Cmp, InSet, Or, compile_selection, select_batch
from repro.shard.partition import assign_shards, partition_table
from repro.storage.page import ColumnBatch, ColumnPage, mask_to_sel
from repro.storage.schema import Column, Schema
from repro.storage.table import Table
from tests.boxed import boxed_table

# ----------------------------------------------------------------------
# Strategies: small-int relations over a fixed 3-column schema (values
# collide often, so equality/set predicates exercise real selections).
# ----------------------------------------------------------------------
SCHEMA = Schema([Column("a"), Column("b"), Column("c")], row_bytes=24)

rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 9), st.integers(-5, 5), st.integers(0, 3)
    ),
    max_size=120,
)

values = st.integers(-6, 10)
col_names = st.sampled_from(["a", "b", "c"])


def leaf_predicates():
    cmps = st.builds(
        Cmp, st.sampled_from(["<", "<=", "=", "!=", ">=", ">"]), col_names, values
    )
    betweens = st.builds(
        lambda c, lo, span: Between(c, lo, lo + span),
        col_names,
        values,
        st.integers(0, 6),
    )
    insets = st.builds(
        lambda c, vs: InSet(c, tuple(vs)),
        col_names,
        st.lists(values, min_size=1, max_size=4),
    )
    return st.one_of(cmps, betweens, insets)


predicates = st.recursive(
    leaf_predicates(),
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(lambda ps: And(*ps)),
        st.lists(inner, min_size=1, max_size=3).map(lambda ps: Or(*ps)),
    ),
    max_leaves=5,
)


# ----------------------------------------------------------------------
# Row <-> column round trip
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, tpp=st.integers(1, 17))
def test_row_built_table_round_trips_through_columns(rows, tpp):
    table = Table("t", SCHEMA, rows, tuples_per_page=tpp)
    expected_cols = tuple(list(c) for c in zip(*rows)) if rows else ((), (), ())
    assert tuple(list(c) for c in table.columns()) == tuple(
        list(c) for c in expected_cols
    )
    assert list(table.iter_rows()) == rows


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, tpp=st.integers(1, 17))
def test_column_built_table_round_trips_through_rows(rows, tpp):
    cols = tuple(list(c) for c in zip(*rows)) if rows else ([], [], [])
    table = Table.from_columns("t", SCHEMA, cols, tuples_per_page=tpp)
    assert list(table.iter_rows()) == rows
    assert table.num_rows == len(rows)
    # Page structure (counts, weights, bytes) matches the row constructor.
    row_table = Table("t", SCHEMA, rows, tuples_per_page=tpp)
    assert table.num_pages == row_table.num_pages
    for cp, rp in zip(table.pages, row_table.pages):
        assert list(cp.rows) == list(rp.rows)
        assert page_columns(cp) == page_columns(rp)
        assert cp.real_bytes == rp.real_bytes
        assert cp.weight == rp.weight


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(), st.integers()), min_size=1, max_size=40),
    data=st.data(),
)
def test_page_dual_cache_agrees_both_directions(rows, data):
    # min_size=1: a rowless page cannot reconstruct column arity (the
    # table layer always knows it from the schema, pages need the data).
    # One stored form: a page is a row range of column vectors, and the
    # row view is derived (then cached) on first access.
    cols = tuple(zip(*rows))
    page = ColumnPage("t", 0, cols, 0, len(rows), 1.0, 0.0)
    assert page_columns(page) == tuple(map(list, cols))
    assert page._rows is None
    assert list(page.rows) == rows
    assert page.rows is page.rows
    assert len(page) == len(rows)
    # A range of longer vectors reads as a page over that range alone.
    start = data.draw(st.integers(0, len(rows)))
    stop = data.draw(st.integers(start, len(rows)))
    part = ColumnPage("t", 1, cols, start, stop, 1.0, 0.0)
    assert page_columns(part) == tuple(list(c[start:stop]) for c in cols)
    assert list(part.rows) == rows[start:stop]
    assert len(part) == stop - start


def page_columns(page):
    """A page's columns as a scan reads them (through its batch)."""
    batch = page.to_batch()
    return tuple(list(batch.column(k)) for k in range(len(batch.cols)))


# ----------------------------------------------------------------------
# The selection kernel == row-wise predicates
# ----------------------------------------------------------------------
def boxed_cols(rows):
    return tuple(zip(*rows)) if rows else ((), (), ())


def check_selection(expr, cols, rows, sel=None):
    """The kernel over ``(cols, sel)`` keeps exactly the oracle's
    positions, in order -- and over a page's range of the same vectors,
    the oracle's positions in that range; ``select_batch`` over
    ``ColumnBatch(cols, sel)`` keeps those rows as a selection over the
    same base vectors."""
    pred = expr.compile(SCHEMA)
    kernel = compile_selection(expr, SCHEMA)
    positions = range(len(rows)) if sel is None else sel
    expected = [j for j in positions if pred(rows[j])]
    assert kernel(cols, sel) == expected
    if sel is None:
        page = range(len(rows) // 3, len(rows) - len(rows) // 4)
        assert kernel(cols, page) == [j for j in page if pred(rows[j])]
    out = select_batch(kernel, ColumnBatch(cols, sel))
    assert list(out.rows) == [rows[j] for j in expected]
    assert out.cols is cols and out.sel == expected
    return out


@settings(max_examples=120, deadline=None)
@given(rows=rows_strategy, expr=predicates)
def test_column_kernel_pass_positions_equal_row_wise(rows, expr):
    check_selection(expr, boxed_cols(rows), rows)


@settings(max_examples=120, deadline=None)
@given(rows=rows_strategy, expr=predicates, data=st.data())
def test_column_kernel_refines_selection_like_row_wise(rows, expr, data):
    keep = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    sel = [j for j, k in enumerate(keep) if k]
    check_selection(expr, boxed_cols(rows), rows, sel)


@settings(max_examples=120, deadline=None)
@given(rows=rows_strategy, expr=predicates)
def test_batch_kernel_positions_equal_row_wise(rows, expr):
    pred = expr.compile(SCHEMA)
    out = select_batch(compile_selection(expr, SCHEMA), ColumnBatch(boxed_cols(rows), None, 2.0))
    assert type(out) is ColumnBatch and out.weight == 2.0
    assert list(out.rows) == [r for r in rows if pred(r)]


# ----------------------------------------------------------------------
# Mask helpers
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(0, 80))
def test_sel_mask_round_trip(data, n):
    keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    sel = [j for j, k in enumerate(keep) if k]
    mask = sum(1 << j for j in sel)
    full = (1 << n) - 1
    assert mask_to_sel(mask, n) == sel
    assert mask & full == mask
    assert mask_to_sel(full, n) == list(range(n))


# ----------------------------------------------------------------------
# Shard partitioning: column-wise build == row-by-row reference
# ----------------------------------------------------------------------
def reference_partitions(table, n_shards, mode, salt):
    """Row-built reference: bucket the row tuples by ``assign_shards``."""
    buckets = [[] for _ in range(n_shards)]
    placement = assign_shards(table.num_rows, n_shards, mode, salt)
    for row, shard in zip(table.iter_rows(), placement):
        buckets[shard].append(row)
    return [
        boxed_table(
            table.name,
            table.schema,
            rows,
            row_weight=table.row_weight,
            tuples_per_page=table.tuples_per_page,
        )
        for rows in buckets
    ]


@settings(max_examples=40, deadline=None)
@given(
    rows=rows_strategy,
    n_shards=st.integers(1, 5),
    mode=st.sampled_from(["hash", "range"]),
    salt=st.integers(0, 3),
)
def test_partition_layouts_hold_identical_rows(rows, n_shards, mode, salt):
    table = Table("fact", SCHEMA, rows, tuples_per_page=7)
    row_parts = reference_partitions(table, n_shards, mode, salt)
    col_parts = partition_table(table, n_shards, mode, salt)
    assert len(row_parts) == len(col_parts) == n_shards
    for rp, cp in zip(row_parts, col_parts):
        assert list(cp.iter_rows()) == list(rp.iter_rows())
        assert cp.num_pages == rp.num_pages
        assert cp.real_bytes == rp.real_bytes
        assert cp.row_weight == rp.row_weight
