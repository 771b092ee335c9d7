"""A scan batch is the table's vectors at the page's range.

Base data has one coordinate system, table positions: a page keeps its
table's column tuple and its bounds, and a scan reads it as
``ColumnBatch(table vectors, range(start, stop))`` -- nothing sliced, no
column remembering where it came from.  This suite holds that form to the
per-page slices it builds itself as the reference (same rows, same
selections, for packed, boxed and typed tables), holds the selection
kernel over each partition's dictionary columns to its own rows, pins the
bitmap fold to its row-at-a-time definition, and budgets what pages and
selection keys keep alive.
"""

import tracemalloc
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.ssb import generate_ssb
from repro.query.expr import Cmp, compile_selection, select_batch
from repro.shard.partition import partition_table
from repro.storage.packed import DictColumn, flags_to_mask, take_values
from repro.storage.page import ColumnBatch
from repro.storage.selections import SelectionMemo
from repro.storage.table import Table
from tests.boxed import boxed_table
from tests.storage.test_columnar_properties import SCHEMA, rows_strategy
from tests.storage.test_packed_properties import typed_cols

#: Cutoffs of a ``b <= cutoff`` leaf over the suite's small-int columns.
CUTOFFS = st.integers(-6, 10)


def _tables(rows, tpp):
    """The same relation in every layout a table can hold."""
    return (
        Table("t", SCHEMA, rows, tuples_per_page=tpp),
        boxed_table("t", SCHEMA, rows, tuples_per_page=tpp),
        Table.from_columns("t", SCHEMA, typed_cols(rows), tuples_per_page=tpp),
    )


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, tpp=st.integers(1, 17), cutoff=CUTOFFS)
def test_pages_read_as_the_per_page_slices(rows, tpp, cutoff):
    select = compile_selection(Cmp("<=", "b", cutoff), SCHEMA)
    for table in _tables(rows, tpp):
        vectors = table.columns()
        for i, page in enumerate(table.pages):
            start, stop = i * tpp, min((i + 1) * tpp, len(rows))
            assert (page.start, page.stop, len(page)) == (start, stop, stop - start)
            batch = page.to_batch()
            assert batch.cols is vectors and batch.sel == range(start, stop)
            assert batch.weight == page.weight and batch.tail is None
            # The reference: this page's own slice of every vector.
            sliced = ColumnBatch(tuple(col[start:stop] for col in vectors))
            assert [list(batch.column(k)) for k in range(3)] == [
                list(sliced.column(k)) for k in range(3)
            ]
            assert list(page.rows) == list(batch.rows) == list(sliced.rows) == rows[start:stop]
            # Selecting over the page range keeps the slice's rows, at
            # table positions.
            got = select_batch(select, batch)
            ref = select_batch(select, sliced)
            assert got.cols is vectors and got.sel == [start + j for j in ref.sel]
            assert list(got.rows) == list(ref.rows)
            # CJOIN reads a page the same way.
            for col, ref_col in zip(vectors, sliced.cols):
                assert list(take_values(col, range(start, stop))) == list(ref_col)


@settings(max_examples=40, deadline=None)
@given(rows=rows_strategy, n_shards=st.integers(1, 4), cutoff=CUTOFFS)
def test_range_partition_columns_mask_their_own_codes(rows, n_shards, cutoff):
    """A partition's dictionary column is filtered on its own codes: the
    bitmap form over every row and over each page keeps the partition's
    own passing rows."""
    select = compile_selection(Cmp("<=", "b", cutoff), SCHEMA)
    table = Table("fact", SCHEMA, rows, tuples_per_page=7)
    for mode in ("range", "hash"):
        for shard in partition_table(table, n_shards, mode):
            cols = shard.columns()
            assert type(cols[SCHEMA.index("b")]) is DictColumn or not shard.num_rows
            own = list(shard.iter_rows())
            assert select(cols, None) == [j for j, r in enumerate(own) if r[1] <= cutoff]
            for page in shard.pages:
                at = range(page.start, page.stop)
                assert select(cols, at) == [j for j in at if own[j][1] <= cutoff]


def _flags_to_mask_loop(flags: bytes) -> int:
    mask = 0
    bit = 1
    for f in flags:
        if f:
            mask |= bit
        bit <<= 1
    return mask


@settings(max_examples=200, deadline=None)
@given(flags=st.lists(st.integers(0, 1), max_size=600).map(bytes))
def test_flags_to_mask_equals_the_bit_loop(flags):
    assert flags_to_mask(flags) == _flags_to_mask_loop(flags)


def _held_bytes(build):
    """Bytes still allocated after ``build()`` returns (its result kept)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = build()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return out, held


def test_pages_and_selection_keys_hold_no_per_row_objects():
    tables = generate_ssb(1, 42).tables
    # Already-packed vectors pass through: what remains held is paging.
    lineorder = tables["lineorder"]
    table, held = _held_bytes(
        lambda: Table.from_columns(
            "lineorder", lineorder.schema, lineorder.columns(), lineorder.row_weight
        )
    )
    assert table.num_pages == lineorder.num_pages > 50
    assert held / table.num_pages <= 300
    fp = table.memory_footprint()
    assert 0 < fp["pages_bytes"] <= 300 * table.num_pages
    # A packed int key column's selection keys are a typed array.
    customer = tables["customer"]
    selection = SelectionMemo().select(customer, None, fold=False)
    keys, held = _held_bytes(lambda: selection.keys("c_custkey"))
    assert type(keys) is array and keys.typecode == "q"
    assert list(keys) == list(customer.columns()[0])
    assert held <= 9 * len(keys) + 512  # a boxed int alone is 28 bytes
