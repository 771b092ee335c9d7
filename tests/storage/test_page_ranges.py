"""Pages are row ranges of their table's column vectors.

A page keeps its table's column tuple and its bounds; the column slices a
scan or a CJOIN work item reads are built on demand.  This suite holds that
form to the per-page slices tables used to store (same vectors, same rows),
holds a dictionary slice's mask -- answered out of the owning column's memo
-- to the mask of the slice's own codes, pins the bitmap fold to its
row-at-a-time definition, and budgets what pages and selection keys keep
alive.
"""

import tracemalloc
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.ssb import generate_ssb
from repro.shard.partition import partition_table
from repro.storage.packed import DictColumn, _flags_to_mask, take_values
from repro.storage.selections import SelectionMemo
from repro.storage.table import Table
from tests.boxed import boxed_table
from tests.storage.test_columnar_properties import SCHEMA, rows_strategy
from tests.storage.test_packed_properties import typed_cols

#: Cutoffs of a ``v <= cutoff`` leaf over the suite's small-int columns.
CUTOFFS = st.integers(-6, 10)


def _tables(rows, tpp):
    """The same relation in every layout a table can hold."""
    return (
        Table("t", SCHEMA, rows, tuples_per_page=tpp),
        boxed_table("t", SCHEMA, rows, tuples_per_page=tpp),
        Table.from_columns("t", SCHEMA, typed_cols(rows), tuples_per_page=tpp),
    )


def _check_slice_masks(col, cutoff):
    """A dictionary slice's mask equals the mask of an owning column over
    the same codes, and is served from the unsliced column's memo."""
    if type(col) is not DictColumn:
        return
    key = ("le", cutoff)
    pred = lambda v: v <= cutoff  # noqa: E731
    got = col.mask_for(key, pred)
    assert got == DictColumn(col.codes, col.dictionary).mask_for(key, pred)
    assert got == sum(1 << j for j, v in enumerate(col) if pred(v))
    if col.base is not None:
        assert col.base.base is None and key in col.base._masks
        assert col.base.codes[col.start : col.start + len(col)] == col.codes


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, tpp=st.integers(1, 17), cutoff=CUTOFFS)
def test_pages_read_as_the_per_page_slices(rows, tpp, cutoff):
    for table in _tables(rows, tpp):
        vectors = table.columns()
        for i, page in enumerate(table.pages):
            start, stop = i * tpp, min((i + 1) * tpp, len(rows))
            old = tuple(col[start:stop] for col in vectors)
            assert (page.start, page.stop, len(page)) == (start, stop, stop - start)
            assert tuple(map(list, page.columns)) == tuple(map(list, old))
            assert list(page.rows) == list(zip(*old)) == rows[start:stop]
            for col, vector in zip(page.columns, vectors):
                if type(col) is DictColumn:
                    assert col.base is vector and col.start == start
                _check_slice_masks(col, cutoff)
                # CJOIN reads a page as the table's rows at the page's range.
                assert list(take_values(vector, range(start, stop))) == list(col)


@settings(max_examples=40, deadline=None)
@given(rows=rows_strategy, n_shards=st.integers(1, 4), cutoff=CUTOFFS)
def test_range_partition_page_masks_compose_offsets(rows, n_shards, cutoff):
    table = Table("fact", SCHEMA, rows, tuples_per_page=7)
    parent = table.columns()
    for shard in partition_table(table, n_shards, "range"):
        for page in shard.pages:
            for k, col in enumerate(page.columns):
                assert type(col) is DictColumn and col.base is parent[k]
                _check_slice_masks(col, cutoff)
    for shard in partition_table(table, n_shards, "hash"):
        # Hash gathers own their codes: their pages answer from them.
        assert not any(type(c) is DictColumn and c.base for c in shard.columns())
        for page in shard.pages:
            for col in page.columns:
                _check_slice_masks(col, cutoff)


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
    assert _flags_to_mask(flags) == _flags_to_mask_loop(flags)


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
