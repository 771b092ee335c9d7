"""Property suite for packed column vectors (:mod:`repro.storage.packed`).

Holds the invariants packed column storage rests on, over
*arbitrary* generated inputs:

* **Round trip** -- ``decode(encode(col)) == col`` element for element,
  with exact types preserved (``1`` / ``1.0`` / ``True`` never alias);
  slices, gathers and iteration agree with the boxed column.
* **Selection equivalence** -- for any predicate and data,
  ``compile_selection`` over *packed* vectors (dictionary columns, typed
  arrays) keeps exactly the positions row-at-a-time evaluation keeps, in
  the same order; over unselected dictionary columns every generated
  shape is answered from the memoized per-column bitmaps.
* **Partition-layout equality** -- shard partitions of a packed-built
  table hold row-for-row the same data as partitions of a boxed-built
  table, for either placement mode and any shard count, and range
  partitions of typed arrays ship zero bytes (they are views).
"""

from array import array
from math import copysign

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.shard.partition import partition_shipping, partition_table
from repro.storage.packed import (
    DICT_MAX_CARD,
    DictColumn,
    PackedNumeric,
    as_list,
    column_nbytes,
    gather_column,
    pack_column,
)
from repro.storage.page import ColumnBatch, mask_to_sel
from repro.storage.schema import Column, Schema
from repro.storage.table import Table
from tests.boxed import boxed_table
from tests.storage.test_columnar_properties import (
    SCHEMA,
    check_selection,
    predicates,
    reference_partitions,
    rows_strategy,
)


def is_packed(col) -> bool:
    return type(col) in (DictColumn, PackedNumeric)


# ----------------------------------------------------------------------
# Strategies.  The small-int relations and predicates of the columnar
# suite (values collide often -> dictionary encoding, real selections),
# plus value soups for the round-trip laws.
# ----------------------------------------------------------------------
#: Values a column might hold: exact-type round-tripping is part of the
#: contract, so mix ints, bools, floats and strings in one column.
scalar = st.one_of(
    st.integers(-(2**70), 2**70),  # includes ints that overflow array('q')
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=True),
    st.text(max_size=6),
    st.none(),
)


def packed_cols(rows):
    """The tightest layout: these small-int columns dictionary-encode."""
    cols = tuple(list(c) for c in zip(*rows)) if rows else ([], [], [])
    return tuple(pack_column(col, cd.kind) for col, cd in zip(cols, SCHEMA.columns))


def typed_cols(rows):
    """The same relation as typed arrays (what high-cardinality numeric
    columns pack to): no dictionary, so no bitmap and no pass table."""
    cols = zip(*rows) if rows else ([], [], [])
    return tuple(PackedNumeric(array("q", col), "q") for col in cols)


# ----------------------------------------------------------------------
# Round trip: encode -> decode is the identity, with exact types.
# ----------------------------------------------------------------------
def same_value(a, b) -> bool:
    """Exact identity of value: same type, equal, and -- for floats -- the
    same sign (``-0.0 == 0.0``, yet they are different data)."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return (a == b and copysign(1.0, a) == copysign(1.0, b)) or (a != a and b != b)
    return a == b


@settings(max_examples=120, deadline=None)
@given(col=st.lists(scalar, max_size=100), kind=st.sampled_from(["int", "float", "str"]))
@example(col=[0.0, -0.0, 1.0, -0.0], kind="float")
@example(col=[-0.0, 0.0], kind="int")
def test_pack_column_round_trips_exactly(col, kind):
    packed = pack_column(col, kind)
    decoded = list(as_list(packed))
    assert len(decoded) == len(col)
    for orig, back in zip(col, decoded):
        assert same_value(back, orig)


def test_signed_zeros_stay_apart_packed_and_boxed():
    schema = Schema([Column("v", "float")])
    rows = [(0.0,), (-0.0,), (2.5,), (-0.0,)]
    packed_t = Table("t", schema, rows)
    boxed_t = boxed_table("t", schema, rows)
    assert type(packed_t.columns()[0]) is DictColumn
    for got in (packed_t.iter_rows(), boxed_t.iter_rows()):
        assert [str(v) for (v,) in got] == ["0.0", "-0.0", "2.5", "-0.0"]


def test_a_full_dictionary_has_no_code_for_the_second_zero():
    col = [float(i) for i in range(1, DICT_MAX_CARD)] + [0.0, -0.0]
    packed = pack_column(col, "float")
    assert type(packed) is PackedNumeric
    assert [str(v) for v in packed] == [str(v) for v in col]


@settings(max_examples=80, deadline=None)
@given(col=st.lists(scalar, max_size=100), data=st.data())
def test_packed_slice_gather_and_iteration_agree_with_boxed(col, data):
    packed = pack_column(col, "int")
    n = len(col)
    assert len(packed) == n
    assert list(packed) == col
    assert [packed[j] for j in range(n)] == col
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))
    assert list(packed[lo:hi]) == col[lo:hi]
    idx = data.draw(st.lists(st.integers(0, n - 1), max_size=40)) if n else []
    assert list(gather_column(packed, idx)) == [col[j] for j in idx]


@settings(max_examples=40, deadline=None)
@given(base=st.integers(-1000, 1000), n=st.integers(257, 400))
def test_high_cardinality_ints_pack_as_typed_arrays(base, n):
    col = [base + j for j in range(n)]  # card > DICT_MAX_CARD
    packed = pack_column(col, "int")
    assert type(packed) is PackedNumeric and packed.typecode == "q"
    assert as_list(packed) == col
    view = packed[7 : n - 3]
    assert type(view.data) is memoryview  # zero-copy slice
    assert list(view) == col[7 : n - 3]
    fcol = [float(v) / 2.0 for v in col]
    fpacked = pack_column(fcol, "float")
    assert type(fpacked) is PackedNumeric and fpacked.typecode == "d"
    assert as_list(fpacked) == fcol


@settings(max_examples=60, deadline=None)
@given(col=st.lists(st.integers(0, 30), min_size=1, max_size=120))
def test_low_cardinality_columns_dictionary_encode(col):
    packed = pack_column(col, "int")
    assert type(packed) is DictColumn
    assert len(packed.dictionary.values) == len({v for v in col}) <= DICT_MAX_CARD
    assert as_list(packed) == col
    # All slices/gathers share one Dictionary object (memoized pass
    # tables and masks are computed once per table).
    assert packed[: len(col) // 2].dictionary is packed.dictionary
    assert packed.gather([0]).dictionary is packed.dictionary


@settings(max_examples=60, deadline=None)
@given(
    col=st.lists(st.integers(0, 12), min_size=1, max_size=120),
    cutoff=st.integers(-1, 13),
)
def test_dictionary_mask_matches_row_wise_predicate(col, cutoff):
    packed = pack_column(col, "int")
    assert type(packed) is DictColumn
    pred = lambda v: v <= cutoff  # noqa: E731
    expected = [j for j, v in enumerate(col) if pred(v)]
    mask = packed.mask_for(("test-le", cutoff), pred)
    assert mask_to_sel(mask, len(col)) == expected
    # Memoized: the second call must return the identical mask without
    # re-evaluating (hand it a predicate that would change the answer).
    assert packed.mask_for(("test-le", cutoff), lambda v: False) == mask


# ----------------------------------------------------------------------
# Selection equivalence over PACKED vectors.
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(rows=rows_strategy, expr=predicates)
def test_column_kernel_on_packed_equals_row_wise(rows, expr):
    check_selection(expr, packed_cols(rows), rows)
    check_selection(expr, typed_cols(rows), rows)


@settings(max_examples=120, deadline=None)
@given(rows=rows_strategy, expr=predicates, data=st.data())
def test_column_kernel_on_packed_refines_selection_like_row_wise(rows, expr, data):
    keep = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    sel = [j for j, k in enumerate(keep) if k]
    check_selection(expr, packed_cols(rows), rows, sel)
    check_selection(expr, typed_cols(rows), rows, sel)


@settings(max_examples=120, deadline=None)
@given(rows=rows_strategy, expr=predicates)
def test_mask_kernel_on_packed_equals_row_wise(rows, expr):
    """Unselected dictionary columns take the bitmap form for every shape
    built from leaves and And / Or (all that ``predicates``
    generates): the result stays columnar, and a leaf's bitmap is left
    memoized on its column under the predicate's signature."""
    cols = packed_cols(rows)
    assert all(type(c) is DictColumn for c in cols)
    out = check_selection(expr, cols, rows)
    assert type(out) is ColumnBatch
    leaf = expr.leaf()
    if leaf is not None:
        def unreachable(v):
            raise AssertionError("the bitmap was not memoized")

        memo = cols[SCHEMA.index(leaf[0])].mask_for(expr.signature, unreachable)
        assert memo == sum(1 << j for j in out.sel)
        assert mask_to_sel(memo, len(rows)) == out.sel


# ----------------------------------------------------------------------
# Table integration: packed and boxed builds are indistinguishable.
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(rows=rows_strategy, tpp=st.integers(1, 17))
def test_packed_table_round_trips_rows_and_columns(rows, tpp):
    packed_t = Table("t", SCHEMA, rows, tuples_per_page=tpp)
    boxed_t = boxed_table("t", SCHEMA, rows, tuples_per_page=tpp)
    assert list(packed_t.iter_rows()) == rows == list(boxed_t.iter_rows())
    assert packed_t.num_pages == boxed_t.num_pages
    for pp, bp in zip(packed_t.pages, boxed_t.pages):
        assert list(pp.rows) == list(bp.rows)
        assert tuple(map(list, pp.columns)) == tuple(map(list, bp.columns))
        assert pp.real_bytes == bp.real_bytes and pp.weight == bp.weight
    if rows:
        assert all(is_packed(c) for c in packed_t.columns())


@settings(max_examples=40, deadline=None)
@given(
    rows=rows_strategy,
    n_shards=st.integers(1, 5),
    mode=st.sampled_from(["hash", "range"]),
    salt=st.integers(0, 3),
)
def test_partition_layouts_equal_packed_vs_boxed(rows, n_shards, mode, salt):
    packed_t = Table("fact", SCHEMA, rows, tuples_per_page=7)
    boxed_t = boxed_table("fact", SCHEMA, rows, tuples_per_page=7)
    packed_parts = partition_table(packed_t, n_shards, mode, salt)
    boxed_parts = partition_table(boxed_t, n_shards, mode, salt)
    row_parts = reference_partitions(boxed_t, n_shards, mode, salt)
    assert len(packed_parts) == len(boxed_parts) == n_shards
    for pp, bp, rp in zip(packed_parts, boxed_parts, row_parts):
        assert list(pp.iter_rows()) == list(bp.iter_rows()) == list(rp.iter_rows())
        assert pp.num_pages == bp.num_pages == rp.num_pages
        assert pp.real_bytes == bp.real_bytes == rp.real_bytes
        # Shards of a packed parent inherit packed layouts.
        if pp.num_rows:
            assert all(is_packed(c) for c in pp.columns())


@settings(max_examples=30, deadline=None)
@given(base=st.integers(0, 100), n=st.integers(258, 350), n_shards=st.integers(1, 4))
def test_range_partitions_of_typed_arrays_ship_zero_bytes(base, n, n_shards):
    """Range partitions slice packed buffers into ``memoryview`` views --
    the scatter accounting must see zero shipped bytes for them, while
    hash gathers ship the full gathered buffers."""
    schema = Schema([Column("k")], row_bytes=8)
    col = [base + j for j in range(n)]  # card > 256 -> array('q')
    table = Table.from_columns("fact", schema, (col,))
    assert type(table.columns()[0]) is PackedNumeric
    for shard in partition_table(table, n_shards, "range", 0):
        assert partition_shipping(shard)["shipped_bytes"] == 0
    hashed = partition_table(table, n_shards, "hash", 0)
    assert sum(partition_shipping(s)["shipped_bytes"] for s in hashed) == 8 * n


@settings(max_examples=30, deadline=None)
@given(col=st.lists(st.integers(0, 9), min_size=64, max_size=512))
def test_packed_column_smaller_than_boxed(col):
    """The whole point: at page-scale lengths a packed low-cardinality
    column is strictly smaller than the boxed list (the dictionary's
    fixed overhead only matters on columns of a handful of rows)."""
    packed = pack_column(col, "int")
    assert is_packed(packed)
    assert column_nbytes(packed, "int") < column_nbytes(list(col), "int")


def test_mask_to_sel_matches_naive_reference():
    for mask in (0, 1, 0b1010, (1 << 64) - 1, 1 << 200, 0b1001 << 63):
        for n in (0, 1, 8, 63, 64, 65, 201):
            naive = [j for j in range(n) if mask >> j & 1]
            assert mask_to_sel(mask, n) == naive


def test_bool_int_float_never_alias_in_one_column():
    col = [1, 1.0, True, 0, 0.0, False, "1"]
    packed = pack_column(col, "int")
    decoded = as_list(packed)
    assert [type(v) for v in decoded] == [type(v) for v in col]
    assert all(a is b or a == b for a, b in zip(decoded, col))


def test_array_q_rejects_bool_coercion():
    # A column of genuine bools must not silently become array('q') 0/1s.
    col = [True, False] * 200  # card 2 -> dictionary wins anyway
    packed = pack_column(col, "int")
    assert type(packed) is DictColumn
    assert as_list(packed) == col
    # Force past the dictionary: distinct ints with a stray bool.
    col2 = list(range(300)) + [True]
    packed2 = pack_column(col2, "int")
    assert type(packed2) is list  # faithful fallback, not a 1
    assert packed2[-1] is True


def test_huge_ints_fall_back_to_boxed():
    col = list(range(280)) + [2**70]
    packed = pack_column(col, "int")
    assert type(packed) is list
    assert packed == col


def test_pack_column_passes_through_already_packed():
    pn = PackedNumeric(array("q", range(300)), "q")
    assert pack_column(pn, "int") is pn
    dc = pack_column([1, 2, 1], "int")
    assert pack_column(dc, "int") is dc
