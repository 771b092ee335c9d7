"""Partitioning properties: true partition, determinism, merge equality.

Property-based (hypothesis): for ANY row count, shard count, placement
mode and salt, the assignment is a true partition of the rows; and partial
aggregates computed over ANY partition of a weighted row multiset merge to
EXACTLY the state of aggregating the whole multiset at once (the one
aggregation kernel, ``GroupTable``, sums exactly, which makes the
reduction associative and commutative -- this is the
algebraic core of the shard tier's byte-identical determinism contract).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.expr import Col
from repro.engine.stages.aggregate import GroupTable
from repro.query.merge import finalize_rows, merge_states
from repro.query.plan import AggSpec
from repro.shard import partition
from repro.shard.partition import PARTITION_MODES, assign_shards, partition_table, shard_tables
from repro.storage.page import ColumnBatch
from repro.storage.schema import Column, Schema
from repro.storage.table import Table

# ---------------------------------------------------------------------------
# assign_shards / partition_table
# ---------------------------------------------------------------------------


@given(
    n_rows=st.integers(0, 400),
    n_shards=st.integers(1, 16),
    mode=st.sampled_from(PARTITION_MODES),
    salt=st.integers(0, 2**31 - 1),
)
def test_assignment_is_a_true_partition(n_rows, n_shards, mode, salt):
    a = assign_shards(n_rows, n_shards, mode, salt)
    # Every row gets exactly one shard, and that shard exists.
    assert len(a) == n_rows
    assert all(0 <= s < n_shards for s in a)
    # Deterministic: the parent and every worker compute the same placement.
    assert a == assign_shards(n_rows, n_shards, mode, salt)


@given(n_rows=st.integers(0, 400), n_shards=st.integers(1, 16))
def test_range_mode_is_contiguous(n_rows, n_shards):
    a = assign_shards(n_rows, n_shards, "range")
    assert a == sorted(a)  # contiguous blocks, in order


_SCHEMA = Schema([Column("k", "int"), Column("v", "float")], row_bytes=16.0)


@given(
    n_rows=st.integers(0, 120),
    n_shards=st.integers(1, 8),
    mode=st.sampled_from(PARTITION_MODES),
    salt=st.integers(0, 1000),
)
@settings(max_examples=50)
def test_partition_table_preserves_rows_and_metadata(n_rows, n_shards, mode, salt):
    rows = [(i, float(i) * 0.5) for i in range(n_rows)]
    table = Table("t", _SCHEMA, rows, row_weight=1000.0, tuples_per_page=16)
    parts = partition_table(table, n_shards, mode, salt)
    assert len(parts) == n_shards
    scattered = [r for p in parts for r in p.iter_rows()]
    assert sorted(scattered) == rows  # nothing lost, nothing duplicated
    for p in parts:
        assert p.name == table.name
        assert p.schema is table.schema
        assert p.row_weight == table.row_weight


def test_shard_tables_replicates_dims_and_validates():
    dim = Table("d", _SCHEMA, [(1, 1.0)])
    fact = Table("f", _SCHEMA, [(i, 0.0) for i in range(10)])
    view = shard_tables({"f": fact, "d": dim}, "f", 0, 2, "range")
    assert view["d"] is dim  # replicated by reference
    assert view["f"].num_rows == 5
    with pytest.raises(ValueError):
        shard_tables({"f": fact}, "nope", 0, 2)
    with pytest.raises(ValueError):
        shard_tables({"f": fact}, "f", 2, 2)


@given(
    n_rows=st.integers(0, 120),
    mode=st.sampled_from(PARTITION_MODES),
    salt=st.integers(0, 1000),
    low_card=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_shard_tables_builds_only_the_requested_partition(n_rows, mode, salt, low_card):
    # Low-cardinality columns dictionary-encode, the others are typed arrays.
    rows = [(i % 7 if low_card else i, float(i % 5)) for i in range(n_rows)]
    fact = Table("f", _SCHEMA, rows, tuples_per_page=16)
    for n_shards in range(1, 5):
        parts = partition_table(fact, n_shards, mode, salt)
        for k in range(n_shards):
            built = []
            real = Table.from_columns.__func__

            def counting(cls, *args, **kwargs):
                built.append(args[0])
                return real(cls, *args, **kwargs)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(Table, "from_columns", classmethod(counting))
                view = shard_tables({"f": fact}, "f", k, n_shards, mode, salt)
            assert built == ["f"]  # one partition built, not n_shards
            got, want = view["f"], parts[k]
            assert [type(c) for c in got.columns()] == [type(c) for c in want.columns()]
            assert [list(c) for c in got.columns()] == [list(c) for c in want.columns()]
            assert got.num_pages == want.num_pages and got.real_bytes == want.real_bytes


def test_hash_placement_is_computed_once_for_every_shard(monkeypatch):
    """The shard views of one placement read one memoized assignment: the
    service computes it before its workers fork, so n workers do not hash
    every fact row n times."""
    calls = []
    real = partition.assign_shards
    monkeypatch.setattr(partition, "assign_shards", lambda *args: calls.append(args) or real(*args))
    partition.shard_rows.cache_clear()
    fact = Table("f", _SCHEMA, [(i, float(i)) for i in range(50)])
    n_shards = 4
    views = [shard_tables({"f": fact}, "f", k, n_shards, "hash", 7) for k in range(n_shards)]
    assert calls == [(50, n_shards, "hash", 7)]
    scattered = [r for view in views for r in view["f"].iter_rows()]
    assert sorted(scattered) == list(fact.iter_rows())


# ---------------------------------------------------------------------------
# the merge algebra: sharded == unsharded, exactly, for ANY partition
# ---------------------------------------------------------------------------

_AGGS = (
    AggSpec("sum", Col("v"), "s"),
    AggSpec("count", None, "n"),
    AggSpec("avg", Col("v"), "a"),
    AggSpec("min", Col("v"), "lo"),
    AggSpec("max", Col("v"), "hi"),
)

_value = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False, width=32
)
_batch = st.tuples(
    st.lists(st.tuples(st.integers(0, 3), _value), min_size=1, max_size=8),
    st.sampled_from((1.0, 2.5, 1000.0)),  # batch weight
    st.integers(0, 7),  # shard the batch lands on (mod n_shards)
)


def _table(aggs):
    return GroupTable(aggs, _SCHEMA.indices(("k",)), _SCHEMA)


def _fold(table, rows, weight):
    table.add(ColumnBatch(tuple(zip(*rows)), None, weight))


@given(batches=st.lists(_batch, max_size=12), n_shards=st.integers(1, 8))
@settings(max_examples=120)
def test_merged_partials_equal_unsharded_state_exactly(batches, n_shards):
    shards = [_table(_AGGS) for _ in range(n_shards)]
    whole = _table(_AGGS)
    for rows, weight, shard in batches:
        _fold(shards[shard % n_shards], rows, weight)
        _fold(whole, rows, weight)
    merged = merge_states(_AGGS, [s.groups for s in shards])
    # EXACT equality of the states -- not approximate: this is what makes
    # N-shard answers byte-identical to 1-shard answers.
    assert merged == whole.groups
    order = (("s", False), ("k", True))
    assert finalize_rows(("k",), _AGGS, order, merged) == finalize_rows(
        ("k",), _AGGS, order, whole.groups
    )


@given(perm=st.permutations(list(range(5))))
def test_merge_order_does_not_matter(perm):
    aggs = (AggSpec("sum", Col("v"), "s"), AggSpec("count", None, "n"))
    parts = []
    for i in range(5):
        a = _table(aggs)
        _fold(a, [(i % 2, 0.1 * (i + 1))], 3.0)
        parts.append(a.groups)
    base = merge_states(aggs, parts)
    assert merge_states(aggs, [parts[i] for i in perm]) == base
