"""Tests for schemas, pages and tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.page import ColumnBatch
from repro.storage.schema import Column, Schema
from repro.storage.table import Table


def make_schema():
    return Schema([Column("a"), Column("b", "float"), Column("c", "str")], row_bytes=24)


class TestSchema:
    def test_index_lookup(self):
        s = make_schema()
        assert s.index("a") == 0
        assert s.index("c") == 2
        assert s.indices(["c", "a"]) == (2, 0)

    def test_unknown_column(self):
        with pytest.raises(KeyError, match="no column"):
            make_schema().index("zz")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Schema([Column("a"), Column("a")])

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            Column("a", "blob")

    def test_contains(self):
        s = make_schema()
        assert "b" in s
        assert "zz" not in s

    def test_concat(self):
        s1 = Schema([Column("a")], row_bytes=10)
        s2 = Schema([Column("b")], row_bytes=20)
        j = s1.concat(s2)
        assert j.names == ("a", "b")
        assert j.row_bytes == 30

    def test_concat_collision_rejected(self):
        s = Schema([Column("a")])
        with pytest.raises(ValueError):
            s.concat(s)

    def test_equality_and_hash(self):
        assert make_schema() == make_schema()
        assert hash(make_schema()) == hash(make_schema())


class TestTable:
    def test_paging(self):
        s = Schema([Column("x")], row_bytes=10)
        t = Table("t", s, [(i,) for i in range(10)], row_weight=100, tuples_per_page=4)
        assert t.num_pages == 3
        assert [len(p) for p in t.pages] == [4, 4, 2]
        assert t.page(1).rows[0] == (4,)
        assert list(t.iter_rows()) == [(i,) for i in range(10)]

    def test_real_accounting(self):
        s = Schema([Column("x")], row_bytes=10)
        t = Table("t", s, [(i,) for i in range(10)], row_weight=100)
        assert t.real_rows == 1000
        assert t.real_bytes == pytest.approx(10 * 100 * 10)

    def test_arity_mismatch(self):
        s = Schema([Column("x"), Column("y")])
        with pytest.raises(ValueError, match="arity"):
            Table("t", s, [(1,)])

    @pytest.mark.parametrize("bad", [(3, 4, 5), (3,)])
    def test_every_row_arity_is_checked(self, bad):
        # A long row past the first was silently truncated, a short one
        # raised about the column count; both name the offending row.
        s = Schema([Column("x"), Column("y")])
        with pytest.raises(ValueError, match=f"row 1 has arity {len(bad)}"):
            Table("t", s, [(1, 2), bad])

    def test_invalid_params(self):
        s = Schema([Column("x")])
        with pytest.raises(ValueError):
            Table("t", s, [], row_weight=0)
        with pytest.raises(ValueError):
            Table("t", s, [], tuples_per_page=0)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(0, 500), tpp=st.integers(1, 64))
    def test_paging_roundtrip(self, n, tpp):
        s = Schema([Column("x")])
        t = Table("t", s, [(i,) for i in range(n)], tuples_per_page=tpp)
        assert sum(len(p) for p in t.pages) == n
        assert t.num_pages == ((n + tpp - 1) // tpp if n else 0)
        assert list(t.iter_rows()) == [(i,) for i in range(n)]
        for i, p in enumerate(t.pages):
            assert p.index == i


class TestBatch:
    def test_copy_is_shallow_and_independent(self):
        b = ColumnBatch(((1, 2, 3),), [0, 2], 10, [("a",), ("b",)])
        c = b.copy()
        c.sel.append(1)
        c.tail.append(("c",))
        assert len(b) == 2
        assert len(c) == 3
        assert c.cols is b.cols and c.weight == 10
        assert list(c.rows) == [(1, "a"), (3, "b"), (2, "c")]

    def test_empty_batch_reads_empty(self):
        # Rows of arity zero ride as the tail, so the count survives; an
        # empty batch's every column read is empty.
        assert list(ColumnBatch((), [0, 1], 1.0, [(), ()]).rows) == [(), ()]
        empty = ColumnBatch(((), ()), None, 1.0)
        assert len(empty) == 0 and list(empty.column(1)) == [] and list(empty.rows) == []
