"""Tests for the expression layer (compile / signature / terms)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.expr import And, Arith, Between, Cmp, Col, Const, InSet, Or
from repro.storage.schema import Column, Schema

SCHEMA = Schema([Column("a"), Column("b", "float"), Column("s", "str")])


def ev(expr, row):
    return expr.compile(SCHEMA)(row)


class TestCompile:
    def test_col_const(self):
        assert ev(Col("b"), (1, 2.5, "x")) == 2.5
        assert ev(Const(7), (0, 0, "")) == 7

    @pytest.mark.parametrize(
        "op,expected",
        [("<", True), ("<=", True), ("=", False), ("!=", True), (">=", False), (">", False)],
    )
    def test_cmp_ops(self, op, expected):
        assert ev(Cmp(op, "a", 5), (3, 0.0, "")) is expected

    def test_cmp_accepts_strings_as_col_and_const(self):
        assert ev(Cmp("=", "s", "x"), (0, 0.0, "x")) is True

    def test_between(self):
        e = Between("a", 2, 4)
        assert ev(e, (2, 0, "")) and ev(e, (4, 0, ""))
        assert not ev(e, (1, 0, "")) and not ev(e, (5, 0, ""))

    def test_in_set(self):
        e = InSet("s", ["x", "y"])
        assert ev(e, (0, 0, "y"))
        assert not ev(e, (0, 0, "z"))

    def test_and_or_not(self):
        e = And(Cmp(">", "a", 0), Cmp("<", "a", 10))
        assert ev(e, (5, 0, "")) and not ev(e, (11, 0, ""))
        e = Or(Cmp("=", "a", 1), Cmp("=", "a", 2))
        assert ev(e, (2, 0, "")) and not ev(e, (3, 0, ""))
        # There is no negation node: NOT (a = 1) is spelled a != 1.
        assert ev(Cmp("!=", "a", 1), (2, 0, "")) and not ev(Cmp("!=", "a", 1), (1, 0, ""))

    def test_arith(self):
        e = Arith("*", Col("b"), Arith("+", Const(1.0), Col("b")))
        assert ev(e, (0, 2.0, "")) == pytest.approx(6.0)

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            Cmp("~", "a", 1)
        with pytest.raises(ValueError):
            Arith("%", "a", 1)

    def test_empty_inset_rejected(self):
        with pytest.raises(ValueError):
            InSet("a", [])


class TestSignature:
    def test_structural_equality(self):
        assert Cmp("=", "a", 5) == Cmp("=", "a", 5)
        assert Cmp("=", "a", 5) != Cmp("=", "a", 6)
        assert hash(Between("a", 1, 2)) == hash(Between("a", 1, 2))

    def test_inset_order_insensitive(self):
        assert InSet("s", ["x", "y"]) == InSet("s", ["y", "x", "x"])

    def test_and_order_insensitive(self):
        # Conjunction is commutative, so the signature canonicalizes the
        # conjunct order: ``a AND b`` and ``b AND a`` are the same plan
        # and must share (sub-plan registry, result cache, folding).
        # Evaluation still runs in author order (short-circuit cost).
        a, b = Cmp("=", "a", 1), Cmp("=", "b", 2.0)
        assert And(a, b) == And(b, a)
        assert hash(And(a, b)) == hash(And(b, a))
        # ... but different conjunct *sets* stay distinct.
        assert And(a, b) != And(a, Cmp("=", "b", 3.0))

    def test_signatures_hashable_and_distinct(self):
        exprs = [
            Col("a"),
            Const(1),
            Cmp("<", "a", 1),
            Between("a", 0, 1),
            InSet("a", [1]),
            And(Cmp("=", "a", 1)),
            Or(Cmp("=", "a", 1)),
            Arith("+", "a", 1),
        ]
        assert len({e.signature for e in exprs}) == len(exprs)


class TestTermsAndColumns:
    def test_terms_counts(self):
        assert Cmp("=", "a", 1).terms == 1
        assert Between("a", 0, 1).terms == 2
        assert And(Cmp("=", "a", 1), Between("b", 0, 1)).terms == 3
        assert Col("a").terms == 0

    def test_columns(self):
        e = And(Cmp("=", "a", 1), Or(Cmp("<", "b", 2.0), InSet("s", ["x"])))
        assert e.columns() == {"a", "b", "s"}


class TestPropertyOracle:
    """Predicates must agree with direct Python evaluation."""

    @settings(max_examples=80, deadline=None)
    @given(
        a=st.integers(-10, 10),
        b=st.floats(-5, 5, allow_nan=False),
        lo=st.integers(-10, 10),
        hi=st.integers(-10, 10),
    )
    def test_between_oracle(self, a, b, lo, hi):
        row = (a, b, "s")
        assert ev(Between("a", lo, hi), row) == (lo <= a <= hi)

    @settings(max_examples=80, deadline=None)
    @given(a=st.integers(-5, 5), vals=st.lists(st.integers(-5, 5), min_size=1, max_size=8))
    def test_inset_oracle(self, a, vals):
        assert ev(InSet("a", vals), (a, 0.0, "")) == (a in set(vals))
