"""Scalar expressions, and the one way predicates select rows.

Expressions are small immutable ASTs:

* ``compile(schema)`` -- a ``row -> value`` closure.  This is how *value*
  expressions (aggregate inputs, arithmetic) are evaluated, and the
  row-at-a-time oracle every selection form is held to;
* ``signature`` -- a canonical, hashable encoding used for common-sub-plan
  detection (two predicates share iff their signatures are equal);
* ``terms`` -- the number of primitive comparisons, used by the cost model
  to charge predicate-evaluation cycles.

One selection kernel
--------------------
A predicate describes itself once.  A *leaf* -- ``Cmp(Col, Const)``,
``Between``, ``InSet`` -- states ``leaf() -> (column, value -> bool)`` and
nothing else (its ``signature`` is the memo key); ``And`` / ``Or`` state
only how their parts combine.  Every operator that filters --
consumer-side inputs, the Volcano baseline, fold residuals, CJOIN's
admission scans -- goes through :func:`compile_selection`, which derives
all three evaluation forms from that description here and lets the *data*
(batch type, selection present, column encoding -- never configuration)
pick one per batch, always keeping exactly the rows ``compile`` would
keep, in the same order (decision record with the measured selection
traffic: "One selection entry point" in ``docs/performance.md``):

1. **bitmap** -- a column batch with no selection vector yet (a page view)
   whose referenced columns are all dictionary-encoded: a leaf is
   :meth:`~repro.storage.packed.DictColumn.mask_for` (memoized per page by
   signature, so a predicate recurring across concurrent queries is
   scanned once), ``And`` / ``Or`` are ``&`` / ``|`` on ints -- the only
   columnar form ``Or`` has;
2. **positions** -- any other column batch, for a leaf or a conjunction of
   leaves: each conjunct refines the previous one's survivor positions; a
   dictionary-encoded column is filtered on its raw code bytes through the
   dictionary's pass table, any other vector by the value test itself;
3. **rows** -- row batches (aggregate, sort and cache-replay output) and
   every other predicate shape: the oracle over ``.rows``.

The dictionary forms evaluate a leaf over every *distinct value* of a
column, the oracle only over the rows that reach it, so a guarded
predicate (``kind = 'num' AND val < 5`` over a mixed-type ``val``) must not
raise where the oracle answers: a pass table fails closed on ``TypeError``
(:meth:`~repro.storage.packed.Dictionary.pass_table`), the bitmap form then
declines and the positions form tests the survivors only.

The module also hosts the shared schema->column-index helpers
(:func:`column_indices`, :func:`row_key_fn`, :func:`value_column`) used by
the aggregation stage and the CJOIN distributor."""

from __future__ import annotations

import operator
from itertools import compress
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.storage.packed import DictColumn
from repro.storage.page import Batch, ColumnBatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.schema import Schema

_CMP_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    "!=": operator.ne,
    ">=": operator.ge,
    ">": operator.gt,
}

_ARITH_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}

# -- shared schema->column-index resolution ------------------------------
def column_indices(schema: "Schema", names: Sequence[str]) -> tuple[int, ...]:
    """Tuple positions of ``names`` in ``schema`` (in the given order)."""
    return tuple(schema.index(n) for n in names)


def row_key_fn(indices: Sequence[int]) -> Callable[[tuple], tuple]:
    """A ``row -> key tuple`` extractor for the given column positions.

    Keys are always tuples -- including the one-column case (callers
    concatenate them into output rows) and the empty grouping (a single
    global group) -- and multi-column extraction is a single C-level
    ``itemgetter`` call."""
    if len(indices) > 1:
        return operator.itemgetter(*indices)
    if indices:
        i = indices[0]
        return lambda r, _i=i: (r[_i],)
    return lambda r: ()


def value_column(expr: "Expr", schema: "Schema", column_of: Callable, n: int):
    """Evaluate ``expr`` as one column vector over a columnar batch.

    ``column_of(i)`` yields logical column ``i`` (position-aligned).
    Returns ``None`` when the shape has no column form (caller falls back
    to row-wise evaluation); otherwise the result equals
    ``[expr.compile(schema)(r) for r in rows]`` element for element."""
    if isinstance(expr, Col):
        return column_of(schema.index(expr.name))
    if isinstance(expr, Const):
        return [expr.value] * n
    if isinstance(expr, Arith):
        lhs = value_column(expr.left, schema, column_of, n)
        if lhs is None:
            return None
        rhs = value_column(expr.right, schema, column_of, n)
        if rhs is None:
            return None
        return list(map(_ARITH_OPS[expr.op], lhs, rhs))
    return None


def compile_selection(
    predicate: "Expr", schema: "Schema"
) -> Callable[["Batch | ColumnBatch"], "Batch | ColumnBatch"]:
    """The selection operator for ``predicate`` over batches of ``schema``:
    ``batch -> the sub-batch of passing rows`` (same rows, same order as
    filtering with ``predicate.compile``).  Pure computation -- callers
    charge the predicate cycles.  See the module docstring for how the
    bitmap / positions / row form is picked per batch."""
    bitmap = _bitmap_form(predicate, schema)
    positions = _positions_form(predicate, schema)
    keep = predicate.compile(schema)

    def select(batch):
        if isinstance(batch, ColumnBatch):
            if bitmap is not None and batch.sel is None:
                # Unselected view: the columns are the base vectors (mask
                # bit p == base row p).  A selected batch would have to
                # gather its columns just to find they are not encoded.
                mask = bitmap(batch.cols)
                if mask is not None:
                    return batch.take_mask(mask)
            if positions is not None:
                return batch.take(positions(batch.column, len(batch), None))
        return Batch(list(filter(keep, batch.rows)), batch.weight)

    return select


def _bitmap_form(expr: "Expr", schema: "Schema") -> Callable | None:
    """``cols -> int bitmap | None`` over the base vectors of an unselected
    batch (bit ``p`` = row ``p`` passes), or ``None`` when ``expr`` is not
    built from leaves and ``And`` / ``Or`` alone.  The kernel
    *declines* (returns ``None``) when a referenced column is not
    dictionary-encoded or has no pass table for the leaf: a bitmap covers
    every distinct value, so it needs the value test to answer for all."""
    leaf = expr.leaf()
    if leaf is not None:
        i, key, test = schema.index(leaf[0]), expr.signature, leaf[1]

        def leaf_bitmap(cols):
            c = cols[i]
            return c.mask_for(key, test) if type(c) is DictColumn else None

        return leaf_bitmap
    if not isinstance(expr, _Junction):
        return None
    kernels = [_bitmap_form(p, schema) for p in expr.parts]
    if None in kernels:
        return None
    conj = isinstance(expr, And)

    def combine(cols):
        m = -1 if conj else 0  # the identity of & / |
        for kernel in kernels:
            part = kernel(cols)
            if part is None:
                return None
            m = m & part if conj else m | part
            if conj and not m:
                return 0  # nothing survives: later conjuncts see no row
        return m

    return combine


def _positions_form(expr: "Expr", schema: "Schema") -> Callable | None:
    """``(col_of, n, sel) -> passing positions`` over logical columns --
    ``col_of(i)`` yields column ``i`` of an ``n``-row batch, ``sel`` (or
    ``None`` for all rows) restricts evaluation to a previous conjunct's
    survivors -- or ``None`` when ``expr`` is not a leaf or a conjunction
    of leaves.  A dictionary-encoded column is filtered on its raw code
    bytes through the pass table; without one (plain vector, typed array,
    a dictionary value the test cannot answer for) the value test runs
    over the vector, on survivors only, as the oracle would."""
    leaf = expr.leaf()
    if leaf is not None:
        i, key, test = schema.index(leaf[0]), expr.signature, leaf[1]

        def leaf_positions(col_of, n, sel):
            c = col_of(i)
            if type(c) is DictColumn:
                table = c.dictionary.pass_table(key, test)
                if table is not None:
                    codes = c.codes
                    if sel is None:
                        return list(compress(range(n), codes.translate(table)))
                    return [j for j in sel if table[codes[j]]]
            if sel is None:
                return list(compress(range(n), map(test, c)))
            return [j for j in sel if test(c[j])]

        return leaf_positions
    if not isinstance(expr, And):
        return None
    kernels = [_positions_form(p, schema) for p in expr.parts]
    if None in kernels:
        return None

    def refine(col_of, n, sel):
        for kernel in kernels:
            sel = kernel(col_of, n, sel)
            if not sel:
                break
        return sel

    return refine


class Expr:
    """Base class for scalar expressions."""

    # Expressions are immutable; :mod:`repro.query.subsume` memoizes its
    # per-predicate classification here so it dies with the expression.
    __slots__ = ("_fold_summary",)

    def compile(self, schema: "Schema") -> Callable[[tuple], Any]:
        raise NotImplementedError

    def leaf(self) -> tuple[str, Callable[[Any], bool]] | None:
        """``(column, value test)`` when this node is a predicate over the
        values of one column (``value test`` is a plain ``value -> bool``),
        else ``None``.  With :attr:`signature` as the memo key this is all
        :func:`compile_selection` needs to know about a leaf."""
        return None

    @property
    def signature(self) -> tuple:
        raise NotImplementedError

    @property
    def terms(self) -> int:
        """Number of primitive predicate terms (for cost charging)."""
        return 1

    def columns(self) -> frozenset[str]:
        raise NotImplementedError

    # Equality/hash by signature: predicates compare structurally.
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Expr) and self.signature == other.signature

    def __hash__(self) -> int:
        return hash(self.signature)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}{self.signature!r}"


class Col(Expr):
    """A column reference."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def compile(self, schema: "Schema") -> Callable[[tuple], Any]:
        # itemgetter is a single C-level call per row (no frame push).
        return operator.itemgetter(schema.index(self.name))

    @property
    def signature(self) -> tuple:
        return ("col", self.name)

    @property
    def terms(self) -> int:
        return 0

    def columns(self) -> frozenset[str]:
        return frozenset((self.name,))


class Const(Expr):
    """A literal constant."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def compile(self, schema: "Schema") -> Callable[[tuple], Any]:
        v = self.value
        return lambda row: v

    @property
    def signature(self) -> tuple:
        return ("const", self.value)

    @property
    def terms(self) -> int:
        return 0

    def columns(self) -> frozenset[str]:
        return frozenset()


class _Binary(Expr):
    """What ``Cmp`` and ``Arith`` share: ``left <op> right`` over a table of
    operators, with bare strings read as columns and bare values as
    constants."""

    __slots__ = ("op", "left", "right")

    _kind: str  # "cmp" / "arith": the signature tag
    _ops: dict[str, Callable[[Any, Any], Any]]

    def __init__(self, op: str, left: Expr | str, right: Expr | Any):
        if op not in self._ops:
            raise ValueError(f"unknown {type(self).__name__} operator {op!r}")
        self.op = op
        self.left = Col(left) if isinstance(left, str) else left
        self.right = right if isinstance(right, Expr) else Const(right)

    def compile(self, schema: "Schema") -> Callable[[tuple], Any]:
        f = self._ops[self.op]
        lhs = self.left.compile(schema)
        rhs = self.right.compile(schema)
        return lambda row: f(lhs(row), rhs(row))

    @property
    def signature(self) -> tuple:
        return (self._kind, self.op, self.left.signature, self.right.signature)

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()


class Cmp(_Binary):
    """Binary comparison ``left <op> right``."""

    __slots__ = ()
    _kind, _ops = "cmp", _CMP_OPS

    def leaf(self) -> tuple[str, Callable[[Any], bool]] | None:
        if isinstance(self.left, Col) and isinstance(self.right, Const):
            f, v = _CMP_OPS[self.op], self.right.value
            return self.left.name, lambda x: f(x, v)
        return None


class Between(Expr):
    """Inclusive range predicate ``lo <= col <= hi``."""

    __slots__ = ("col", "lo", "hi")

    def __init__(self, col: str, lo: Any, hi: Any):
        self.col = col
        self.lo = lo
        self.hi = hi

    def compile(self, schema: "Schema") -> Callable[[tuple], bool]:
        i = schema.index(self.col)
        lo, hi = self.lo, self.hi
        return lambda row: lo <= row[i] <= hi

    def leaf(self) -> tuple[str, Callable[[Any], bool]]:
        lo, hi = self.lo, self.hi
        return self.col, lambda x: lo <= x <= hi

    @property
    def signature(self) -> tuple:
        return ("between", self.col, self.lo, self.hi)

    @property
    def terms(self) -> int:
        return 2

    def columns(self) -> frozenset[str]:
        return frozenset((self.col,))


class InSet(Expr):
    """Membership predicate ``col IN (v1, v2, ...)`` -- the disjunctions of
    nation/city options used by the paper's selectivity experiments.  One
    term: a hashed IN probe costs about one comparison."""

    __slots__ = ("col", "values")

    def __init__(self, col: str, values: Sequence[Any]):
        if not values:
            raise ValueError("InSet needs at least one value")
        self.col = col
        self.values = tuple(sorted(set(values), key=repr))

    def compile(self, schema: "Schema") -> Callable[[tuple], bool]:
        i = schema.index(self.col)
        vals = frozenset(self.values)
        return lambda row: row[i] in vals

    def leaf(self) -> tuple[str, Callable[[Any], bool]]:
        return self.col, frozenset(self.values).__contains__

    @property
    def signature(self) -> tuple:
        return ("in", self.col, self.values)

    def columns(self) -> frozenset[str]:
        return frozenset((self.col,))


class _Junction(Expr):
    """What ``And`` and ``Or`` share: ordered parts, each evaluated in
    author order and only while the outcome is still open."""

    __slots__ = ("parts",)

    #: ``all`` / ``any`` -- how the parts' verdicts on one row combine
    _verdict: Callable[[Any], bool]

    def __init__(self, *parts: Expr):
        if not parts:
            raise ValueError(f"{type(self).__name__} needs at least one part")
        self.parts = tuple(parts)

    def compile(self, schema: "Schema") -> Callable[[tuple], bool]:
        fns = [p.compile(schema) for p in self.parts]
        if len(fns) == 1:
            return fns[0]
        verdict = self._verdict
        return lambda row: verdict(f(row) for f in fns)

    @property
    def terms(self) -> int:
        return sum(p.terms for p in self.parts)

    def columns(self) -> frozenset[str]:
        return frozenset().union(*(p.columns() for p in self.parts))


class And(_Junction):
    """Conjunction of predicates."""

    __slots__ = ()
    _verdict = staticmethod(all)

    @property
    def signature(self) -> tuple:
        # Canonical conjunct order: conjunction is commutative, so the
        # signature sorts part signatures (by repr -- part tuples mix value
        # types) to make ``a>1 AND b<2`` and ``b<2 AND a>1`` hash identically.
        # Evaluation order still follows author order (``compile`` above).
        return ("and",) + tuple(sorted((p.signature for p in self.parts), key=repr))


class Or(_Junction):
    """Disjunction of predicates."""

    __slots__ = ()
    _verdict = staticmethod(any)

    @property
    def signature(self) -> tuple:
        return ("or",) + tuple(p.signature for p in self.parts)


class Arith(_Binary):
    """Binary arithmetic, e.g. ``l_extendedprice * l_discount`` in Q1."""

    __slots__ = ()
    _kind, _ops = "arith", _ARITH_OPS
