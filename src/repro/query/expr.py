"""Scalar expressions, and the one way predicates select rows.

Expressions are small immutable ASTs:

* ``compile(schema)`` -- a ``row -> value`` closure.  This is how *value*
  expressions (aggregate inputs, arithmetic) are evaluated, and the
  row-at-a-time oracle every selection kernel is held to;
* ``signature`` -- a canonical, hashable encoding used for common-sub-plan
  detection (two predicates share iff their signatures are equal);
* ``terms`` -- the number of primitive comparisons, used by the cost model
  to charge predicate-evaluation cycles.

One data plane
--------------
Every operator that filters -- consumer-side inputs, the Volcano baseline,
fold residuals, CJOIN's admission scans -- goes through
:func:`compile_selection`: ``(predicate, schema) -> (batch -> filtered
batch)``.  Scans emit :class:`~repro.storage.page.ColumnBatch` views over
packed column vectors; the selection looks at the batch it is handed and
takes the cheapest form that batch supports, always keeping exactly the
rows ``compile`` would keep, in the same order:

1. **bitmap** -- a column batch with no selection vector yet (a page view)
   whose referenced columns are all dictionary-encoded: per-column
   predicate bitmaps are memoized on the column by predicate signature, so
   recurring predicates across concurrent queries AND/OR/complement cached
   ints (this is also the only columnar form ``Or``/``Not`` have);
2. **selection vector** -- any other column batch, for predicate shapes
   with a column form (comparison against a constant, range, membership,
   conjunctions of those): each conjunct refines the previous one's
   survivor positions, and a dictionary-encoded column is filtered on its
   raw code bytes through a 256-entry pass table built once per (table,
   predicate);
3. **rows** -- row batches (what aggregates, sorts and cache replays
   emit), and column batches whose predicate has no column form: one list
   comprehension over the materialized rows, comparison inlined.

Which form runs is decided by the *data* (batch type, selection present,
column encoding), never by configuration.  The three per-node builders
behind the tiers -- ``compile_mask``, ``compile_cols``, ``compile_batch`` --
have no caller outside this module; the property suites in
``tests/query/`` and ``tests/storage/`` hold each of them to ``compile``
on arbitrary schemas and predicates.
``compile_batch(schema, indices=True)`` returns passing *indices* instead
of rows.

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

# Batch-kernel factories for single-column comparisons against a constant:
# the comparison is inlined in the comprehension (no per-row function call).
_BATCH_CMP_ROWS: dict[str, Callable[[int, Any], Callable]] = {
    "<": lambda i, v: lambda rows: [r for r in rows if r[i] < v],
    "<=": lambda i, v: lambda rows: [r for r in rows if r[i] <= v],
    "=": lambda i, v: lambda rows: [r for r in rows if r[i] == v],
    "!=": lambda i, v: lambda rows: [r for r in rows if r[i] != v],
    ">=": lambda i, v: lambda rows: [r for r in rows if r[i] >= v],
    ">": lambda i, v: lambda rows: [r for r in rows if r[i] > v],
}

_BATCH_CMP_IDX: dict[str, Callable[[int, Any], Callable]] = {
    "<": lambda i, v: lambda rows: [j for j, r in enumerate(rows) if r[i] < v],
    "<=": lambda i, v: lambda rows: [j for j, r in enumerate(rows) if r[i] <= v],
    "=": lambda i, v: lambda rows: [j for j, r in enumerate(rows) if r[i] == v],
    "!=": lambda i, v: lambda rows: [j for j, r in enumerate(rows) if r[i] != v],
    ">=": lambda i, v: lambda rows: [j for j, r in enumerate(rows) if r[i] >= v],
    ">": lambda i, v: lambda rows: [j for j, r in enumerate(rows) if r[i] > v],
}

# Column-kernel factories: evaluate over a column vector and return pass
# positions.  One pair per operator -- a full-column scan (enumerate) and a
# selection-vector refinement (indexing into the column).
_COL_CMP_FULL: dict[str, Callable[[Any], Callable]] = {
    "<": lambda v: lambda c: [j for j, x in enumerate(c) if x < v],
    "<=": lambda v: lambda c: [j for j, x in enumerate(c) if x <= v],
    "=": lambda v: lambda c: [j for j, x in enumerate(c) if x == v],
    "!=": lambda v: lambda c: [j for j, x in enumerate(c) if x != v],
    ">=": lambda v: lambda c: [j for j, x in enumerate(c) if x >= v],
    ">": lambda v: lambda c: [j for j, x in enumerate(c) if x > v],
}

_COL_CMP_SEL: dict[str, Callable[[Any], Callable]] = {
    "<": lambda v: lambda c, sel: [j for j in sel if c[j] < v],
    "<=": lambda v: lambda c, sel: [j for j in sel if c[j] <= v],
    "=": lambda v: lambda c, sel: [j for j in sel if c[j] == v],
    "!=": lambda v: lambda c, sel: [j for j in sel if c[j] != v],
    ">=": lambda v: lambda c, sel: [j for j in sel if c[j] >= v],
    ">": lambda v: lambda c, sel: [j for j in sel if c[j] > v],
}


def _col_kernel(
    i: int, full: Callable, refine: Callable, key: Any, value_pred: Callable
) -> Callable:
    """Assemble a column kernel from a full-scan and a refinement pass.

    ``key`` (the predicate's signature) and ``value_pred`` (a plain
    ``value -> bool`` closure) power the dictionary form: when the
    column arrives dictionary-encoded, the predicate is folded into a
    pass table once per (table, predicate) and pages filter on raw code
    bytes -- same survivors, same order."""

    def kernel(col_of: Callable, n: int, sel=None) -> list:
        c = col_of(i)
        if type(c) is DictColumn:
            table = c.dictionary.pass_table(key, value_pred)
            codes = c.codes
            if sel is None:
                return list(compress(range(n), codes.translate(table)))
            return [j for j in sel if table[codes[j]]]
        return full(c) if sel is None else refine(c, sel)

    return kernel


def _mask_kernel(i: int, key: Any, value_pred: Callable) -> Callable:
    """A leaf mask kernel: the predicate's bitmap over a full batch,
    memoized per dictionary column by predicate signature.  Returns
    ``None`` at call time for non-dictionary columns (caller falls back
    to selection-vector kernels)."""

    def kernel(col_of: Callable, n: int) -> int | None:
        c = col_of(i)
        if type(c) is DictColumn:
            return c.mask_for(key, value_pred)
        return None

    return kernel


# ----------------------------------------------------------------------
# Shared schema->column-index resolution (one home for the itemgetter
# construction the stages used to repeat).
# ----------------------------------------------------------------------
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
    bitmap / selection-vector / row form is picked per batch."""
    mask_kernel = predicate.compile_mask(schema)
    col_kernel = predicate.compile_cols(schema)
    row_kernel = predicate.compile_batch(schema)

    def select(batch):
        if isinstance(batch, ColumnBatch):
            if mask_kernel is not None and batch.sel is None:
                # Unselected view: the columns are the base vectors (mask
                # bit p == base row p).  A selected batch would have to
                # gather its columns just to find they are not encoded.
                mask = mask_kernel(batch.column, len(batch))
                if mask is not None:
                    return batch.take_mask(mask)
            if col_kernel is not None:
                return batch.take(col_kernel(batch.column, len(batch)))
        return Batch(row_kernel(batch.rows), batch.weight)

    return select


class Expr:
    """Base class for scalar expressions."""

    # Expressions are immutable; :mod:`repro.query.subsume` memoizes its
    # per-predicate classification here so it dies with the expression.
    __slots__ = ("_fold_summary",)

    def compile(self, schema: "Schema") -> Callable[[tuple], Any]:
        raise NotImplementedError

    def compile_batch(
        self, schema: "Schema", indices: bool = False
    ) -> Callable[[Sequence[tuple]], list]:
        """Row kernel ``rows -> passing rows`` (``indices=True``: passing
        indices), the third tier of :func:`compile_selection`.

        Generic fallback: wrap the row closure.  Subclasses with a hot
        shape override this with a fused one-pass comprehension."""
        pred = self.compile(schema)
        if indices:
            return lambda rows: [i for i, r in enumerate(rows) if pred(r)]
        return lambda rows: [r for r in rows if pred(r)]

    def compile_cols(self, schema: "Schema") -> Callable | None:
        """Selection-vector kernel ``(col_of, n, sel=None) -> passing
        positions`` -- ``col_of(i)`` yields logical column ``i``, ``sel``
        restricts evaluation to a previous pass's survivors -- or ``None``
        when this shape has no column form."""
        return None

    def compile_mask(self, schema: "Schema") -> Callable | None:
        """Bitmap kernel ``(col_of, n) -> int bitmap | None`` over a full
        batch, or ``None`` when this shape has no mask form.  The kernel
        itself returns ``None`` at call time when a referenced column is
        not dictionary-encoded."""
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


class Cmp(Expr):
    """Binary comparison ``left <op> right``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr | str, right: Expr | Any):
        if op not in _CMP_OPS:
            raise ValueError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = Col(left) if isinstance(left, str) else left
        self.right = right if isinstance(right, Expr) else Const(right)

    def compile(self, schema: "Schema") -> Callable[[tuple], bool]:
        f = _CMP_OPS[self.op]
        lhs = self.left.compile(schema)
        rhs = self.right.compile(schema)
        return lambda row: f(lhs(row), rhs(row))

    def compile_batch(
        self, schema: "Schema", indices: bool = False
    ) -> Callable[[Sequence[tuple]], list]:
        if isinstance(self.left, Col) and isinstance(self.right, Const):
            factory = (_BATCH_CMP_IDX if indices else _BATCH_CMP_ROWS)[self.op]
            return factory(schema.index(self.left.name), self.right.value)
        return super().compile_batch(schema, indices)

    def _value_pred(self) -> Callable[[Any], bool]:
        f = _CMP_OPS[self.op]
        v = self.right.value  # type: ignore[union-attr]
        return lambda x: f(x, v)

    def compile_cols(self, schema: "Schema") -> Callable | None:
        if isinstance(self.left, Col) and isinstance(self.right, Const):
            v = self.right.value
            return _col_kernel(
                schema.index(self.left.name),
                _COL_CMP_FULL[self.op](v),
                _COL_CMP_SEL[self.op](v),
                self.signature,
                self._value_pred(),
            )
        return None

    def compile_mask(self, schema: "Schema") -> Callable | None:
        if isinstance(self.left, Col) and isinstance(self.right, Const):
            return _mask_kernel(
                schema.index(self.left.name), self.signature, self._value_pred()
            )
        return None

    @property
    def signature(self) -> tuple:
        return ("cmp", self.op, self.left.signature, self.right.signature)

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()


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

    def compile_batch(
        self, schema: "Schema", indices: bool = False
    ) -> Callable[[Sequence[tuple]], list]:
        i = schema.index(self.col)
        lo, hi = self.lo, self.hi
        if indices:
            return lambda rows: [j for j, r in enumerate(rows) if lo <= r[i] <= hi]
        return lambda rows: [r for r in rows if lo <= r[i] <= hi]

    def compile_cols(self, schema: "Schema") -> Callable | None:
        lo, hi = self.lo, self.hi
        return _col_kernel(
            schema.index(self.col),
            lambda c: [j for j, x in enumerate(c) if lo <= x <= hi],
            lambda c, sel: [j for j in sel if lo <= c[j] <= hi],
            self.signature,
            lambda x: lo <= x <= hi,
        )

    def compile_mask(self, schema: "Schema") -> Callable | None:
        lo, hi = self.lo, self.hi
        return _mask_kernel(
            schema.index(self.col), self.signature, lambda x: lo <= x <= hi
        )

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
    nation/city options used by the paper's selectivity experiments."""

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

    def compile_batch(
        self, schema: "Schema", indices: bool = False
    ) -> Callable[[Sequence[tuple]], list]:
        i = schema.index(self.col)
        vals = frozenset(self.values)
        if indices:
            return lambda rows: [j for j, r in enumerate(rows) if r[i] in vals]
        return lambda rows: [r for r in rows if r[i] in vals]

    def compile_cols(self, schema: "Schema") -> Callable | None:
        vals = frozenset(self.values)
        return _col_kernel(
            schema.index(self.col),
            lambda c: [j for j, x in enumerate(c) if x in vals],
            lambda c, sel: [j for j in sel if c[j] in vals],
            self.signature,
            lambda x: x in vals,
        )

    def compile_mask(self, schema: "Schema") -> Callable | None:
        vals = frozenset(self.values)
        return _mask_kernel(schema.index(self.col), self.signature, lambda x: x in vals)

    @property
    def signature(self) -> tuple:
        return ("in", self.col, self.values)

    @property
    def terms(self) -> int:
        return 1  # a hashed IN probe costs about one comparison

    def columns(self) -> frozenset[str]:
        return frozenset((self.col,))


class And(Expr):
    """Conjunction of predicates."""

    __slots__ = ("parts",)

    def __init__(self, *parts: Expr):
        if not parts:
            raise ValueError("And needs at least one part")
        self.parts = tuple(parts)

    def compile(self, schema: "Schema") -> Callable[[tuple], bool]:
        fns = [p.compile(schema) for p in self.parts]
        if len(fns) == 1:
            return fns[0]
        return lambda row: all(f(row) for f in fns)

    def compile_batch(
        self, schema: "Schema", indices: bool = False
    ) -> Callable[[Sequence[tuple]], list]:
        """Conjunction kernel: cascade the parts' kernels, each pass
        filtering the survivors of the previous one (selection order is
        preserved, so the result equals row-at-a-time evaluation)."""
        if len(self.parts) == 1:
            return self.parts[0].compile_batch(schema, indices)
        kernels = [p.compile_batch(schema) for p in self.parts]
        if not indices:
            def filter_rows(rows: Sequence[tuple]) -> list:
                out = rows
                for k in kernels:
                    if not out:
                        break
                    out = k(out)
                return out if isinstance(out, list) else list(out)

            return filter_rows

        first = self.parts[0].compile_batch(schema, indices=True)
        rest = [p.compile(schema) for p in self.parts[1:]]

        def filter_indices(rows: Sequence[tuple]) -> list:
            sel = first(rows)
            for pred in rest:
                if not sel:
                    break
                sel = [j for j in sel if pred(rows[j])]
            return sel

        return filter_indices

    def compile_cols(self, schema: "Schema") -> Callable | None:
        """Conjunction column kernel: each part refines the previous pass's
        selection vector (same survivors, same order as row-wise)."""
        kernels = [p.compile_cols(schema) for p in self.parts]
        if any(k is None for k in kernels):
            return None
        if len(kernels) == 1:
            return kernels[0]

        def kernel(col_of: Callable, n: int, sel=None) -> list:
            for k in kernels:
                sel = k(col_of, n, sel)
                if not sel:
                    return sel
            return sel

        return kernel

    def compile_mask(self, schema: "Schema") -> Callable | None:
        """Conjunction mask kernel: AND the parts' memoized bitmaps --
        one int ``&`` per part instead of a selection cascade."""
        kernels = [p.compile_mask(schema) for p in self.parts]
        if any(k is None for k in kernels):
            return None
        if len(kernels) == 1:
            return kernels[0]

        def kernel(col_of: Callable, n: int) -> int | None:
            m = kernels[0](col_of, n)
            if m is None:
                return None
            for k in kernels[1:]:
                if not m:
                    return 0
                part = k(col_of, n)
                if part is None:
                    return None
                m &= part
            return m

        return kernel

    @property
    def signature(self) -> tuple:
        # Canonical conjunct order: conjunction is commutative, so the
        # signature sorts part signatures (by repr -- part tuples mix value
        # types) to make ``a>1 AND b<2`` and ``b<2 AND a>1`` hash identically.
        # Evaluation order still follows author order (``compile*`` above).
        return ("and",) + tuple(sorted((p.signature for p in self.parts), key=repr))

    @property
    def terms(self) -> int:
        return sum(p.terms for p in self.parts)

    def columns(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for p in self.parts:
            out |= p.columns()
        return out


class Or(Expr):
    """Disjunction of predicates."""

    __slots__ = ("parts",)

    def __init__(self, *parts: Expr):
        if not parts:
            raise ValueError("Or needs at least one part")
        self.parts = tuple(parts)

    def compile(self, schema: "Schema") -> Callable[[tuple], bool]:
        fns = [p.compile(schema) for p in self.parts]
        if len(fns) == 1:
            return fns[0]
        return lambda row: any(f(row) for f in fns)

    def compile_mask(self, schema: "Schema") -> Callable | None:
        """Disjunction mask kernel: OR the parts' memoized bitmaps."""
        kernels = [p.compile_mask(schema) for p in self.parts]
        if any(k is None for k in kernels):
            return None
        if len(kernels) == 1:
            return kernels[0]

        def kernel(col_of: Callable, n: int) -> int | None:
            m = 0
            for k in kernels:
                part = k(col_of, n)
                if part is None:
                    return None
                m |= part
            return m

        return kernel

    @property
    def signature(self) -> tuple:
        return ("or",) + tuple(p.signature for p in self.parts)

    @property
    def terms(self) -> int:
        return sum(p.terms for p in self.parts)

    def columns(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for p in self.parts:
            out |= p.columns()
        return out


class Not(Expr):
    """Negation."""

    __slots__ = ("part",)

    def __init__(self, part: Expr):
        self.part = part

    def compile(self, schema: "Schema") -> Callable[[tuple], bool]:
        f = self.part.compile(schema)
        return lambda row: not f(row)

    def compile_mask(self, schema: "Schema") -> Callable | None:
        """Negation mask kernel: complement within the batch's n bits."""
        inner = self.part.compile_mask(schema)
        if inner is None:
            return None

        def kernel(col_of: Callable, n: int) -> int | None:
            m = inner(col_of, n)
            if m is None:
                return None
            return ((1 << n) - 1) ^ m

        return kernel

    @property
    def signature(self) -> tuple:
        return ("not", self.part.signature)

    @property
    def terms(self) -> int:
        return self.part.terms

    def columns(self) -> frozenset[str]:
        return self.part.columns()


class Arith(Expr):
    """Binary arithmetic, e.g. ``l_extendedprice * l_discount`` in Q1."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr | str, right: Expr | Any):
        if op not in _ARITH_OPS:
            raise ValueError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = Col(left) if isinstance(left, str) else left
        self.right = right if isinstance(right, Expr) else Const(right)

    def compile(self, schema: "Schema") -> Callable[[tuple], Any]:
        f = _ARITH_OPS[self.op]
        lhs = self.left.compile(schema)
        rhs = self.right.compile(schema)
        return lambda row: f(lhs(row), rhs(row))

    @property
    def signature(self) -> tuple:
        return ("arith", self.op, self.left.signature, self.right.signature)

    @property
    def terms(self) -> int:
        return 1

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()
