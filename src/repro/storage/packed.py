"""Packed column vectors: typed arrays and dictionary-encoded columns.

How tables store their column vectors: instead of tuples/lists of *boxed*
Python objects, column vectors are held as

* :class:`PackedNumeric` -- an ``array.array`` of machine ints (``'q'``)
  or doubles (``'d'``), 8 bytes per value.  Slicing goes through
  ``memoryview`` so shard range-partitions are **views** over the parent
  buffer (zero copies, fork-COW friendly);
* :class:`DictColumn` -- dictionary encoding for low-cardinality columns
  (at most :data:`DICT_MAX_CARD` distinct values): a ``bytes`` code
  vector (1 byte per row) plus a shared, interned :class:`Dictionary`
  value table.  All slices and gathers of a column share one
  ``Dictionary`` object, so anything memoized on it -- notably predicate
  *pass tables* -- is computed once per table and reused by every page,
  shard and concurrent query (the Shared Arrangements idea applied to
  predicate evaluation state).

Selection on a dictionary column never touches decoded values: a
predicate is evaluated once per **distinct value** into a 256-byte pass
table, then a whole page is filtered with ``codes.translate(table)`` (a
single C call) + ``itertools.compress`` -- or, by the selection kernel,
folded into an int bitmap of the page's rows (:func:`flags_to_mask`) so
conjunctions and disjunctions AND/OR single ints.  Pages are read at
table positions, so the only slices of a dictionary column are the shard
tier's range partitions: plain copies of their codes.

Decoding contract: ``decode(encode(col)) == col`` element for element --
values round-trip exactly (dictionary columns return the *original*
interned objects; ``'q'``/``'d'`` arrays reproduce machine ints and
doubles bit-for-bit).  Values whose type would not survive (huge ints,
int/float/bool aliasing across a column, unhashable values) simply fall
back to a plain boxed list; the packed layer is an opportunistic
representation, never a semantic change.  Simulated CPU/IO charges are
computed from row counts, which packing does not alter, so simulated
metrics are bit-identical packed or boxed (the golden suite holds both
modes to that).
"""

from __future__ import annotations

import sys
from array import array
from itertools import compress, repeat
from math import copysign
from operator import itemgetter
from typing import Any, Callable, Iterator, Sequence

__all__ = [
    "DICT_MAX_CARD",
    "Dictionary",
    "DictColumn",
    "PackedNumeric",
    "column_nbytes",
    "flags_to_mask",
    "gather_column",
    "pack_column",
    "pack_columns",
    "take_values",
]

#: Maximum distinct values for dictionary encoding (codes are one byte).
DICT_MAX_CARD = 256

_ZEROS_256 = bytes(256)

#: The array typecode that stores a column kind unboxed.
_TYPECODES = {"int": "q", "float": "d"}


class Dictionary:
    """An interned value table shared by every slice/gather of a column.

    ``values`` keeps first-occurrence order (a second sign of float zero,
    if any, goes last), so codes -- and therefore everything derived from
    them -- are a pure function of the original column.
    ``pass_table(key, pred)`` memoizes a 256-byte predicate lookup table
    by ``key`` (callers use the predicate's canonical signature): one
    predicate evaluation per *distinct value*, shared by all pages of the
    table and all queries with an equal predicate.

    It fails closed: a predicate that raises ``TypeError`` on some value
    (a guarded comparison over a mixed-type column) has *no* table --
    ``None``, memoized -- because a row-at-a-time evaluation may never
    reach that value; callers then evaluate on the rows they hold."""

    __slots__ = ("values", "_pass_tables")

    def __init__(self, values: Sequence[Any]):
        self.values = tuple(values)
        self._pass_tables: dict[Any, bytes | None] = {}

    def pass_table(self, key: Any, value_pred: Callable[[Any], bool]) -> bytes | None:
        tables = self._pass_tables
        if key in tables:
            return tables[key]
        try:
            flags = bytes(bytearray(1 if value_pred(v) else 0 for v in self.values))
        except TypeError:
            table = None
        else:
            table = flags + _ZEROS_256[len(flags) :]
        tables[key] = table
        return table

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Dictionary card={len(self.values)}>"


class DictColumn:
    """A dictionary-encoded column: 1-byte codes over a shared value table.

    Supports the read-only sequence protocol the rest of the data plane
    expects from a column vector (len / int index / slice / iteration),
    plus the packed-specific ``gather`` (single-pass hash partitioning).
    Boxed values are decoded on demand
    by :func:`take_values`, never memoized on the column.  A slice or a
    gather owns a copy of its codes and shares the value table."""

    __slots__ = ("codes", "dictionary")

    def __init__(self, codes: bytes, dictionary: Dictionary):
        self.codes = codes
        self.dictionary = dictionary

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, j):
        if type(j) is slice:
            return DictColumn(self.codes[j], self.dictionary)
        return self.dictionary.values[self.codes[j]]

    def __iter__(self) -> Iterator[Any]:
        return map(self.dictionary.values.__getitem__, self.codes)

    def gather(self, idx: Sequence[int]) -> "DictColumn":
        """The rows at ``idx`` as a new column sharing this value table
        (a single C-level pass -- the shard tier's hash-partition path)."""
        return DictColumn(bytes(map(self.codes.__getitem__, idx)), self.dictionary)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DictColumn rows={len(self.codes)} card={len(self.dictionary.values)}>"


#: Flag byte 0/1 -> ASCII '0'/'1' (the other byte values never occur).
_FLAG_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def flags_to_mask(flags: bytes) -> int:
    """Fold a 0/1 flag byte per row into an int bitmap (bit j = row j):
    the flags as binary digits, row 0 last -- one C-level pass each for
    the translate, the reversal and the parse."""
    return int(flags.translate(_FLAG_DIGITS)[::-1], 2) if flags else 0


class PackedNumeric:
    """A typed numeric vector: ``array('q')`` machine ints or ``array('d')``
    doubles, 8 unboxed bytes per value.  ``data`` is either the owning
    ``array`` or a ``memoryview`` slice of an ancestor's buffer (shard
    range-partitions are views -- zero copies)."""

    __slots__ = ("data", "typecode")

    def __init__(self, data, typecode: str):
        self.data = data
        self.typecode = typecode

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, j):
        if type(j) is slice:
            data = self.data
            if type(data) is not memoryview:
                data = memoryview(data)
            return PackedNumeric(data[j], self.typecode)
        return self.data[j]

    def __iter__(self) -> Iterator[Any]:
        return iter(self.data)

    def gather(self, idx: Sequence[int]) -> "PackedNumeric":
        """The rows at ``idx`` as a new owning array (single-pass)."""
        return PackedNumeric(
            array(self.typecode, map(self.data.__getitem__, idx)), self.typecode
        )

    @property
    def nbytes(self) -> int:
        data = self.data
        if type(data) is memoryview:
            return data.nbytes
        return len(data) * data.itemsize

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PackedNumeric '{self.typecode}' rows={len(self.data)}>"


# ----------------------------------------------------------------------
# Packing / unpacking helpers.
# ----------------------------------------------------------------------
def _dict_encode(values: Sequence[Any]) -> DictColumn | None:
    """Dictionary-encode ``values`` or return ``None`` when the column has
    more than :data:`DICT_MAX_CARD` distinct values (or unhashable ones).

    Distinctness is per ``(type, value)`` so columns mixing equal-but-
    differently-typed values (``1`` / ``1.0`` / ``True``) decode back to
    the exact original type, and ``-0.0`` and ``0.0`` (equal, same hash)
    get one code each (see :func:`_split_signed_zero`)."""
    coded = _array_codes(values) if type(values) is array else _row_codes(values)
    if coded is None:
        return None
    codes, table, zero = coded
    if zero is not None and not _split_signed_zero(values, codes, table, zero):
        return None
    return DictColumn(bytes(codes), Dictionary(table))


def _row_codes(values: Sequence[Any]) -> tuple[bytearray, list, int | None] | None:
    """The codes of any column, one value at a time, with the value table
    (first-occurrence order) and the code of a float zero, if any."""
    code_of: dict[Any, int] = {}
    codes = bytearray(len(values))
    table: list[Any] = []
    try:
        for j, v in enumerate(values):
            k = (v.__class__, v)
            c = code_of.get(k)
            if c is None:
                c = len(table)
                if c >= DICT_MAX_CARD:
                    return None
                code_of[k] = c
                table.append(v)
            codes[j] = c
    except TypeError:  # unhashable value somewhere in the column
        return None
    return codes, table, code_of.get((float, 0.0))


#: How many leading values of an array :func:`_array_codes` counts first:
#: a high-cardinality column shows more than DICT_MAX_CARD distinct values
#: within them, and is refused without a pass over the rest.
_PREFIX = 4 * DICT_MAX_CARD


def _array_codes(values: array) -> tuple[bytearray, list, int | None] | None:
    """:func:`_row_codes` for an ``array``, at C speed.  Every element of
    an array has the same Python type, so distinctness is per value and
    ``dict.fromkeys`` counts it (in first-occurrence order, as the
    per-row loop assigns codes); the codes are one ``map`` over the
    values.  A NaN is unequal to itself, so each boxed NaN is a value of
    its own: a float array holding one takes the per-row loop."""
    if len(dict.fromkeys(values[:_PREFIX])) > DICT_MAX_CARD:
        return None
    code_of = dict.fromkeys(values)
    if len(code_of) > DICT_MAX_CARD:
        return None
    table = list(code_of)
    floats = values.typecode in "fd"
    if floats and any(v != v for v in table):
        return _row_codes(values)
    for c, v in enumerate(table):
        code_of[v] = c
    codes = bytearray(map(code_of.__getitem__, values))
    return codes, table, code_of.get(0.0) if floats else None


def _split_signed_zero(values: Sequence[Any], codes: bytearray, table: list, zero: int) -> bool:
    """Give the float zeros whose sign differs from ``table[zero]`` (the
    first zero seen) a code of their own, in place; ``False`` when no code
    is left for it.  The sign test runs at C speed over the zeros only
    (``compress`` by code, ``copysign`` by ``map``), so a column that holds
    one sign of zero -- every generated one -- pays a pass over its code
    bytes and nothing per row in Python."""
    flags = codes.translate(bytes(c == zero for c in range(256)))
    sign = copysign(1.0, table[zero])
    if set(map(copysign, repeat(1.0), compress(values, flags))) == {sign}:
        return True
    other = len(table)
    if other >= DICT_MAX_CARD:
        return False
    table.append(-table[zero])
    for j in compress(range(len(codes)), flags):
        if copysign(1.0, values[j]) != sign:
            codes[j] = other
    return True


def pack_column(values: Sequence[Any], kind: str) -> Any:
    """The tightest faithful representation of one column.

    Preference order: dictionary encoding (any kind, card <= 256) >
    typed array for numeric kinds > plain boxed list.  Already-packed
    inputs pass through unchanged (shard partitions hand back views and
    gathers of parent columns), and an ``array`` of the kind's own type
    (what the generators build) is wrapped as it is, not copied."""
    t = type(values)
    if t is DictColumn or t is PackedNumeric:
        return values
    dc = _dict_encode(values)
    if dc is not None:
        return dc
    if t is array and values.typecode == _TYPECODES.get(kind):
        return PackedNumeric(values, values.typecode)
    if kind == "int":
        try:
            packed = array("q", values)
        except (OverflowError, TypeError):
            pass  # huge ints / non-int values: keep them boxed
        else:
            # array('q') silently coerces bools; require faithful decode.
            if all(type(v) is int for v in values):
                return PackedNumeric(packed, "q")
    elif kind == "float":
        if all(type(v) is float for v in values):
            return PackedNumeric(array("d", values), "d")
    return values if t is list else list(values)


def pack_columns(columns: Sequence[Sequence[Any]], schema) -> tuple:
    """Pack every column of a table (see :func:`pack_column`)."""
    return tuple(
        pack_column(col, cd.kind) for col, cd in zip(columns, schema.columns)
    )


def take_values(col: Any, idx: Sequence[int]) -> Sequence[Any]:
    """The boxed values of ``col`` at positions ``idx``, as a fresh
    sequence: one C-level ``itemgetter`` pass over the array buffer, the
    code bytes (then the value table) or the boxed vector -- a contiguous
    ``range`` (a page's rows of its table) is a slice instead: one
    ``tolist`` of a typed array's view, the codes read off a bytes slice.
    Nothing is memoized on the column, so a caller that keeps only what
    it needs keeps no decoded copy."""
    n = len(idx)
    t = type(col)
    run = type(idx) is range and idx.step == 1
    if t is DictColumn:
        values = col.dictionary.values
        codes = col.codes
        if n > 1:
            picked = codes[idx.start : idx.stop] if run else itemgetter(*idx)(codes)
            return itemgetter(*picked)(values)
        return [values[codes[idx[0]]]] if n else []
    if t is PackedNumeric:
        col = col.data
        if run:
            return memoryview(col)[idx.start : idx.stop].tolist()
    if n > 1:
        return itemgetter(*idx)(col)
    # itemgetter of one position would return the bare value
    return [col[idx[0]]] if n else []


def gather_column(col: Any, idx: Sequence[int]) -> Any:
    """The rows of ``col`` at ``idx`` -- packed stays packed (single-pass
    code/array gathers), boxed stays boxed (one C-level ``map``)."""
    t = type(col)
    if t is DictColumn or t is PackedNumeric:
        return col.gather(idx)
    return list(map(col.__getitem__, idx))


def column_nbytes(col: Any, kind: str) -> int:
    """Honest resident bytes of one column vector.

    Counts the container *and* what it keeps alive: array buffers, code
    bytes, dictionary value tables and their boxed numeric entries.
    String payloads are excluded (shared references in every layout);
    boxed lists charge the list plus each boxed numeric element."""
    t = type(col)
    if t is PackedNumeric:
        return sys.getsizeof(col) + col.nbytes
    if t is DictColumn:
        d = col.dictionary
        n = sys.getsizeof(col) + sys.getsizeof(col.codes) + sys.getsizeof(d.values)
        if kind in ("int", "float"):
            n += sum(sys.getsizeof(v) for v in d.values)
        return n
    n = sys.getsizeof(col)
    if kind in ("int", "float"):
        n += sum(sys.getsizeof(v) for v in col)
    return n
