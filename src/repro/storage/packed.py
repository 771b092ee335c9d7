"""Packed column vectors: typed arrays and dictionary-encoded columns.

How tables store their column vectors: instead of tuples/lists of *boxed*
Python objects, column vectors are held as

* :class:`PackedNumeric` -- an ``array.array`` of machine ints (``'q'``)
  or doubles (``'d'``), 8 bytes per value.  Slicing goes through
  ``memoryview`` so shard range-partitions and page slices are **views**
  over the parent buffer (zero copies, fork-COW friendly);
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
single C call) + ``itertools.compress`` -- or folded into an int bitmap
via :meth:`DictColumn.mask_for`, which memoizes the per-page mask by
predicate signature so recurring predicates across concurrent queries
AND/OR single ints instead of re-scanning.

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
from typing import Any, Callable, Iterator, Sequence

__all__ = [
    "DICT_MAX_CARD",
    "Dictionary",
    "DictColumn",
    "PackedNumeric",
    "as_list",
    "column_nbytes",
    "gather_column",
    "pack_column",
    "pack_columns",
]

#: Maximum distinct values for dictionary encoding (codes are one byte).
DICT_MAX_CARD = 256

_ZEROS_256 = bytes(256)


class Dictionary:
    """An interned value table shared by every slice/gather of a column.

    ``values`` keeps first-occurrence order, so codes -- and therefore
    everything derived from them -- are a pure function of the original
    column.  ``pass_table(key, pred)`` memoizes a 256-byte predicate
    lookup table by ``key`` (callers use the predicate's canonical
    signature): one predicate evaluation per *distinct value*, shared by
    all pages of the table and all queries with an equal predicate.

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
    plus the packed-specific operations: ``gather`` (single-pass hash
    partitioning), ``as_list`` (memoized full decode for consumers that
    genuinely need boxed values, e.g. hash-join probes), and
    ``mask_for`` (predicate result as an int bitmap, memoized by
    predicate signature)."""

    __slots__ = ("codes", "dictionary", "_list", "_masks")

    def __init__(self, codes: bytes, dictionary: Dictionary):
        self.codes = codes
        self.dictionary = dictionary
        self._list: list | None = None
        self._masks: dict[Any, int] | None = None

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, j):
        if type(j) is slice:
            return DictColumn(self.codes[j], self.dictionary)
        return self.dictionary.values[self.codes[j]]

    def __iter__(self) -> Iterator[Any]:
        return map(self.dictionary.values.__getitem__, self.codes)

    def as_list(self) -> list:
        """The decoded column (computed once, then cached)."""
        lst = self._list
        if lst is None:
            lst = self._list = list(map(self.dictionary.values.__getitem__, self.codes))
        return lst

    def gather(self, idx: Sequence[int]) -> "DictColumn":
        """The rows at ``idx`` as a new column sharing this value table
        (a single C-level pass -- the shard tier's hash-partition path)."""
        return DictColumn(bytes(map(self.codes.__getitem__, idx)), self.dictionary)

    def mask_for(self, key: Any, value_pred: Callable[[Any], bool]) -> int | None:
        """The predicate's pass positions as an int bitmap (bit ``j`` =
        row ``j`` passes), memoized by ``key``.  Concurrent queries with
        an equal predicate share the mask; conjunction chains AND the
        cached ints instead of re-filtering.  ``None`` when the dictionary
        has no pass table for the predicate (see :class:`Dictionary`)."""
        masks = self._masks
        if masks is None:
            masks = self._masks = {}
        m = masks.get(key)
        if m is None:
            table = self.dictionary.pass_table(key, value_pred)
            if table is None:
                return None
            m = _flags_to_mask(self.codes.translate(table))
            masks[key] = m
        return m

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DictColumn rows={len(self.codes)} card={len(self.dictionary.values)}>"


def _flags_to_mask(flags: bytes) -> int:
    """Fold a 0/1 flag byte per row into an int bitmap (bit j = row j)."""
    mask = 0
    bit = 1
    for f in flags:
        if f:
            mask |= bit
        bit <<= 1
    return mask


class PackedNumeric:
    """A typed numeric vector: ``array('q')`` machine ints or ``array('d')``
    doubles, 8 unboxed bytes per value.  ``data`` is either the owning
    ``array`` or a ``memoryview`` slice of an ancestor's buffer (page
    slices and shard range-partitions are views -- zero copies)."""

    __slots__ = ("data", "typecode", "_list")

    def __init__(self, data, typecode: str):
        self.data = data
        self.typecode = typecode
        self._list: list | None = None

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

    def as_list(self) -> list:
        """The boxed column (one C-level ``tolist``, then cached)."""
        lst = self._list
        if lst is None:
            lst = self._list = self.data.tolist()
        return lst

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
    the exact original type."""
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
    return DictColumn(bytes(codes), Dictionary(table))


def pack_column(values: Sequence[Any], kind: str) -> Any:
    """The tightest faithful representation of one column.

    Preference order: dictionary encoding (any kind, card <= 256) >
    typed array for numeric kinds > plain boxed list.  Already-packed
    inputs pass through unchanged (shard partitions hand back views and
    gathers of parent columns)."""
    t = type(values)
    if t is DictColumn or t is PackedNumeric:
        return values
    dc = _dict_encode(values)
    if dc is not None:
        return dc
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


def as_list(col: Any) -> Sequence[Any]:
    """A boxed view of a column: packed vectors decode once (memoized on
    the column, so page-resident columns pay a single decode ever);
    already-boxed sequences pass through untouched."""
    t = type(col)
    if t is DictColumn or t is PackedNumeric:
        return col.as_list()
    return col


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
