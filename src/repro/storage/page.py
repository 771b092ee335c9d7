"""Pages and batches: column-stored pages, late-materialized batches.

A :class:`ColumnPage` (exported as :data:`Page`) is a fixed slice of a
table -- the unit of buffer-pool residency and disk I/O.  It stores one
layout, a tuple of per-column vectors (slices of the table's packed or
boxed columns, see :mod:`repro.storage.table`); row tuples are a derived
view, built on the first ``.rows`` access and cached, so a table nobody
reads row-wise never materializes them.

Batches are the unit of data flow between operators (through FIFO buffers
and Shared Pages Lists); scan stages turn pages into batches, operators
transform batches.  Scans emit :class:`ColumnBatch`: base column vectors
plus a *selection vector* (``sel``) of live positions and an optional
per-row ``tail`` of join-attached payload tuples; operators whose output
is freshly computed rows (aggregates, sort, cache replay, fold residuals)
emit the row form, :class:`Batch`.  Selections shrink ``sel``
without touching the columns, joins append to ``tail`` without rebuilding
wide row tuples, and ``.rows`` materializes lazily only at emit points
(sort, client collection, push-SP copies) -- late materialization.

Live masks: the canonical mask over a batch is the selection vector (the
fastest representation for CPython's list comprehensions); the bitmap
selection kernels' int masks decode to it through :func:`mask_to_sel`.

Both pages and batches carry a ``weight``: the number of real rows each
generated row represents (see the scale substitution in DESIGN.md), so CPU
and I/O charges reflect paper-scale data volumes.

Immutability contract: a ``ColumnPage``'s columns (and cached rows) are
shared, never copied, between the page and the batches viewing it.
Operators must never mutate a batch's ``rows``, ``cols``, ``sel`` or
``tail`` in place (they build new selections and new batches); the one
place that needs a private, independently-owned copy -- push-based SP
fanning a batch out to satellites -- goes through :meth:`Batch.copy` /
:meth:`ColumnBatch.copy` and is charged for it.
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = [
    "Batch",
    "ColumnBatch",
    "ColumnPage",
    "Page",
    "mask_to_sel",
]


#: Set-bit offsets within one byte, for byte-at-a-time mask decoding.
_BYTE_SEL: tuple[tuple[int, ...], ...] = tuple(
    tuple(j for j in range(8) if b >> j & 1) for b in range(256)
)


def mask_to_sel(mask: int, n: int) -> list[int]:
    """The ascending positions of set bits among the low ``n`` bits.

    Decodes a byte at a time through a 256-entry offset table instead of
    probing all ``n`` bit positions -- sparse masks (selective
    predicates) cost proportional to survivors, not page size."""
    mask &= (1 << n) - 1
    out: list[int] = []
    base = 0
    table = _BYTE_SEL
    while mask:
        b = mask & 0xFF
        if b:
            out += [base + j for j in table[b]]
        mask >>= 8
        base += 8
    return out


class ColumnPage:
    """An immutable slice of a table, stored as per-column vectors.

    Columns are *the* stored form.  Given ``rows`` instead, the constructor
    transposes them once; :attr:`rows` is the one derived view, built on
    first access and cached (both directions are pure ``zip`` transposes,
    so a round trip reproduces the input exactly -- the property suite in
    ``tests/storage`` holds it to that)."""

    __slots__ = ("table_name", "index", "weight", "real_bytes", "columns", "_rows")

    def __init__(
        self,
        table_name: str,
        index: int,
        rows: Sequence[tuple] | None,
        weight: float,
        real_bytes: float,
        columns: Sequence[Sequence[Any]] | None = None,
    ):
        if (rows is None) == (columns is None):
            raise ValueError("exactly one of rows/columns must be given")
        self.table_name = table_name
        self.index = index
        self.weight = weight
        self.real_bytes = real_bytes
        self.columns = tuple(zip(*rows)) if columns is None else tuple(columns)
        self._rows: tuple[tuple, ...] | None = None

    @property
    def rows(self) -> tuple[tuple, ...]:
        """Row tuples (materialized from the columns on first access)."""
        rows = self._rows
        if rows is None:
            rows = self._rows = tuple(zip(*self.columns))
        return rows

    def __len__(self) -> int:
        cols = self.columns
        return len(cols[0]) if cols else 0

    # -- batches --------------------------------------------------------
    def to_batch(self) -> "ColumnBatch":
        """A :class:`ColumnBatch` viewing this page -- zero-copy: the batch
        shares the page's column vectors (safe because batches are never
        mutated in place; see the module docstring), and its ``.rows``
        resolves through the page cache, so repeated circular scans
        materialize row tuples at most once per page."""
        return ColumnBatch(self.columns, None, self.weight, src=self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Page {self.table_name}[{self.index}] rows={len(self)}>"


#: The engine's name for it (buffer pool, scans, prefetcher say "Page").
Page = ColumnPage


class Batch:
    """A batch of tuples flowing between operators.

    ``rows`` may be a list or (for zero-copy page views) a tuple; either
    way it must be treated as immutable by consumers."""

    __slots__ = ("rows", "weight")

    def __init__(self, rows: Sequence[tuple], weight: float = 1.0):
        self.rows = rows
        self.weight = weight

    def __len__(self) -> int:
        return len(self.rows)

    def copy(self) -> "Batch":
        """A shallow copy (what push-based SP pays cycles to produce)."""
        return Batch(list(self.rows), self.weight)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Batch rows={len(self.rows)} weight={self.weight}>"


class ColumnBatch:
    """A late-materialized batch: base columns + selection vector + tail.

    Logical row ``p`` (``0 <= p < len(self)``) is::

        tuple(col[sel[p]] for col in cols) + tail[p]

    with ``sel is None`` meaning the identity selection (all base rows in
    order) and ``tail is None`` meaning no join-attached payload.  The
    base ``cols`` are shared, never copied: a selection produces a new
    batch with a smaller ``sel`` over the *same* columns, and a hash join
    produces a new ``sel`` (probe-side positions, one per match) plus a
    ``tail`` of matched build rows -- no wide output tuples.

    ``column(i)`` gathers one logical column; ``.rows`` materializes the
    full row view once and caches it (consumers that need tuples -- sort,
    client result collection, push-SP copies -- pay only at that point).
    """

    __slots__ = ("cols", "sel", "tail", "weight", "_rows", "_src")

    def __init__(
        self,
        cols: tuple[Sequence[Any], ...],
        sel: Sequence[int] | None = None,
        weight: float = 1.0,
        tail: Sequence[tuple] | None = None,
        src: ColumnPage | None = None,
    ):
        if tail is not None and sel is None:
            raise ValueError("a tail requires an explicit selection vector")
        self.cols = cols
        self.sel = sel
        self.tail = tail
        self.weight = weight
        self._rows = None
        self._src = src

    def __len__(self) -> int:
        sel = self.sel
        if sel is not None:
            return len(sel)
        cols = self.cols
        return len(cols[0]) if cols else 0

    def column(self, i: int) -> Sequence[Any]:
        """Logical column ``i``, gathered through the selection vector.

        For a full batch (``sel is None``) this is the base vector itself,
        zero-copy; treat it as read-only."""
        cols = self.cols
        nb = len(cols)
        if i < nb:
            col = cols[i]
            sel = self.sel
            if sel is None:
                return col
            return [col[j] for j in sel]
        k = i - nb
        tail = self.tail
        if tail is None:
            raise IndexError(f"column {i} out of range for arity {nb}")
        return [t[k] for t in tail]

    def take(self, positions: list[int]) -> "ColumnBatch":
        """The sub-batch at the given logical positions (a selection pass
        result), sharing the base columns."""
        sel = self.sel
        new_sel = positions if sel is None else [sel[p] for p in positions]
        tail = self.tail
        new_tail = None if tail is None else [tail[p] for p in positions]
        return ColumnBatch(self.cols, new_sel, self.weight, new_tail)

    def take_mask(self, mask: int) -> "ColumnBatch":
        """The sub-batch whose logical positions are the set bits of
        ``mask`` (bit ``p`` = logical row ``p``) -- the bitmap-native
        selection path mask kernels feed (equivalent to ``take`` of the
        mask's ascending positions)."""
        return self.take(mask_to_sel(mask, len(self)))

    @property
    def rows(self) -> Sequence[tuple]:
        """The materialized row view (computed once, then cached)."""
        rows = self._rows
        if rows is not None:
            return rows
        src = self._src
        if src is not None and self.sel is None and self.tail is None:
            # Page view: resolve through (and populate) the page's cache.
            rows = src.rows
        else:
            cols = self.cols
            sel = self.sel
            if not cols:
                base: Any = [()] * len(self)
            elif sel is None:
                base = list(zip(*cols))
            else:
                base = list(zip(*([col[j] for j in sel] for col in cols)))
            tail = self.tail
            if tail is not None:
                base = [b + t for b, t in zip(base, tail)]
            rows = base
        self._rows = rows
        return rows

    def copy(self) -> "ColumnBatch":
        """A privately-owned selection/tail copy (base columns stay shared
        -- they are immutable; what push-based SP pays cycles for is the
        per-row bookkeeping, same as the row form's shallow copy)."""
        sel = self.sel
        tail = self.tail
        return ColumnBatch(
            self.cols,
            None if sel is None else list(sel),
            self.weight,
            None if tail is None else list(tail),
            src=self._src,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ColumnBatch rows={len(self)} weight={self.weight}>"
