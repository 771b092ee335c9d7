"""Pages and batches: row ranges of a table, late-materialized batches.

A :class:`ColumnPage` (exported as :data:`Page`) is a fixed row range of a
table -- the unit of buffer-pool residency and disk I/O.  It stores no
vector of its own and slices none: it keeps its table's column tuple (see
:mod:`repro.storage.table`) and the range ``[start, stop)``, and a scan
reads it as :meth:`ColumnPage.to_batch` -- the table's own vectors at the
page's positions.  Base data has one coordinate system, table positions:
scan batches, CJOIN's work items and the dimension-selection memo all
address the table's vectors by them, so the data is held once, by the
table, however many pages and consumers cut it up.  Its ``.rows`` is a
view for the reference evaluator only (``Table.iter_rows``): built on
first access and cached, because the reference re-reads a table once per
distinct query.  No engine path reads it, so during a run no page holds a
row tuple.

Batches are the unit of data flow between operators (through FIFO buffers
and Shared Pages Lists), and there is one batch type, :class:`ColumnBatch`:
column vectors plus a *selection vector* (``sel``) of live positions and
an optional per-row ``tail`` of join-attached payload tuples.  Scans emit
a page's range of the table's vectors; aggregates build their finalized
columns straight from their group table
(:class:`repro.engine.stages.aggregate.GroupTable`); sort emits a
permutation over the columns it collected, and CJOIN's distributor, fold
residuals and cache replay emit gathered or shared columns directly.
Selections shrink ``sel`` without touching the columns, joins append to
``tail`` without rebuilding wide row tuples, and ``.rows`` materializes
lazily only where rows are the product or a row closure's input (client
result collection, join build payloads, aggregate expressions without a
column form) -- late materialization.  Rows are the *product* in two places
only: the reference evaluator's page view (:attr:`ColumnPage.rows`) and
the client's results.

Live masks: the canonical mask over a batch is the selection vector (the
fastest representation for CPython's list comprehensions); the bitmap
selection kernel's int masks decode to it through :func:`mask_to_sel`.

Both pages and batches carry a ``weight``: the number of real rows each
generated row represents (see the scale substitution in DESIGN.md), so CPU
and I/O charges reflect paper-scale data volumes.

Immutability contract: a table's column vectors are shared, never
copied, between the table, its pages and the batches viewing them.
Operators must never mutate a batch's ``rows``, ``cols``, ``sel`` or
``tail`` in place (they build new selections and new batches); the one
place that needs a private, independently-owned copy -- push-based SP
fanning a batch out to satellites -- goes through :meth:`ColumnBatch.copy`
and is charged for it.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.storage.packed import take_values

__all__ = [
    "ColumnBatch",
    "ColumnPage",
    "Page",
    "mask_to_sel",
]


#: Set-bit offsets within one byte, for byte-at-a-time mask decoding.
_BYTE_SEL: tuple[tuple[int, ...], ...] = tuple(
    tuple(j for j in range(8) if b >> j & 1) for b in range(256)
)


def mask_to_sel(mask: int, n: int, base: int = 0) -> list[int]:
    """The ascending positions of set bits among the low ``n`` bits, plus
    ``base`` (bit ``p`` stands for position ``base + p``).

    Decodes a byte at a time through a 256-entry offset table instead of
    probing all ``n`` bit positions -- sparse masks (selective
    predicates) cost proportional to survivors, not page size."""
    mask &= (1 << n) - 1
    out: list[int] = []
    table = _BYTE_SEL
    while mask:
        b = mask & 0xFF
        if b:
            out += [base + j for j in table[b]]
        mask >>= 8
        base += 8
    return out


class ColumnPage:
    """An immutable row range ``[start, stop)`` of a table's column vectors.

    ``vectors`` is the table's own column tuple, shared by all its pages;
    :meth:`to_batch` reads it at the page's range.  :attr:`rows` is the
    one cached view, built on first access for the reference evaluator (a
    pure ``zip`` transpose, so columns -> rows -> columns reproduces the
    input exactly -- the property suite in ``tests/storage`` holds it to
    that)."""

    __slots__ = ("table_name", "index", "weight", "real_bytes", "vectors", "start", "stop", "_rows")

    def __init__(
        self,
        table_name: str,
        index: int,
        vectors: tuple[Sequence[Any], ...],
        start: int,
        stop: int,
        weight: float,
        real_bytes: float,
    ):
        self.table_name = table_name
        self.index = index
        self.vectors = vectors
        self.start = start
        self.stop = stop
        self.weight = weight
        self.real_bytes = real_bytes
        self._rows: tuple[tuple, ...] | None = None

    @property
    def rows(self) -> tuple[tuple, ...]:
        """Row tuples (materialized from the columns on first access)."""
        rows = self._rows
        if rows is None:
            rows = self._rows = tuple(self.to_batch().rows)
        return rows

    def __len__(self) -> int:
        return self.stop - self.start

    # -- batches --------------------------------------------------------
    def to_batch(self) -> "ColumnBatch":
        """A :class:`ColumnBatch` of the table's own vectors at this page's
        positions -- nothing sliced, nothing copied (safe because batches
        are never mutated in place; see the module docstring).  Its
        ``.rows`` is the batch's own, never the page's cache."""
        return ColumnBatch(self.vectors, range(self.start, self.stop), self.weight)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Page {self.table_name}[{self.index}] rows={len(self)}>"


#: The engine's name for it (buffer pool, scans, prefetcher say "Page").
Page = ColumnPage


class ColumnBatch:
    """A late-materialized batch: base columns + selection vector + tail.

    Logical row ``p`` (``0 <= p < len(self)``) is::

        tuple(col[sel[p]] for col in cols) + tail[p]

    with ``sel is None`` meaning the identity selection (all base rows in
    order), a ``range`` a contiguous run of them (a scan's page of its
    table), and ``tail is None`` meaning no join-attached payload.  The
    base ``cols`` are shared, never copied: a selection produces a new
    batch with a smaller ``sel`` over the *same* columns, and a hash join
    produces a new ``sel`` (probe-side positions, one per match) plus a
    ``tail`` of matched build rows -- no wide output tuples.

    ``column(i)`` gathers one logical column; ``.rows`` materializes the
    full row view once and caches it (consumers that need tuples -- client
    result collection, join build payloads -- pay only at that point).
    """

    __slots__ = ("cols", "sel", "tail", "weight", "_rows")

    def __init__(
        self,
        cols: tuple[Sequence[Any], ...],
        sel: Sequence[int] | None = None,
        weight: float = 1.0,
        tail: Sequence[tuple] | None = None,
    ):
        if tail is not None and sel is None:
            raise ValueError("a tail requires an explicit selection vector")
        self.cols = cols
        self.sel = sel
        self.tail = tail
        self.weight = weight
        self._rows = None

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
            return take_values(col, sel)
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

    @property
    def rows(self) -> Sequence[tuple]:
        """The materialized row view (computed once, then cached)."""
        rows = self._rows
        if rows is not None:
            return rows
        cols = self.cols
        sel = self.sel
        if not cols:
            rows = [()] * len(self)
        elif sel is None:
            rows = list(zip(*cols))
        else:
            rows = list(zip(*[take_values(col, sel) for col in cols]))
        tail = self.tail
        if tail is not None:
            rows = [b + t for b, t in zip(rows, tail)]
        self._rows = rows
        return rows

    def copy(self) -> "ColumnBatch":
        """A privately-owned selection/tail copy (base columns stay shared
        -- they are immutable; what push-based SP pays cycles for is the
        per-row bookkeeping)."""
        sel = self.sel
        tail = self.tail
        return ColumnBatch(
            self.cols,
            None if sel is None else sel[:],  # a range stays a range
            self.weight,
            None if tail is None else list(tail),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ColumnBatch rows={len(self)} weight={self.weight}>"
