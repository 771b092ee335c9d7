"""Tables: immutable paged storage, row- or column-built.

A table's rows are generated at ~1/1000 of the paper's real cardinality;
``row_weight`` records how many real rows each generated row represents so
that CPU charges (cycles x weight) and I/O charges (bytes x weight) match
paper-scale volumes.

Pages are :class:`~repro.storage.page.ColumnPage` -- dual row/column
representation, each direction lazy.  :meth:`Table.from_columns` builds a
table *column-wise* (pages slice the column vectors; row tuples are never
materialized unless a row consumer forces them) -- the zero-copy path the
shard tier uses to hand out fact partitions.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.storage import packed as packedmod
from repro.storage.page import Page
from repro.storage.schema import Schema

#: Generated tuples per page.  Real pages are 32 KB; this is the *batch*
#: granularity of the simulation (one generated page stands for the run of
#: real 32 KB pages holding `TUPLES_PER_PAGE * row_weight` rows).
TUPLES_PER_PAGE = 64


class Table:
    """An immutable, paged relational table."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows: Sequence[tuple],
        row_weight: float = 1.0,
        tuples_per_page: int = TUPLES_PER_PAGE,
        packed: bool = True,
    ):
        if row_weight <= 0:
            raise ValueError("row_weight must be positive")
        if tuples_per_page < 1:
            raise ValueError("tuples_per_page must be >= 1")
        for row in rows[:1]:
            if len(row) != len(schema):
                raise ValueError(
                    f"row arity {len(row)} does not match schema arity {len(schema)}"
                )
        self.name = name
        self.schema = schema
        self.row_weight = float(row_weight)
        self.tuples_per_page = tuples_per_page
        self.pages: list[Page] = []
        self._cols: tuple[Sequence[Any], ...] | None = None
        rows = list(rows)
        if packed and rows and len(schema):
            # Pack once at load: whole-table typed/dictionary vectors;
            # pages hold zero-copy slices (memoryview for arrays, shared
            # value tables for dictionary codes).  Row tuples decode
            # lazily through the page cache when a row consumer asks.
            self._cols = packedmod.pack_columns(
                [list(c) for c in zip(*rows)], schema
            )
            self._slice_pages(len(rows))
        else:
            for start in range(0, len(rows), tuples_per_page):
                chunk = rows[start : start + tuples_per_page]
                self.pages.append(
                    Page(
                        table_name=name,
                        index=len(self.pages),
                        rows=chunk,
                        weight=self.row_weight,
                        real_bytes=len(chunk) * self.row_weight * schema.row_bytes,
                    )
                )
        self.num_rows = len(rows)

    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        name: str,
        schema: Schema,
        columns: Sequence[Sequence[Any]],
        row_weight: float = 1.0,
        tuples_per_page: int = TUPLES_PER_PAGE,
        packed: bool = True,
    ) -> "Table":
        """Build a table from per-column vectors without materializing row
        tuples.  Pages slice the vectors (a C-level operation per column
        per page -- zero-copy ``memoryview`` slices for packed arrays);
        page structure, weights and byte accounting are identical to the
        row constructor's, so simulated charges do not depend on which
        way a table was built.  Already-packed input vectors (shard
        partitions slicing/gathering a packed parent) are kept as-is;
        plain vectors are packed unless ``packed=False``."""
        if len(columns) != len(schema):
            raise ValueError(
                f"column count {len(columns)} does not match schema arity {len(schema)}"
            )
        table = cls.__new__(cls)
        if row_weight <= 0:
            raise ValueError("row_weight must be positive")
        if tuples_per_page < 1:
            raise ValueError("tuples_per_page must be >= 1")
        table.name = name
        table.schema = schema
        table.row_weight = float(row_weight)
        table.tuples_per_page = tuples_per_page
        table.pages = []
        n = len(columns[0]) if columns else 0
        for col in columns:
            if len(col) != n:
                raise ValueError("ragged columns")
        if packed:
            columns = packedmod.pack_columns(columns, schema)
        table._cols = tuple(columns)
        table._slice_pages(n)
        table.num_rows = n
        return table

    def _slice_pages(self, n: int) -> None:
        """Append the pages of an ``n``-row column-built table: each page
        holds slices of the table's column vectors."""
        cols = self._cols
        for start in range(0, n, self.tuples_per_page):
            end = min(start + self.tuples_per_page, n)
            self.pages.append(
                Page(
                    table_name=self.name,
                    index=len(self.pages),
                    rows=None,
                    weight=self.row_weight,
                    real_bytes=(end - start) * self.row_weight * self.schema.row_bytes,
                    columns=tuple(col[start:end] for col in cols),
                )
            )

    # ------------------------------------------------------------------
    @property
    def num_pages(self) -> int:
        return len(self.pages)

    @property
    def real_rows(self) -> float:
        """Number of real rows this table represents."""
        return self.num_rows * self.row_weight

    @property
    def real_bytes(self) -> float:
        """Real on-disk size in bytes."""
        return sum(p.real_bytes for p in self.pages)

    def page(self, index: int) -> Page:
        return self.pages[index]

    def iter_rows(self) -> Iterator[tuple]:
        for p in self.pages:
            yield from p.rows

    def columns(self) -> tuple[Sequence[Any], ...]:
        """Full-table column vectors (concatenated page columns, cached).
        Zero-copy shard partitioning gathers from these; building them in
        the parent before forking workers ships them copy-on-write."""
        cols = self._cols
        if cols is None:
            acc: list[list[Any]] = [[] for _ in self.schema.columns]
            for page in self.pages:
                for out, col in zip(acc, page.columns):
                    out.extend(col)
            cols = self._cols = tuple(acc)
        return cols

    def warm_columns(self) -> None:
        """Materialize the column caches (table- and page-level) so forked
        workers inherit them copy-on-write instead of each rebuilding."""
        self.columns()
        for page in self.pages:
            page.columns  # noqa: B018 - property access populates the cache

    # ------------------------------------------------------------------
    def packed_columns(self) -> list[Any]:
        """The columns in their tightest faithful representation (see
        :func:`repro.storage.packed.pack_column`): dictionary codes for
        low-cardinality columns, ``array`` buffers for numeric kinds,
        boxed lists only as the fallback.  For a packed table this *is* the
        live representation; for ``packed=False`` it is computed on the fly
        for the memory report."""
        return [
            packedmod.pack_column(col, cd.kind)
            for col, cd in zip(self.columns(), self.schema.columns)
        ]

    def memory_footprint(self) -> dict[str, Any]:
        """Resident bytes of the two layouts: ``rows_bytes`` counts the
        per-row tuple objects plus boxed numeric elements (what a tuple
        forest keeps alive); ``columns_bytes`` counts the packed columns
        *honestly* -- array buffers, dictionary code bytes, value tables
        and their boxed numeric entries, not just the outer containers.
        String payloads are excluded from both (shared references either
        way).  ``column_layouts`` breaks the packed side down by
        representation."""
        import sys

        numeric = tuple(c.kind in ("int", "float") for c in self.schema.columns)
        rows_bytes = 0
        for page in self.pages:
            rows = page.rows
            rows_bytes += sys.getsizeof(rows)
            for r in rows:
                rows_bytes += sys.getsizeof(r)
                for v, is_num in zip(r, numeric):
                    if is_num:
                        rows_bytes += sys.getsizeof(v)
        layouts = {"dict": 0, "array": 0, "boxed": 0}
        columns_bytes = 0
        for col, cd in zip(self.packed_columns(), self.schema.columns):
            columns_bytes += packedmod.column_nbytes(col, cd.kind)
            t = type(col)
            if t is packedmod.DictColumn:
                layouts["dict"] += 1
            elif t is packedmod.PackedNumeric:
                layouts["array"] += 1
            else:
                layouts["boxed"] += 1
        return {
            "rows_bytes": rows_bytes,
            "columns_bytes": columns_bytes,
            "column_layouts": layouts,
        }

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Table {self.name} rows={self.num_rows} (x{self.row_weight:g} real)"
            f" pages={self.num_pages}>"
        )
