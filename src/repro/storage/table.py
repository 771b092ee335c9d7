"""Tables: immutable paged storage over column vectors.

A table's rows are generated at ~1/1000 of the paper's real cardinality;
``row_weight`` records how many real rows each generated row represents so
that CPU charges (cycles x weight) and I/O charges (bytes x weight) match
paper-scale volumes.

A table *is* its column vectors -- packed where the data allows (see
:mod:`repro.storage.packed`), boxed lists otherwise -- and its pages are
:class:`~repro.storage.page.ColumnPage` slices of them.  Both constructors
end in the same page-slicing path: ``Table(...)`` transposes the given rows
once, :meth:`Table.from_columns` takes the vectors as they are (the
zero-copy path the shard tier uses to hand out fact partitions).
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
    ):
        arity = len(schema)
        for i, row in enumerate(rows):
            if len(row) != arity:
                raise ValueError(
                    f"row {i} has arity {len(row)}, but the schema has arity {arity}"
                )
        columns = [list(c) for c in zip(*rows)] if rows else [[] for _ in schema.columns]
        self._build(name, schema, columns, row_weight, tuples_per_page)

    @classmethod
    def from_columns(
        cls,
        name: str,
        schema: Schema,
        columns: Sequence[Sequence[Any]],
        row_weight: float = 1.0,
        tuples_per_page: int = TUPLES_PER_PAGE,
    ) -> "Table":
        """Build a table from per-column vectors without materializing row
        tuples.  Page structure, weights and byte accounting are identical
        to the row constructor's, so simulated charges do not depend on
        which way a table was built.  Already-packed input vectors (shard
        partitions slicing/gathering a packed parent) are kept as-is;
        plain vectors are packed."""
        table = cls.__new__(cls)
        table._build(name, schema, columns, row_weight, tuples_per_page)
        return table

    def _build(
        self,
        name: str,
        schema: Schema,
        columns: Sequence[Sequence[Any]],
        row_weight: float,
        tuples_per_page: int,
    ) -> None:
        """The one construction path: validate, pack (a column the data
        does not let :func:`~repro.storage.packed.pack_column` pack stays a
        boxed list), then slice every ``tuples_per_page`` rows into a page
        (a C-level slice per column per page; zero-copy ``memoryview``
        slices for packed arrays)."""
        if row_weight <= 0:
            raise ValueError("row_weight must be positive")
        if tuples_per_page < 1:
            raise ValueError("tuples_per_page must be >= 1")
        if len(columns) != len(schema):
            raise ValueError(
                f"column count {len(columns)} does not match schema arity {len(schema)}"
            )
        n = len(columns[0]) if columns else 0
        for col in columns:
            if len(col) != n:
                raise ValueError("ragged columns")
        self.name = name
        self.schema = schema
        self.row_weight = float(row_weight)
        self.tuples_per_page = tuples_per_page
        self.num_rows = n
        # An empty table has nothing to pack: its (empty) vectors stay boxed.
        cols = self._cols = (
            packedmod.pack_columns(columns, schema) if n else tuple(columns)
        )
        self.pages: list[Page] = []
        for start in range(0, n, tuples_per_page):
            end = min(start + tuples_per_page, n)
            self.pages.append(
                Page(
                    table_name=name,
                    index=len(self.pages),
                    rows=None,
                    weight=self.row_weight,
                    real_bytes=(end - start) * self.row_weight * schema.row_bytes,
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
        """Every row as a tuple, page by page -- the reference evaluator's
        view, cached on each page (no engine path reads it)."""
        for p in self.pages:
            yield from p.rows

    def columns(self) -> tuple[Sequence[Any], ...]:
        """Full-table column vectors (the pages hold slices of these).
        Zero-copy shard partitioning slices and gathers from them."""
        return self._cols

    def warm_columns(self) -> None:
        """Nothing to warm -- columns are the stored form, so a forked
        worker inherits them as they are.  Kept as the setup-phase hook
        the layered benchmark's adapter calls on every table."""

    # ------------------------------------------------------------------
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
            rows = tuple(zip(*page.columns))  # measured, not cached on the page
            rows_bytes += sys.getsizeof(rows)
            for r in rows:
                rows_bytes += sys.getsizeof(r)
                for v, is_num in zip(r, numeric):
                    if is_num:
                        rows_bytes += sys.getsizeof(v)
        layouts = {"dict": 0, "array": 0, "boxed": 0}
        columns_bytes = 0
        for col, cd in zip(self._cols, self.schema.columns):
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
