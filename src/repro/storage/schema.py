"""Relational schemas.

Rows are plain Python tuples; a :class:`Schema` maps column names to tuple
positions and records the *real* byte width of a row (used for I/O and
buffer-pool accounting at the paper's scale -- see the scale substitution in
DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Column:
    """One column: a name and a coarse type tag ('int', 'float', 'str')."""

    name: str
    kind: str = "int"

    def __post_init__(self) -> None:
        if self.kind not in ("int", "float", "str"):
            raise ValueError(f"unknown column kind {self.kind!r}")


class Schema:
    """An ordered set of uniquely named columns.

    Parameters
    ----------
    columns:
        Column definitions, in tuple position order.
    row_bytes:
        Real on-disk width of one row in bytes (for I/O accounting).
    """

    __slots__ = ("columns", "row_bytes", "_index")

    def __init__(self, columns: Sequence[Column], row_bytes: float = 100.0):
        if row_bytes <= 0:
            raise ValueError("row_bytes must be positive")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate column names: {dupes}")
        self.columns = tuple(columns)
        self.row_bytes = float(row_bytes)
        self._index = {c.name: i for i, c in enumerate(self.columns)}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def index(self, name: str) -> int:
        """Tuple position of column ``name``."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no column {name!r}; have {self.names}") from None

    def indices(self, names: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.index(n) for n in names)

    def column(self, name: str) -> Column:
        return self.columns[self.index(name)]

    # ------------------------------------------------------------------
    def concat(self, other: "Schema") -> "Schema":
        """Schema of a join output (column name sets must be disjoint)."""
        return Schema(self.columns + other.columns, self.row_bytes + other.row_bytes)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.columns == other.columns

    def __hash__(self) -> int:
        return hash(self.columns)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Schema({', '.join(self.names)})"
