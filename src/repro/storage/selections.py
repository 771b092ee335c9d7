"""The dimension-selection memo: "rows of dimension T passing predicate
P", answered once per run in one shape.

Concurrent star queries select and index the same dimension tuples over
and over (CJOIN's shared filters, QPipe-SP's shared build sides).  One
:class:`SelectionMemo`, owned by the run's
:class:`~repro.storage.manager.StorageManager`, holds the answer for both
engines as the *positions* of the passing rows: a CJOIN admission inserts
:meth:`Selection.keys` with those positions (its distributor gathers the
dimension payload from the table's columns; the keys of a packed numeric
column stay a typed array), a QPipe hash join probes
:meth:`Selection.by_key`, and a predicate first seen by one is an exact
hit for the other.  Row tuples are built only for a view that hands rows
out (``rows``, ``by_key``): the table's rows once per run, shared by
every selection of that table.

The memo is host-side only.  Every consumer still drains its build input
or scans the dimension's pages and pays the full scan / predicate /
hashing / build charges; what is reused is the Python structure, so a hit,
a derivation, an eviction or an invalidation can move a counter but never
a row or a simulated tick.  It lives and dies with its simulator, so its
counters are a function of the run's inputs.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Any, Sequence

from repro.storage.packed import PackedNumeric, take_values

if TYPE_CHECKING:  # pragma: no cover
    from repro.query.expr import Expr
    from repro.storage.table import Table

__all__ = ["MAX_ENTRIES_PER_TABLE", "Selection", "SelectionMemo"]

#: Selections kept per table; past it the oldest entry goes.  Bounds a
#: long-running service that keeps drawing new predicates (every measured
#: workload tops out at 25-28 per table, see docs/performance.md).
MAX_ENTRIES_PER_TABLE = 64


class Selection:
    """An immutable snapshot of the rows of one table passing one
    predicate, in table order whoever asked first: their ``positions``
    in the table.

    ``served`` says how *this* request was answered: ``"exact"`` (the
    predicate was memoized), ``"derived"`` (filtered out of a subsuming
    entry's rows) or ``"computed"`` (filtered out of the table's columns).
    The views are built on first use and shared by every handle on the
    same entry; the row tuples they hand out are the memo's one row list
    of the table (``table_rows``).  A holder keeps its snapshot across
    eviction and ``notify_update``."""

    __slots__ = ("positions", "served", "table", "_views", "_table_rows")

    def __init__(
        self,
        positions: Sequence[int],
        served: str,
        table: "Table",
        views: dict,
        table_rows: dict["Table", list[tuple]],
    ):
        self.positions = positions
        self.served = served
        self.table = table
        self._views = views
        self._table_rows = table_rows

    def _every_row(self) -> list[tuple]:
        """The table's rows, built from its columns on the run's first
        request and shared by every selection of the table."""
        table = self.table
        every = self._table_rows.get(table)
        if every is None:
            every = self._table_rows[table] = list(zip(*table.columns()))
        return every

    @property
    def rows(self) -> list[tuple]:
        """The selected rows as tuples (picked out of the table's rows)."""
        rows = self._views.get("rows")
        if rows is None:
            every, pos = self._every_row(), self.positions
            rows = every if type(pos) is range else list(map(every.__getitem__, pos))
            self._views["rows"] = rows
        return rows

    def by_key(self, column: str) -> dict[Any, tuple]:
        """``key -> row`` over the selected rows (what a hash join probes).
        ``column`` must be unique among them: a multi-match build side
        cannot be flattened, its consumer builds privately."""
        view = self._views.get(("by_key", column))
        if view is None:
            idx = self.table.schema.index(column)
            view = {r[idx]: r for r in map(self._every_row().__getitem__, self.positions)}
            if len(view) != len(self.positions):
                raise ValueError(f"{column} is not unique among the selected rows")
            self._views[("by_key", column)] = view
        return view

    def keys(self, column: str) -> Sequence[Any]:
        """``column`` of every selected row, in table order (what a CJOIN
        admission inserts): a typed ``array`` for a packed numeric column
        -- 8 bytes a key, no boxed int held -- else a list."""
        keys = self._views.get(("keys", column))
        if keys is None:
            col = self.table.columns()[self.table.schema.index(column)]
            if type(col) is PackedNumeric:
                keys = array(col.typecode, map(col.data.__getitem__, self.positions))
            else:
                keys = list(take_values(col, self.positions))
            self._views[("keys", column)] = keys
        return keys


class SelectionMemo:
    """Per table: predicate (``None`` = every row) -> :class:`Selection`."""

    def __init__(self) -> None:
        self._tables: dict["Table", dict["Expr | None", Selection]] = {}
        self._table_rows: dict["Table", list[tuple]] = {}
        self.exact = 0
        self.derived = 0
        self.computed = 0
        self.evictions = 0

    def select(self, table: "Table", predicate: "Expr | None", fold: bool) -> Selection:
        """The rows of ``table`` passing ``predicate``: the memoized entry
        when there is one; else, with ``fold``, filtered out of the
        smallest memoized selection of ``table`` whose predicate subsumes
        this one (query folding); else filtered out of the table's column
        vectors.  Either way the result is memoized, so it answers the
        next equal predicate and seeds further derivations."""
        entries = self._tables.setdefault(table, {})
        hit = entries.get(predicate)
        if hit is not None:
            self.exact += 1
            return Selection(hit.positions, "exact", table, hit._views, self._table_rows)
        source: Sequence[int] | None = None
        if fold and predicate is not None:
            from repro.query.subsume import predicate_subsumes  # deferred: query imports storage

            # The unfiltered entry is no provider: filtering it is the
            # column pass below under another name.
            for prov_pred, prov in entries.items():
                if (
                    prov_pred is not None
                    and (source is None or len(prov.positions) < len(source))
                    and predicate_subsumes(prov_pred, predicate)[0]
                ):
                    source = prov.positions
        if source is None:
            served = "computed"
            self.computed += 1
        else:
            served = "derived"
            self.derived += 1
        if predicate is None:
            positions: Sequence[int] = range(table.num_rows)
        else:
            from repro.query.expr import compile_selection  # deferred: query imports storage

            # Held as a typed array: 8 bytes a position, no boxed ints.
            positions = array("q", compile_selection(predicate, table.schema)(table.columns(), source))
        selection = entries[predicate] = Selection(positions, served, table, {}, self._table_rows)
        if len(entries) > MAX_ENTRIES_PER_TABLE:
            del entries[next(iter(entries))]
            self.evictions += 1
        return selection

    def drop_table(self, table_name: str) -> None:
        """``table_name`` changed: forget its selections (the next request
        recomputes; holders keep their snapshot)."""
        for table in [t for t in self._tables if t.name == table_name]:
            del self._tables[table]
            self._table_rows.pop(table, None)

    def stats(self) -> dict[str, int]:
        """Counter snapshot: requests by how they were served, evictions,
        and what is held right now."""
        held = [s for entries in self._tables.values() for s in entries.values()]
        return {
            "exact": self.exact,
            "derived": self.derived,
            "computed": self.computed,
            "evictions": self.evictions,
            "entries": len(held),
            "rows": sum(len(s.positions) for s in held),
        }
