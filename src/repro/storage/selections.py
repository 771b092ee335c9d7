"""The dimension-selection memo: "rows of dimension T passing predicate
P", answered once per run in one shape.

Concurrent star queries select and index the same dimension tuples over
and over (CJOIN's shared filters, QPipe-SP's shared build sides).  One
:class:`SelectionMemo`, owned by the run's
:class:`~repro.storage.manager.StorageManager`, holds the answer for both
engines: a QPipe hash join probes :meth:`Selection.by_key`, a CJOIN
admission inserts :meth:`Selection.rows` under :meth:`Selection.keys`,
and a predicate first seen by one is an exact hit for the other.

The memo is host-side only.  Every consumer still drains its build input
or scans the dimension's pages and pays the full scan / predicate /
hashing / build charges; what is reused is the Python structure, so a hit,
a derivation, an eviction or an invalidation can move a counter but never
a row or a simulated tick.  It lives and dies with its simulator, so its
counters are a function of the run's inputs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.storage.page import Batch

if TYPE_CHECKING:  # pragma: no cover
    from repro.query.expr import Expr
    from repro.storage.schema import Schema
    from repro.storage.table import Table

__all__ = ["MAX_ENTRIES_PER_TABLE", "Selection", "SelectionMemo"]

#: Selections kept per table; past it the oldest entry goes.  Bounds a
#: long-running service that keeps drawing new predicates (every measured
#: workload tops out at 25-28 per table, see docs/performance.md).
MAX_ENTRIES_PER_TABLE = 64


class Selection:
    """An immutable snapshot of the rows of one table passing one
    predicate, in table order whoever asked first.

    ``served`` says how *this* request was answered: ``"exact"`` (the
    predicate was memoized), ``"derived"`` (filtered out of a subsuming
    entry's rows) or ``"computed"`` (filtered out of the table's pages).
    The keyed views are built on first use and shared by every handle on
    the same entry; a holder keeps its snapshot across eviction and
    ``notify_update``."""

    __slots__ = ("rows", "served", "_schema", "_by_key", "_keys")

    def __init__(
        self,
        rows: list[tuple],
        served: str,
        schema: "Schema",
        by_key: dict[str, dict[Any, tuple]],
        keys: dict[str, list[Any]],
    ):
        self.rows = rows
        self.served = served
        self._schema = schema
        self._by_key = by_key
        self._keys = keys

    def by_key(self, column: str) -> dict[Any, tuple]:
        """``key -> row`` over the selected rows (what a hash join probes).
        ``column`` must be unique among them: a multi-match build side
        cannot be flattened, its consumer builds privately."""
        view = self._by_key.get(column)
        if view is None:
            idx = self._schema.index(column)
            view = {r[idx]: r for r in self.rows}
            if len(view) != len(self.rows):
                raise ValueError(f"{column} is not unique among the selected rows")
            self._by_key[column] = view
        return view

    def keys(self, column: str) -> list[Any]:
        """``column`` of every selected row, in table order (what a CJOIN
        admission inserts)."""
        keys = self._keys.get(column)
        if keys is None:
            idx = self._schema.index(column)
            keys = self._keys[column] = [r[idx] for r in self.rows]
        return keys


class SelectionMemo:
    """Per table: predicate (``None`` = every row) -> :class:`Selection`."""

    def __init__(self) -> None:
        self._tables: dict["Table", dict["Expr | None", Selection]] = {}
        self.exact = 0
        self.derived = 0
        self.computed = 0
        self.evictions = 0

    def select(self, table: "Table", predicate: "Expr | None", fold: bool) -> Selection:
        """The rows of ``table`` passing ``predicate``: the memoized entry
        when there is one; else, with ``fold``, filtered out of the
        smallest memoized selection of ``table`` whose predicate subsumes
        this one (query folding); else filtered out of the table's cached
        page rows.  Either way the result is memoized, so it answers the
        next equal predicate and seeds further derivations."""
        entries = self._tables.setdefault(table, {})
        hit = entries.get(predicate)
        if hit is not None:
            self.exact += 1
            return Selection(hit.rows, "exact", hit._schema, hit._by_key, hit._keys)
        source: list[tuple] | None = None
        if fold and predicate is not None:
            from repro.query.subsume import predicate_subsumes  # deferred: query imports storage

            # The unfiltered entry is no provider: filtering it is the
            # page pass below under another name.
            for prov_pred, prov in entries.items():
                if (
                    prov_pred is not None
                    and (source is None or len(prov.rows) < len(source))
                    and predicate_subsumes(prov_pred, predicate)[0]
                ):
                    source = prov.rows
        if source is None:
            served = "computed"
            self.computed += 1
            source = [r for page in table.pages for r in page.rows]
        else:
            served = "derived"
            self.derived += 1
        if predicate is None:
            rows = source
        else:
            from repro.query.expr import compile_selection  # deferred: query imports storage

            rows = compile_selection(predicate, table.schema)(Batch(source, table.row_weight)).rows
        selection = entries[predicate] = Selection(rows, served, table.schema, {}, {})
        if len(entries) > MAX_ENTRIES_PER_TABLE:
            del entries[next(iter(entries))]
            self.evictions += 1
        return selection

    def drop_table(self, table_name: str) -> None:
        """``table_name`` changed: forget its selections (the next request
        recomputes; holders keep their snapshot)."""
        for table in [t for t in self._tables if t.name == table_name]:
            del self._tables[table]

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
            "rows": sum(len(s.rows) for s in held),
        }
