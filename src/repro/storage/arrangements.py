"""Shared join arrangements: the per-(table, key column) facts every
build-side consumer agrees on.

Following *Shared Arrangements* (McSherry et al., PAPERS.md) there is ONE
indexed representation of a dimension's selected tuples that every
operator reads -- the :class:`~repro.storage.selections.SelectionMemo` a
:class:`~repro.storage.manager.StorageManager` owns.  What lives here is
the part that does not depend on a predicate or a run: whether a table's
key column is *unique* (dimension tables keyed by primary key -- the
star-schema common case).  Unique base keys make every filtered subset's
``key -> row`` mapping independent of build insertion order, which is
what lets circularly-rotated build scans share one view; consumers of a
non-unique key fall back to a private build.

Determinism contract: sharing never changes a simulated tick.  Every
consumer keeps yielding the exact charges of a private build -- build-
input page reads, hashing/insert cycles, admission scans -- and only the
*host-side Python data structure* is reused.

Lifecycle: the process-wide :data:`ARRANGEMENTS` cache hands out pinned
(refcounted) arrangements via :meth:`ArrangementCache.acquire`; holders
:meth:`~ArrangementCache.release` when done.  ``StorageManager.
notify_update`` calls :meth:`ArrangementCache.invalidate_table`: the
cache entry is dropped so the *next* acquirer rebuilds against fresh
data, while concurrent holders keep the object they pinned.  Its
``builds`` / ``hits`` counters are host-side process state (the layered
benchmark and the shard tier's ``arrange_hits`` read them); they never
enter a simulated metrics tree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.table import Table

__all__ = ["ARRANGEMENTS", "Arrangement", "ArrangementCache"]


class Arrangement:
    """What is true of ``table`` keyed by ``key_column`` whatever the
    predicate: computed from the key column vector, no per-row state."""

    __slots__ = ("table", "key_column", "unique", "refcount")

    def __init__(self, table: "Table", key_column: str):
        self.table = table
        self.key_column = key_column
        keys = table.columns()[table.schema.index(key_column)]
        self.unique = len(set(keys)) == len(keys)
        self.refcount = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Arrangement {self.table.name}.{self.key_column}"
            f" unique={self.unique} rc={self.refcount}>"
        )


class ArrangementCache:
    """Process-wide refcounted cache of :class:`Arrangement` objects.

    Keyed by ``(table name, key column)`` with *object identity*
    verification: a regenerated dataset produces new ``Table`` objects
    under old names, and a stale entry is then evicted and rebuilt.
    Single-threaded by design, like every other host-side structure here:
    engine "threads" are simulated generators, and each shard worker
    process owns its own (fork-COW initialized) cache."""

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], Arrangement] = {}
        self.hits = 0
        self.builds = 0
        self.evictions = 0
        self.invalidations = 0

    # -- acquisition ----------------------------------------------------
    def acquire(self, table: "Table", key_column: str) -> Arrangement:
        """Pin (refcount) the arrangement for ``(table, key_column)``,
        building it on first demand.  Callers must :meth:`release`."""
        key = (table.name, key_column)
        arr = self._entries.get(key)
        if arr is not None and arr.table is table:
            self.hits += 1
            arr.refcount += 1
            return arr
        if arr is not None:
            # Same name, different table object: the dataset was rebuilt;
            # drop the stale entry.
            self.evictions += 1
        arr = Arrangement(table, key_column)
        self._entries[key] = arr
        self.builds += 1
        arr.refcount += 1
        return arr

    def release(self, arr: Arrangement) -> None:
        """Unpin one holder.  The arrangement stays cached for the next
        acquirer; refcounts only track live readers."""
        if arr.refcount > 0:
            arr.refcount -= 1

    # -- invalidation ---------------------------------------------------
    def invalidate_table(self, table_name: str) -> int:
        """A base table changed: drop its arrangements so the next query
        rebuilds.  Concurrent holders keep what they pinned (exactly the
        semantics of the result cache's ``invalidate_table``, whose
        ``StorageManager.notify_update`` hook calls this).  Returns the
        number of arrangements dropped."""
        stale = [k for k in self._entries if k[0] == table_name]
        for k in stale:
            del self._entries[k]
        self.evictions += len(stale)
        self.invalidations += len(stale)
        return len(stale)

    # -- introspection --------------------------------------------------
    def get(self, table_name: str, key_column: str) -> Arrangement | None:
        """The cached arrangement (unpinned peek), or None."""
        return self._entries.get((table_name, key_column))

    def pinned(self) -> int:
        """Total live pins across cached arrangements."""
        return sum(a.refcount for a in self._entries.values())

    def stats(self) -> dict[str, int]:
        """Counter snapshot (the layered benchmark's adapter reads
        ``builds`` and ``hits``)."""
        return {
            "hits": self.hits,
            "builds": self.builds,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "entries": len(self._entries),
        }


#: The process-wide cache every consumer shares (QPipe hash joins, CJOIN
#: admission, shard prewarm + workers).
ARRANGEMENTS = ArrangementCache()
