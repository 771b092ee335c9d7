"""Storage manager: tables + buffer pool + OS cache + scan primitives.

One :class:`StorageManager` is created per simulation run (it owns sim-bound
state: the buffer pool, the OS cache, metrics).  The immutable
:class:`~repro.storage.table.Table` objects it serves are shared across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from repro.sim.machine import GB
from repro.storage.arrangements import ARRANGEMENTS
from repro.storage.bufferpool import BufferPool
from repro.storage.cache import OsPageCache
from repro.storage.selections import SelectionMemo
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.costmodel import CostModel
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class StorageConfig:
    """How the database is resident for an experiment.

    ``resident="memory"`` models the paper's RAM-drive experiments (no I/O
    at all); ``resident="disk"`` reads through buffer pool -> OS cache ->
    disk.  ``direct_io`` bypasses the OS cache (Figure 13).  The paper's
    default buffer pool is "large enough for datasets up to SF=30"; the
    SF=100 experiment shrinks it to ~10% of the database.
    """

    resident: str = "memory"
    bufferpool_bytes: float = 48 * GB
    os_cache_bytes: float = 32 * GB
    direct_io: bool = False
    #: shared result cache budget in bytes; 0 disables the cache entirely
    #: (the engines then behave byte-for-byte as before it existed)
    result_cache_bytes: float = 0.0
    #: eviction policy: 'lru' or 'benefit' (see repro.cache)
    result_cache_policy: str = "benefit"

    def __post_init__(self) -> None:
        # ``not x > 0`` rather than ``x <= 0``: NaN is rejected too.
        if self.resident not in ("memory", "disk"):
            raise ValueError("resident must be 'memory' or 'disk'")
        if not self.bufferpool_bytes > 0:
            raise ValueError("bufferpool_bytes must be positive")
        if not self.os_cache_bytes >= 0:
            raise ValueError("os_cache_bytes must be >= 0")
        if not self.result_cache_bytes >= 0:
            raise ValueError("result_cache_bytes must be >= 0")
        if self.result_cache_policy not in ("lru", "benefit"):
            raise ValueError("result_cache_policy must be 'lru' or 'benefit'")


class StorageManager:
    """Serves pages of a fixed catalog of tables under a storage config."""

    def __init__(
        self,
        sim: "Simulator",
        cost: "CostModel",
        tables: dict[str, Table],
        config: StorageConfig = StorageConfig(),
    ):
        self.sim = sim
        self.cost = cost
        self.tables = dict(tables)
        self.config = config
        self.os_cache = OsPageCache(sim, config.os_cache_bytes)
        self.bufferpool = BufferPool(sim, cost, config.bufferpool_bytes, self.os_cache)
        #: shared result cache (None when result_cache_bytes is 0).  It
        #: lives here -- not on an engine -- because the query service
        #: runs two engines over one storage manager: a result filled by the
        #: query-centric path must be visible to queries routed anywhere.
        self.result_cache = None
        if config.result_cache_bytes > 0:
            from repro.cache import ResultCache  # deferred: cache imports storage

            self.result_cache = ResultCache(
                sim, config.result_cache_bytes, config.result_cache_policy
            )
        #: memoized dimension selections; here -- not on an engine or a
        #: CJOIN pipeline -- so a predicate first seen by a QPipe join is an
        #: exact hit for a CJOIN admission over the same manager
        self.selections = SelectionMemo()

    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(f"no table {name!r}; have {sorted(self.tables)}") from None

    @property
    def ram_resident(self) -> bool:
        return self.config.resident == "memory"

    def notify_update(self, table_name: str) -> int:
        """A base table changed: invalidate every materialized result
        derived from it.  Returns how many *result-cache* entries were
        dropped.  The table's memoized selections and shared join
        arrangements are dropped too (holders finish on their snapshot;
        the next request recomputes) -- tracked by their own counters, not
        this return value.  (Tables themselves are immutable in this
        simulator; the hook exists so update-carrying workloads keep
        shared derived state consistent.)"""
        ARRANGEMENTS.invalidate_table(table_name)
        self.selections.drop_table(table_name)
        if self.result_cache is None:
            return 0
        return self.result_cache.invalidate_table(table_name)

    # ------------------------------------------------------------------
    def read_page(
        self,
        table: Table,
        page_index: int,
        sequential: bool = True,
        latch_prepaid: bool = False,
    ) -> Iterator[Any]:
        """Fetch one page under the active storage config.  Returns the
        buffer pool's generator directly (not a wrapping generator): the
        hot scan loops drive it with ``yield from``, which then skips this
        frame entirely on every resume."""
        return self.bufferpool.read_page(
            table,
            page_index,
            ram_resident=self.ram_resident,
            direct_io=self.config.direct_io,
            sequential=sequential,
            latch_prepaid=latch_prepaid,
        )
