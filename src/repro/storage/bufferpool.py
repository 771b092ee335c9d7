"""Buffer pool with LRU replacement.

The unit of residency is the generated page (a stand-in for the run of real
32 KB pages it represents; see DESIGN.md).  Each access charges per-page
bookkeeping CPU under a latch, so many concurrent scanner threads contend --
one of the degradation mechanisms the paper attributes to the query-centric
model ("scanner threads compete for bringing pages into the buffer pool").
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Iterator

from repro.sim.commands import BLOCK
from repro.sim.sync import Lock
from repro.storage.cache import OsPageCache
from repro.storage.page import Page

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.costmodel import CostModel
    from repro.sim.engine import Simulator
    from repro.storage.table import Table


class BufferPool:
    """Byte-capacity LRU buffer pool above the OS page cache."""

    def __init__(
        self,
        sim: "Simulator",
        cost: "CostModel",
        capacity_bytes: float,
        os_cache: OsPageCache,
    ):
        self.sim = sim
        self.cost = cost
        self.capacity_bytes = capacity_bytes
        self.os_cache = os_cache
        self._resident: OrderedDict[tuple[str, int], float] = OrderedDict()
        self._bytes = 0.0
        self._latch = Lock(sim, name="bufferpool", charge=cost.bufferpool_latch_charge)
        # Fixed per-page lookup charge (the cost model's instance).
        self._page_charge = cost.bufferpool_lookup_charge
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def read_page(
        self,
        table: "Table",
        page_index: int,
        ram_resident: bool = False,
        direct_io: bool = False,
        sequential: bool = True,
        latch_prepaid: bool = False,
    ) -> Iterator[Any]:
        """Fetch a page (generator); returns the :class:`Page`.

        ``ram_resident`` models the paper's RAM-drive experiments: the page
        is always a hit and no I/O is possible.  ``direct_io`` bypasses the
        OS cache (but not the buffer pool -- Shore-MT still buffers).
        ``latch_prepaid`` means the caller already charged the cost model's
        ``bufferpool_latch_charge`` (None when acquisition is free) as the
        tail of the CPU command it yielded right before this call -- legal
        because that charge is the first thing read here yields, so the
        latch is still taken when the charge completes."""
        page = table.page(page_index)
        key = (table.name, page_index)
        # Inline latch protocol (one acquisition per page read); the yields
        # match ``yield from self._latch.acquire()`` exactly.
        latch = self._latch
        me = self.sim.current
        if not latch_prepaid and latch.charge is not None:
            yield latch.charge
        if not latch.take_or_enqueue(me):
            yield BLOCK
            latch.confirm_after_block(me)
        try:
            yield self._page_charge
            if ram_resident:
                self.hits += 1
                self.sim.metrics.bump("bufferpool_hits")
                return page
            if key in self._resident:
                self.hits += 1
                self.sim.metrics.bump("bufferpool_hits")
                self._resident.move_to_end(key)
                return page
            self.misses += 1
            self.sim.metrics.bump("bufferpool_misses")
        finally:
            self._latch.release()
        # I/O happens outside the latch (Shore-MT releases during fetch).
        if direct_io:
            yield from self.os_cache.read_direct(page.real_bytes, sequential)
        else:
            yield from self.os_cache.read(key, page.real_bytes, sequential)
        yield from self._latch.acquire()
        try:
            self._insert(key, page.real_bytes)
        finally:
            self._latch.release()
        return page

    # ------------------------------------------------------------------
    def _insert(self, key: tuple[str, int], nbytes: float) -> None:
        if key in self._resident:
            self._resident.move_to_end(key)
            return
        self._resident[key] = nbytes
        self._bytes += nbytes
        while self._bytes > self.capacity_bytes and len(self._resident) > 1:
            _old, old_bytes = self._resident.popitem(last=False)
            self._bytes -= old_bytes
