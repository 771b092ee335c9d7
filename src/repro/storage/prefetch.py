"""Circular page source with optional read-ahead.

Used by both the table-scan stage drivers and the CJOIN preprocessor.  With
read-ahead (the OS behavior on buffered sequential scans) a daemon fetcher
keeps up to :data:`PREFETCH_WINDOW` pages in flight, overlapping disk time with
the consumer's CPU work; with direct I/O (or a RAM-resident database) reads
are synchronous.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.sim.sync import Channel

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.storage.manager import StorageManager
    from repro.storage.page import Page
    from repro.storage.table import Table

#: Pages the read-ahead fetcher keeps in flight.
PREFETCH_WINDOW = 4


class PageSource:
    """Yields a table's pages circularly, read-ahead when beneficial."""

    def __init__(
        self,
        sim: "Simulator",
        storage: "StorageManager",
        table: "Table",
        start: int = 0,
        name: str = "pagesource",
    ):
        if table.num_pages == 0:
            raise ValueError(f"table {table.name!r} has no pages")
        self.sim = sim
        self.storage = storage
        self.table = table
        self.position = start % table.num_pages
        self._chan: Channel | None = None
        if not storage.ram_resident and not storage.config.direct_io:
            self._chan = Channel(sim, capacity=PREFETCH_WINDOW, name=f"{name}.ra")
            sim.spawn(self._read_ahead(self.position), name=f"{name}.fetcher", daemon=True)

    # ------------------------------------------------------------------
    def next(self, latch_prepaid: bool = False) -> Iterator[Any]:
        """Generator: fetch the page at the current position and advance.

        ``latch_prepaid`` is only meaningful on a source without read-ahead
        (``next`` then reads synchronously through the buffer pool): it
        means the caller fused the buffer-pool latch charge into the tail
        of its preceding CPU command (see ``BufferPool.read_page``)."""
        if self._chan is not None:
            page = yield from self._chan.get()
        else:
            page = yield from self.storage.read_page(
                self.table, self.position, latch_prepaid=latch_prepaid
            )
        self.position = (self.position + 1) % self.table.num_pages
        return page

    def close(self) -> None:
        """Stop the read-ahead fetcher (if any)."""
        if self._chan is not None:
            self._chan.close()

    # ------------------------------------------------------------------
    def _read_ahead(self, start: int) -> Iterator[Any]:
        pos = start
        npages = self.table.num_pages
        chan = self._chan
        while not chan.closed:
            page = yield from self.storage.read_page(self.table, pos)
            try:
                yield from chan.put(page)
            except RuntimeError:
                return  # consumer closed the channel mid-put
            pos = (pos + 1) % npages
