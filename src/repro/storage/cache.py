"""OS page-cache model.

Sits between the buffer pool and the disk.  File-system caching matters to
the paper in two places (Section 5.2.2, Figure 13): it coalesces and
read-aheads sequential scans, masking the CJOIN preprocessor's per-tuple
overhead, and it absorbs repeated dimension-table scans during CJOIN
admission.  ``direct_io`` reads bypass this cache entirely, which is how the
paper isolates the preprocessor overhead.

The cache is a byte-capacity LRU over (table, page) keys.  Hits cost nothing
(the buffer pool layer already charges its own CPU); misses go to the disk
device in simulated time.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Iterator

from repro.sim.commands import IO

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class OsPageCache:
    """LRU file-system cache in front of one disk device."""

    def __init__(self, sim: "Simulator", capacity_bytes: float, device: str = "disk"):
        if capacity_bytes < 0:
            raise ValueError("capacity must be >= 0")
        self.sim = sim
        self.capacity_bytes = capacity_bytes
        self.device = device
        self._resident: OrderedDict[tuple[str, int], float] = OrderedDict()
        self._bytes = 0.0
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def read(self, key: tuple[str, int], nbytes: float, sequential: bool = True) -> Iterator[Any]:
        """Read a page through the cache (generator: may block on disk)."""
        if key in self._resident:
            self.hits += 1
            self.sim.metrics.bump("os_cache_hits")
            self._resident.move_to_end(key)
            return
        self.misses += 1
        self.sim.metrics.bump("os_cache_misses")
        yield IO(self.device, nbytes, sequential)
        self._insert(key, nbytes)

    def read_direct(self, nbytes: float, sequential: bool = True) -> Iterator[Any]:
        """Direct I/O: bypass the cache (no admission, no hit)."""
        yield IO(self.device, nbytes, sequential)

    # ------------------------------------------------------------------
    def _insert(self, key: tuple[str, int], nbytes: float) -> None:
        if nbytes > self.capacity_bytes:
            return  # page larger than the whole cache: don't cache
        if key in self._resident:
            self._resident.move_to_end(key)
            return
        self._resident[key] = nbytes
        self._bytes += nbytes
        while self._bytes > self.capacity_bytes and self._resident:
            _old, old_bytes = self._resident.popitem(last=False)
            self._bytes -= old_bytes
