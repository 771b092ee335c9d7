"""Processor-sharing ("fluid") pools: the CPU and the disk.

The simulated server has two shared resources, and both are modelled the
same way: every member of a pool progresses at the same rate, and that
rate depends only on how many members there are.  They differ in the
per-member rate at ``n`` members (:meth:`MachineSpec.cpu_rate
<repro.sim.machine.MachineSpec.cpu_rate>`, :meth:`DiskSpec.rate
<repro.sim.machine.DiskSpec.rate>`) and in ``width``, the number of
members that count as busy (cores for the CPU, 1 for the disk):

* a query-centric engine with more runnable threads than cores (e.g. 256
  concurrent plans on 24 cores) sees per-thread slowdown of ``R / cores``;
* a serialized producer (push-based SP) caps utilization at a few cores no
  matter how many consumers wait;
* many interleaved disk streams thrash the arms, so N independent table
  scans collectively get far less bandwidth than one circular scan.

Completion is O(log n) per event via a *cumulative service* counter.
``service`` is the work (cycles or bytes) every member has received since
the pool was created.  A member entering with ``w`` units of work at
service level ``S`` completes when ``service == S + w``; membership changes
only rescale ``d(service)/dt``, never the completion *order*, so a heap
keyed by target service level suffices.  The simulator inlines the enqueue
and the completion service (``Simulator._resume`` / ``_service_pool``);
the pool holds their state, the memoized rates and ``advance``.
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.task import SimThread


class FluidPool:
    """A processor-sharing pool whose members each progress at
    ``rate(n)`` units/second while it holds ``n`` members."""

    def __init__(self, width: int, rate: Callable[[int], float]):
        self.width = width
        self._rate = rate
        self.service = 0.0  # per-member cumulative service
        self._last_update = 0.0
        # Memoized per-member rates indexed by member count (index 0 is a
        # placeholder: an empty pool makes no progress).
        self._rates: list[float] = [0.0]
        # (target service, seq, thread, on_done); the simulator's entries
        # carry ``on_done=None`` and completion resumes ``thread``
        self._heap: list[tuple[float, int, "SimThread", Callable[[], None] | None]] = []
        self._seq = 0
        #: Completion slot, owned by the simulator: the time of the pool's
        #: next completion as of its last membership change (inf = idle).
        self.armed_when = inf
        # ---- metrics -------------------------------------------------
        self.util_integral = 0.0  # integral of min(members, width) over time
        self.busy_time = 0.0  # time with >= 1 member
        self.bytes_delivered = 0.0  # the disk's un-inflated bytes read

    @property
    def runnable(self) -> int:
        """Number of members currently in the pool."""
        return len(self._heap)

    def _rate_for(self, n: int) -> float:
        """The per-member rate at ``n`` members, memoized: each distinct
        ``n`` is computed exactly once -- same expression, same float -- and
        hot paths index the memo table directly."""
        rates = self._rates
        while len(rates) <= n:
            rates.append(self._rate(len(rates)))
        return rates[n]

    def advance(self, now: float) -> None:
        """Bring the service counter (and metrics) up to simulated ``now``."""
        dt = now - self._last_update
        if dt < 0:
            raise AssertionError(f"time went backwards: {self._last_update} -> {now}")
        if dt > 0:
            n = len(self._heap)
            if n:
                self.service += self._rate_for(n) * dt
                self.util_integral += min(n, self.width) * dt
                self.busy_time += dt
            self._last_update = now
