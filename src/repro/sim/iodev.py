"""Shared-bandwidth disk device model.

The paper's storage is two 10kRPM SAS disks in RAID-0.  The dominant effects
on its experiments are:

* a *single* sequential stream gets full aggregate bandwidth;
* many *interleaved* sequential streams thrash the disk arms -- aggregate
  throughput collapses, which is precisely why one circular scan beats N
  independent table scans by 80-97% at high concurrency;
* random access pays a further multiplier.

We model a device with aggregate sequential bandwidth ``bandwidth`` bytes/s.
With ``n`` concurrent streams the device delivers
``bandwidth * interleave_efficiency(n)`` in total, split evenly, where the
efficiency decays harmonically with extra streams down to ``min_efficiency``.

The same cumulative-service trick as :class:`repro.sim.cpu.CpuPool` gives
O(log n) event handling (per-stream shares are identical, so completion
order is fixed by remaining bytes).
"""

from __future__ import annotations

import heapq
from math import inf
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.task import SimThread


class IoDevice:
    """A disk (or RAID set) with fluid bandwidth sharing.

    Parameters
    ----------
    name:
        Registration name (``"disk"`` by default in :class:`MachineSpec`).
    bandwidth:
        Aggregate sequential read bandwidth in bytes/second.
    seek_penalty:
        Per-extra-stream harmonic decay factor of aggregate efficiency:
        ``eff(n) = max(min_efficiency, 1 / (1 + seek_penalty * (n - 1)))``.
    min_efficiency:
        Floor of the interleave efficiency.
    random_multiplier:
        Bytes of a non-sequential request are inflated by this factor
        (short random reads waste rotational latency).
    """

    def __init__(
        self,
        name: str,
        bandwidth: float,
        seek_penalty: float = 0.35,
        min_efficiency: float = 0.22,
        random_multiplier: float = 4.0,
    ):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.name = name
        self.bandwidth = bandwidth
        self.seek_penalty = seek_penalty
        self.min_efficiency = min_efficiency
        self.random_multiplier = random_multiplier
        self.service = 0.0  # per-stream cumulative bytes delivered
        self._last_update = 0.0
        # Memoized per-stream rates indexed by stream count (index 0 is a
        # placeholder; _rate early-returns 0.0 for an idle device).
        self._rates: list[float] = [0.0]
        # (target service, seq, thread, on_done): the CpuPool entry shape,
        # so the simulator's inline service loop treats both pool kinds
        # uniformly.
        self._heap: list[tuple[float, int, "SimThread", Callable[[], None]]] = []
        self._seq = 0
        #: Completion slot, owned by the simulator (see CpuPool.armed_when).
        self.armed_when = inf
        # ---- metrics -------------------------------------------------
        self.bytes_delivered = 0.0  # real (un-inflated) bytes handed to readers
        self.busy_time = 0.0

    # ------------------------------------------------------------------
    def interleave_efficiency(self, n: int) -> float:
        """Fraction of peak aggregate bandwidth achieved with ``n`` streams."""
        if n <= 1:
            return 1.0
        return max(self.min_efficiency, 1.0 / (1.0 + self.seek_penalty * (n - 1)))

    @property
    def active_streams(self) -> int:
        return len(self._heap)

    def _rate(self) -> float:
        """Per-stream delivery rate in bytes/second."""
        n = len(self._heap)
        if n == 0:
            return 0.0
        rates = self._rates
        if n < len(rates):
            return rates[n]
        return self._rate_for(n)

    def _rate_for(self, n: int) -> float:
        """Compute (and memoize) the per-stream rate for ``n`` streams --
        a pure function of the stream count, so each distinct ``n`` is
        computed exactly once with the same expression (same float)."""
        rates = self._rates
        while len(rates) <= n:
            m = len(rates)
            rates.append(self.bandwidth * self.interleave_efficiency(m) / m)
        return rates[n]

    def advance(self, now: float) -> None:
        dt = now - self._last_update
        if dt < 0:
            raise AssertionError(f"time went backwards on {self.name}")
        if dt > 0:
            n = len(self._heap)
            if n:
                rate = self._rate()
                self.service += rate * dt
                self.busy_time += dt
            self._last_update = now

    # ------------------------------------------------------------------
    # Reference model (see the note in CpuPool): the simulator inlines
    # these three in ``Simulator._dispatch`` / ``_service_pool``.
    def add(
        self,
        now: float,
        thread: "SimThread",
        nbytes: float,
        sequential: bool,
        on_done: Callable[[], None],
    ) -> None:
        """Enqueue a read of ``nbytes`` for ``thread``."""
        self.advance(now)
        charged = max(nbytes, 0.0)
        self.bytes_delivered += charged
        if not sequential:
            charged *= self.random_multiplier
        target = self.service + charged
        self._seq += 1
        heapq.heappush(self._heap, (target, self._seq, thread, on_done))

    def next_completion(self, now: float) -> float | None:
        self.advance(now)
        if not self._heap:
            return None
        rate = self._rate()
        remaining = max(self._heap[0][0] - self.service, 0.0)
        if rate == 0:  # pragma: no cover - defensive
            return None
        return now + remaining / rate

    def pop_completed(self, now: float) -> list[tuple["SimThread", Callable[[], None]]]:
        self.advance(now)
        done: list[tuple["SimThread", Callable[[], None]]] = []
        eps = 1e-9 * max(1.0, abs(self.service))
        while self._heap and self._heap[0][0] <= self.service + eps:
            _, _, thread, on_done = heapq.heappop(self._heap)
            done.append((thread, on_done))
        return done

    # ------------------------------------------------------------------
    def avg_read_rate(self, window: float) -> float:
        """Average delivered read rate in bytes/second over ``window``
        (the paper's 'Avg. Read Rate (MB/s)' measurement)."""
        if window <= 0:
            return 0.0
        return self.bytes_delivered / window

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<IoDevice {self.name!r} {self.bandwidth / 1e6:.0f}MB/s streams={self.active_streams}>"
