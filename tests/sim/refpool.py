"""The reference pool model.

``Simulator`` inlines the pool arithmetic (``_resume``'s enqueue,
``_service_pool``'s pop and re-arm).  The methods below are the textbook
form of the same arithmetic, one call per step, and are what the inlined
form is held to: ``test_completion_slots.RefSim`` drives them on generated
schedules and compares with ``Simulator`` to the last bit, and
``test_cpu_pool`` / ``test_iodev`` pin their behaviour.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.sim.machine import DiskSpec, MachineSpec
from repro.sim.pool import FluidPool
from repro.sim.task import SimThread


class RefPool(FluidPool):
    """A fluid pool driven through explicit add / next_completion /
    pop_completed calls."""

    def add(
        self,
        now: float,
        thread: SimThread,
        amount: float,
        on_done: Callable[[], None],
    ) -> None:
        """Enter ``thread`` into the pool for ``amount`` of work; call
        ``on_done`` when the work completes.  A CPU command, fused or not,
        enters once with its ``CpuCommand.total``."""
        self.advance(now)
        target = self.service + max(amount, 0.0)
        self._seq += 1
        heapq.heappush(self._heap, (target, self._seq, thread, on_done))

    def next_completion(self, now: float) -> float | None:
        """Simulated time of the earliest completion, or None if idle."""
        self.advance(now)
        if not self._heap:
            return None
        target = self._heap[0][0]
        rate = self._rate_for(len(self._heap))
        remaining = max(target - self.service, 0.0)
        if rate == 0:  # pragma: no cover - defensive; heap nonempty => rate>0
            return None
        return now + remaining / rate

    def pop_completed(self, now: float) -> list[tuple[SimThread, Callable[[], None]]]:
        """Remove and return every thread whose work is complete at ``now``,
        in completion order; the caller invokes the callables in that
        order *after* the whole batch is popped."""
        self.advance(now)
        done: list[tuple[SimThread, Callable[[], None]]] = []
        eps = 1e-9 * max(1.0, abs(self.service))
        while self._heap and self._heap[0][0] <= self.service + eps:
            _, _, thread, on_done = heapq.heappop(self._heap)
            done.append((thread, on_done))
        return done


class RefDisk(RefPool):
    """The disk: a width-1 pool at ``spec.rate`` that meters logical bytes
    and inflates random reads."""

    def __init__(self, spec: DiskSpec):
        super().__init__(1, spec.rate)
        self.spec = spec

    def read(
        self,
        now: float,
        thread: SimThread,
        nbytes: float,
        sequential: bool,
        on_done: Callable[[], None],
    ) -> None:
        """Enqueue a read of ``nbytes`` for ``thread``."""
        charged = max(nbytes, 0.0)
        self.bytes_delivered += charged
        if not sequential:
            charged *= self.spec.random_multiplier
        self.add(now, thread, charged, on_done)


def cpu_pool(cores: int, hz: float, **oversub: float) -> RefPool:
    """The CPU pool of a machine with ``cores`` at ``hz`` (and the
    ``oversub_penalty`` given, else the default)."""
    return RefPool(cores, MachineSpec(cores=cores, hz=hz, **oversub).cpu_rate)


def disk(**spec: float) -> RefDisk:
    """The disk of ``DiskSpec(**spec)``."""
    return RefDisk(DiskSpec(**spec))
