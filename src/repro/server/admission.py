"""The admission gate: a bounded queue between arrivals and the engines.

Arrivals are open-loop -- clients do not wait for capacity -- so the only
two graceful options under overload are *bounding* (drop at the door when
the queue is full) and *shedding* (discard queued work whose deadline
already passed instead of burning resources on a response nobody is waiting
for).  Both are counted in :class:`~repro.server.metrics.ServiceMetrics`;
neither raises.

The queue itself wraps :class:`repro.sim.sync.Channel`; blocking happens in
simulated time on the dispatcher side only (``offer`` never blocks the
arrival source).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from repro.sim.sync import Channel

if TYPE_CHECKING:  # pragma: no cover
    from repro.bench.workload import QueryJob
    from repro.server.metrics import ServiceMetrics
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class QueuedQuery:
    """One admitted query waiting for dispatch."""

    seq: int
    job: "QueryJob"
    arrival_time: float
    #: absolute simulated time after which the query is shed un-run
    deadline: float | None = None

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline


class AdmissionQueue:
    """Bounded FIFO of :class:`QueuedQuery` with drop counting."""

    #: sentinel returned by :meth:`get` once the queue is closed and drained
    CLOSED = Channel.CLOSED

    def __init__(self, sim: "Simulator", capacity: int, metrics: "ServiceMetrics"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.metrics = metrics
        self._chan = Channel(sim, capacity, name="admission")

    @property
    def depth(self) -> int:
        return len(self._chan)

    def offer(self, item: QueuedQuery) -> bool:
        """Admit ``item`` if there is room; count a drop (and return False)
        otherwise.  Never blocks: the arrival source is open-loop."""
        if self._chan.try_put(item):
            self.metrics.record_admit()
            return True
        self.metrics.record_drop()
        return False

    def get(self) -> Iterator[Any]:
        """Generator: dequeue the next query (blocks in simulated time;
        returns :data:`CLOSED` once the queue is closed and drained)."""
        item = yield from self._chan.get()
        return item

    def close(self) -> None:
        self._chan.close()
