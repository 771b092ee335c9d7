"""Synchronization primitives in simulated time.

All primitives are built on the ``BLOCK`` command plus
:meth:`Simulator.unblock`.  Methods that may block are generators and must be
invoked with ``yield from``; methods that never block are plain calls.

Because the simulator is single-threaded there are no data races -- these
primitives exist to model *waiting* (a consumer blocked on an empty FIFO, a
producer blocked on a full SPL, a thread queued on the SPL lock), which is
where the paper's serialization points live.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Iterator

from repro.sim.commands import BLOCK

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.commands import CpuCommand
    from repro.sim.engine import Simulator
    from repro.sim.task import SimThread


class Lock:
    """A FIFO mutex.  ``yield from lock.acquire()`` ... ``lock.release()``.

    Optionally yields ``charge`` (a cost-model CPU command, category
    ``locks``) per acquisition, modelling latch overhead; waiting time
    under contention is modelled by the blocking itself.  Hot paths that
    inline the acquire protocol yield (or fuse) the same instance.
    """

    def __init__(self, sim: "Simulator", name: str = "lock", charge: "CpuCommand | None" = None):
        self.sim = sim
        self.name = name
        self.charge = charge
        self._owner: "SimThread | None" = None
        self._waiters: deque["SimThread"] = deque()
        self.acquisitions = 0
        self.contentions = 0

    def take_or_enqueue(self, me: "SimThread") -> bool:
        """Post-charge half of ``acquire``: take the free lock (True) or
        queue ``me`` FIFO (False -- the caller must ``yield BLOCK`` and then
        call :meth:`confirm_after_block`).  Split out as a plain call so hot
        loops can inline the acquire protocol without a sub-generator per
        acquisition; the yielded commands are identical either way."""
        if self._owner is None:
            self._owner = me
            self.acquisitions += 1
            return True
        self.contentions += 1
        self._waiters.append(me)
        return False

    def confirm_after_block(self, me: "SimThread") -> None:
        """Second half of a contended inline acquire, after the BLOCK."""
        if self._owner is not me:  # pragma: no cover - invariant
            raise AssertionError("woken without ownership")
        self.acquisitions += 1

    def acquire(self) -> Iterator[Any]:
        """Generator: take the lock, queueing FIFO under contention."""
        me = self.sim.current
        if me is None:
            raise RuntimeError("Lock.acquire outside a simulated thread")
        if self.charge is not None:
            yield self.charge
        if not self.take_or_enqueue(me):
            yield BLOCK
            self.confirm_after_block(me)

    def release(self) -> None:
        if self._owner is None:
            raise RuntimeError(f"release of unheld lock {self.name!r}")
        if self._waiters:
            nxt = self._waiters.popleft()
            self._owner = nxt
            self.sim.unblock(nxt)
        else:
            self._owner = None


class Condition:
    """Condition variable (no associated lock needed: the simulator is
    cooperative, so predicates cannot change between check and wait within
    one thread step).  Always re-check the predicate in a loop::

        while not pred():
            yield from cond.wait()
    """

    def __init__(self, sim: "Simulator", name: str = "cond"):
        self.sim = sim
        self.name = name
        self._waiters: list["SimThread"] = []

    def wait(self) -> Iterator[Any]:
        """Generator: park until notified (re-check your predicate!)."""
        me = self.sim.current
        if me is None:
            raise RuntimeError("Condition.wait outside a simulated thread")
        self._waiters.append(me)
        yield BLOCK

    def notify_all(self) -> None:
        waiters, self._waiters = self._waiters, []
        for t in waiters:
            self.sim.unblock(t)

    def notify_one(self) -> None:
        if self._waiters:
            self.sim.unblock(self._waiters.pop(0))


class Gate:
    """A one-shot event: threads wait until somebody opens it."""

    def __init__(self, sim: "Simulator", name: str = "gate"):
        self.sim = sim
        self.name = name
        self.is_open = False
        self._cond = Condition(sim, name=f"{name}.cond")

    def wait(self) -> Iterator[Any]:
        while not self.is_open:
            yield from self._cond.wait()

    def open(self) -> None:
        self.is_open = True
        self._cond.notify_all()


class Channel:
    """A bounded FIFO channel of Python objects (work queues, not data
    pages -- data pages flow through :class:`repro.engine.fifo.FifoBuffer`
    or :class:`repro.engine.spl.SharedPagesList`).

    ``capacity=None`` means unbounded.  ``close()`` wakes all consumers;
    ``get`` returns :data:`Channel.CLOSED` once drained.
    """

    class _Closed:
        __slots__ = ()

        def __repr__(self) -> str:  # pragma: no cover
            return "Channel.CLOSED"

    CLOSED = _Closed()

    def __init__(self, sim: "Simulator", capacity: int | None = None, name: str = "chan"):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self._closed = False
        self._not_empty = Condition(sim, f"{name}.ne")
        self._not_full = Condition(sim, f"{name}.nf")

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, item: Any) -> Iterator[Any]:
        """Generator: enqueue ``item``, blocking while at capacity."""
        if self._closed:
            raise RuntimeError(f"put on closed channel {self.name!r}")
        while self.capacity is not None and len(self._items) >= self.capacity:
            yield from self._not_full.wait()
            if self._closed:
                raise RuntimeError(f"channel {self.name!r} closed while blocked on put")
        self._items.append(item)
        self._not_empty.notify_one()

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when full."""
        if self._closed:
            raise RuntimeError(f"put on closed channel {self.name!r}")
        if self.capacity is not None and len(self._items) >= self.capacity:
            return False
        self._items.append(item)
        self._not_empty.notify_one()
        return True

    def get(self) -> Iterator[Any]:
        """Generator: dequeue the next item (CLOSED once closed+drained)."""
        while not self._items:
            if self._closed:
                return Channel.CLOSED
            yield from self._not_empty.wait()
        item = self._items.popleft()
        self._not_full.notify_one()
        return item

    def close(self) -> None:
        """Close the channel and wake all blocked producers/consumers."""
        self._closed = True
        self._not_empty.notify_all()
        self._not_full.notify_all()
