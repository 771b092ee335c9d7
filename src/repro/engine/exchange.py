"""Data exchange between packets: the push-based FIFO model.

The original QPipe exchanges pages through per-consumer FIFO buffers with a
push-only model: during SP, the host packet's thread *copies* every result
page into every satellite's FIFO.  That copy loop is the serialization point
Section 4 of the paper identifies -- it sits on the producer's critical path
and grows linearly with the number of satellites.

:class:`FifoExchange` implements that model.  ``open_reader`` may be called
multiple times; the first reader is the packet's own output FIFO (no copy
charge), each further reader is a satellite FIFO that the producer pays
``copy_tuple x rows`` cycles to fill.  Readers may carry a page *budget*
(used by circular scans: a consumer joining mid-scan needs exactly
``num_pages`` pages from its point of entry).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.sim.sync import Condition
from repro.storage.page import ColumnBatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class _EndOfStream:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "END"


#: Returned by ``Reader.read`` when the stream is exhausted.
END = _EndOfStream()


class _FifoQueue:
    """A bounded queue of batches with sim-time blocking."""

    def __init__(self, sim: "Simulator", capacity: int, name: str):
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: list[ColumnBatch] = []
        self._closed = False
        self._not_empty = Condition(sim, f"{name}.ne")
        self._not_full = Condition(sim, f"{name}.nf")

    def put(self, batch: ColumnBatch) -> Iterator[Any]:
        """Append a batch; blocks while full (drops silently once closed)."""
        while len(self._items) >= self.capacity and not self._closed:
            yield from self._not_full.wait()
        if self._closed:
            return  # consumer went away; drop silently
        self._items.append(batch)
        self._not_empty.notify_all()

    def get(self) -> Iterator[Any]:
        """Next batch, or END once closed and drained."""
        while not self._items:
            if self._closed:
                return END
            yield from self._not_empty.wait()
        batch = self._items.pop(0)
        self._not_full.notify_all()
        return batch

    def close(self) -> None:
        """Close: wake producers and consumers; further gets drain then END."""
        self._closed = True
        self._not_empty.notify_all()
        self._not_full.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed


class FifoReader:
    """Consumer handle of one FIFO."""

    def __init__(self, queue: _FifoQueue):
        self._queue = queue

    def read(self) -> Iterator[Any]:
        batch = yield from self._queue.get()
        return batch


class _ConsumerSlot:
    __slots__ = ("queue", "budget", "is_primary")

    def __init__(self, queue: _FifoQueue, budget: int | None, is_primary: bool):
        self.queue = queue
        self.budget = budget
        self.is_primary = is_primary


class FifoExchange:
    """Push-based page exchange with per-satellite copy costs."""

    kind = "fifo"

    def __init__(self, sim: "Simulator", capacity: int, name: str):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.cost = cost = sim.cost
        self.capacity = capacity
        self.name = name
        self._slots: list[_ConsumerSlot] = []
        self._closed = False
        # Fixed per-page bookkeeping charge (the cost model's instance).
        self._overhead_charge = cost.fifo_overhead_charge

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def active_consumers(self) -> int:
        return sum(
            1 for s in self._slots if not s.queue.closed and (s.budget is None or s.budget > 0)
        )

    def open_reader(self, budget: int | None = None) -> FifoReader:
        """Add a consumer FIFO (first = primary; later ones are satellites that receive copies), optionally page-budgeted."""
        if self._closed:
            raise RuntimeError(f"open_reader on closed exchange {self.name!r}")
        queue = _FifoQueue(self.sim, self.capacity, f"{self.name}.q{len(self._slots)}")
        self._slots.append(_ConsumerSlot(queue, budget, is_primary=not self._slots))
        return FifoReader(queue)

    # ------------------------------------------------------------------
    def emit(self, batch: ColumnBatch, lead=None) -> Iterator[Any]:
        """Producer: push ``batch`` to every open consumer FIFO.

        The producer thread pays the FIFO bookkeeping for its own output and
        a full copy per satellite -- the push-based serialization point.
        ``lead`` is an extra CPU charge fused in front of the
        bookkeeping charge -- legal because nothing observable happens
        between those yields."""
        overhead = self._overhead_charge
        yield self.cost.fused(lead, overhead) if lead is not None else overhead
        for slot in self._slots:
            if slot.queue.closed:
                continue
            if slot.budget is not None:
                if slot.budget <= 0:
                    continue
                slot.budget -= 1
            if slot.is_primary:
                yield from slot.queue.put(batch)
            else:
                yield self.cost.copy(len(batch), batch.weight)
                yield self._overhead_charge
                yield from slot.queue.put(batch.copy())
            if slot.budget == 0:
                slot.queue.close()

    def close(self) -> None:
        self._closed = True
        for slot in self._slots:
            slot.queue.close()
