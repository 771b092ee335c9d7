"""Shared Pages Lists (SPL): pull-based sharing for Simultaneous Pipelining.

This is the paper's Section 4 contribution.  An SPL is a bounded linked list
of pages with **one producer and many consumers**: the producer appends at
the head and pays only its own append cost; each consumer walks the list
independently and pays its own read cost.  Sharing therefore adds *nothing*
to the producer's critical path -- the serialization point of push-based SP
disappears, and SP becomes beneficial at every concurrency level.

Design elements from the paper's Figure 8:

* a lock (charged as ``locks`` CPU per operation; contention is modelled by
  the lock's wait queue),
* per-page atomic reader counters -- the last consumer deletes the page,
* a bounded maximum size -- the producer blocks when consumers lag,
* per-consumer points of entry and page budgets for the **linear WoP**:
  a consumer joining a circular scan mid-stream is addressed exactly
  ``num_pages`` pages from its entry point; the page on which its budget
  reaches zero records it as a *finishing packet* and it stops being
  addressed by subsequent pages.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Iterator

from repro.sim.commands import BLOCK
from repro.sim.sync import Condition, Lock
from repro.storage.page import Batch

from repro.engine.exchange import END

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.costmodel import CostModel
    from repro.sim.engine import Simulator

_spl_ids = itertools.count()


class _SplPage:
    __slots__ = ("batch", "readers")

    def __init__(self, batch: Batch, readers: int):
        self.batch = batch
        self.readers = readers


class SplConsumer:
    """One consumer's cursor into an SPL."""

    __slots__ = (
        "spl",
        "next_seq",
        "addressed",
        "read_count",
        "budget",
        "closed_for_new",
        "entry_seq",
        "deferred",
        "lock_prepaid",
    )

    def __init__(self, spl: "SharedPagesList", entry_seq: int, budget: int | None):
        self.spl = spl
        self.entry_seq = entry_seq  # point of entry (paper 4.2)
        self.next_seq = entry_seq
        self.addressed = 0  # pages emitted while this consumer was active
        self.read_count = 0
        self.budget = budget  # pages still to be addressed; None = unbounded
        self.closed_for_new = budget == 0
        self.deferred = False  # read charges handed to the caller to fuse
        self.lock_prepaid = False  # next read's lock charge already metered

    def read(self) -> Iterator[Any]:
        # Plain call returning the SPL's generator: ``yield from`` drives it
        # identically, without an extra delegating frame per page read.
        return self.spl.read(self)

    def defer_read_charge(self):
        """Opt this consumer into *deferred* per-page read charges.
        ``read`` then returns each page without yielding its
        ``spl_read_page`` charge; the caller must fuse the returned command
        in front of the very next CPU charge it yields after every
        successful (non-END) read -- everything in between must be pure
        computation, so nothing observable moves relative to the charge."""
        self.deferred = True
        return self.spl._read_charge

    def prepay_lock_charge(self):
        """The lock charge of this consumer's *next* ``read`` may be fused
        as the last part of the command the caller yields right before that
        read -- ``take_or_enqueue`` still runs when that command completes,
        and only pure computation separates the two.  Returns the lock
        charge to fuse, or None for a cost-free lock.  The caller must set
        ``lock_prepaid`` each time it actually fuses the charge, and must
        keep reading until END (the END-returning read consumes the final
        prepaid charge, as a separately yielded one would have been paid)."""
        return self.spl._lock.charge


class SharedPagesList:
    """Single-producer(*) multi-consumer bounded list of pages -- the
    pull-model exchange, with the same interface as :class:`FifoExchange`.

    (*) The CJOIN distributor uses several distributor-part threads feeding
    one query's output; emission is lock-protected, so multiple producers
    interleave safely -- ``close`` must still be called exactly once."""

    kind = "spl"

    def __init__(
        self,
        sim: "Simulator",
        cost: "CostModel",
        max_pages: int,
        name: str | None = None,
    ):
        if max_pages < 1:
            raise ValueError("max_pages must be >= 1")
        self.sim = sim
        self.cost = cost
        self.max_pages = max_pages
        self.name = name or f"spl{next(_spl_ids)}"
        self._pages: dict[int, _SplPage] = {}
        self._head_seq = 0
        self._consumers: list[SplConsumer] = []
        self._producer_done = False
        self._lock = Lock(sim, f"{self.name}.lock", charge=cost.spl_latch_charge)
        self._not_empty = Condition(sim, f"{self.name}.ne")
        self._not_full = Condition(sim, f"{self.name}.nf")
        self.pages_emitted = 0
        # The cost model's fixed charges: every SPL of a run yields the
        # same instances, so the fusions below are memo hits.
        self._read_charge = cost.spl_read_charge
        #: The emit charge, fused with the list lock's acquire charge when
        #: the lock has one (consumers likewise defer their read charge
        #: into the next command they yield).
        emit = cost.spl_emit_charge
        latch = cost.spl_latch_charge
        self._emit_charge = cost.fused(emit, latch) if latch is not None else emit

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._producer_done

    @property
    def active_consumers(self) -> int:
        """Consumers still being addressed by new pages."""
        return sum(1 for c in self._consumers if not c.closed_for_new)

    def open_reader(self, budget: int | None = None) -> SplConsumer:
        """Add a consumer at the current head (its point of entry)."""
        if self._producer_done:
            raise RuntimeError(f"open_reader on closed exchange {self.name!r}")
        consumer = SplConsumer(self, self._head_seq, budget)
        self._consumers.append(consumer)
        return consumer

    # ------------------------------------------------------------------
    def emit(self, batch: Batch, lead=None) -> Iterator[Any]:
        """Producer: append one page.  Blocks while the list is at its
        maximum size.  The producer pays only its own append cost.

        ``lead`` is an extra CPU charge the producer wants
        metered immediately before the emit charge -- e.g. a scan's
        per-page cycles.  It is fused in front of the emit+lock command,
        which is legal because the producer does nothing observable
        between those yields."""
        if self._producer_done:
            raise RuntimeError(f"emit on closed SPL {self.name!r}")
        lock = self._lock
        me = self.sim.current
        # (Lead +) emit + lock charge in one command, then the inline lock
        # protocol: ``take_or_enqueue`` runs when the command completes.
        charge = self._emit_charge
        yield self.cost.fused(lead, charge) if lead is not None else charge
        if not lock.take_or_enqueue(me):
            yield BLOCK
            lock.confirm_after_block(me)
        try:
            while len(self._pages) >= self.max_pages:
                lock.release()
                yield from self._not_full.wait()
                if lock.charge is not None:
                    yield lock.charge
                if not lock.take_or_enqueue(me):
                    yield BLOCK
                    lock.confirm_after_block(me)
            active = [c for c in self._consumers if not c.closed_for_new]
            if active:
                self._pages[self._head_seq] = _SplPage(batch, len(active))
                for c in active:
                    c.addressed += 1
                    if c.budget is not None:
                        c.budget -= 1
                        if c.budget == 0:
                            # Finishing packet: stop addressing it.
                            c.closed_for_new = True
            self._head_seq += 1
            self.pages_emitted += 1
            self._not_empty.notify_all()
        finally:
            self._lock.release()

    def close(self) -> None:
        """Producer finished; consumers drain and then see END."""
        self._producer_done = True
        self._not_empty.notify_all()

    # ------------------------------------------------------------------
    def read(self, consumer: SplConsumer) -> Iterator[Any]:
        """Consumer: fetch the next page addressed to it, or END.

        The lock protocol is inlined (a consumer takes the lock once per
        page); the yielded command sequence is exactly what
        ``yield from self._lock.acquire()`` would produce."""
        lock = self._lock
        charge = lock.charge
        me = self.sim.current
        if consumer.lock_prepaid:
            # The caller fused this read's lock charge into its previous
            # command (see ``prepay_lock_charge``); it completed
            # at this very instant, so go straight to the acquisition.
            consumer.lock_prepaid = False
            prepaid = True
        else:
            prepaid = False
        while True:
            if charge is not None and not prepaid:
                yield charge
            prepaid = False
            if not lock.take_or_enqueue(me):
                yield BLOCK
                lock.confirm_after_block(me)
            if consumer.read_count < consumer.addressed:
                page = self._pages[consumer.next_seq]
                batch = page.batch
                page.readers -= 1
                if page.readers == 0:
                    del self._pages[consumer.next_seq]
                    self._not_full.notify_all()
                consumer.next_seq += 1
                consumer.read_count += 1
                lock.release()
                if consumer.deferred:
                    # The caller fuses the read charge in front of its next
                    # yield (see ``defer_read_charge``).
                    return batch
                yield self._read_charge
                return batch
            done = consumer.closed_for_new or self._producer_done
            lock.release()
            if done:
                return END
            yield from self._not_empty.wait()
