"""Simulated threads.

A :class:`SimThread` wraps a Python generator and tracks its lifecycle.  The
generator represents one OS thread of the simulated server (a QPipe stage
worker, the CJOIN preprocessor, a Volcano backend process, ...).  Threads are
created through :meth:`repro.sim.engine.Simulator.spawn`.
"""

from __future__ import annotations

import enum
from typing import Any, Generator, Iterator


class ThreadState(enum.Enum):
    """Lifecycle of a simulated thread."""

    NEW = "new"
    READY = "ready"  # resumption scheduled on the event heap
    ON_CPU = "on_cpu"  # inside the GPS core pool
    ON_IO = "on_io"  # inside a disk device pool
    SLEEPING = "sleeping"
    BLOCKED = "blocked"  # parked via BLOCK, waiting for unblock()
    DONE = "done"
    FAILED = "failed"


class SimThread:
    """One simulated thread of execution.

    Parameters
    ----------
    gen:
        The generator driving this thread.  It yields commands from
        :mod:`repro.sim.commands` and may ``return`` a final value.
    name:
        Debug name, shown in deadlock reports.
    query_id:
        Optional query attribution for per-query metrics.
    """

    __slots__ = (
        "gen",
        "name",
        "query_id",
        "state",
        "result",
        "error",
        "_joiners",
        "start_time",
        "finish_time",
    )

    def __init__(self, gen: Generator[Any, Any, Any], name: str, query_id: int | None = None):
        self.gen = gen
        self.name = name
        self.query_id = query_id
        self.state = ThreadState.NEW
        self.result: Any = None
        self.error: BaseException | None = None
        self._joiners: list["SimThread"] = []
        self.start_time: float | None = None
        self.finish_time: float | None = None

    @property
    def alive(self) -> bool:
        """True while the thread has not finished (successfully or not)."""
        return self.state not in (ThreadState.DONE, ThreadState.FAILED)

    def join(self) -> Iterator[Any]:
        """Generator primitive: block the *calling* thread until this one
        finishes.  Usage: ``result = yield from other.join()``."""
        from repro.sim.commands import BLOCK

        if self.alive:
            # The engine fills in the current thread when it sees a join
            # registration; we capture it lazily via the joiners list.
            from repro.sim.engine import Simulator

            current = Simulator.current_thread()
            self._joiners.append(current)
            yield BLOCK
        if self.error is not None:
            raise self.error
        return self.result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimThread {self.name!r} {self.state.value}>"
