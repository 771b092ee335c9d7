"""Simulation tracing: what every thread did, when.

Attach a :class:`Tracer` to a simulator to record thread lifecycle events
(spawn, CPU bursts, I/O, blocking, completion) with simulated timestamps.
Useful for debugging engine pipelines ("who is the producer waiting on?"),
for the deadlock reports' context, and for rendering per-thread timelines.

The tracer is the simulator's *tap*: :meth:`Tracer.attach` stores it in
``Simulator.tap`` and the event loop then reports every yielded command and
every thread exit to it; detach clears the attribute.  Unattached, a run
pays one ``is None`` test per resumed command and nothing else, and an
attached tracer only observes -- the traced run executes the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.sim.commands import BLOCK, CpuCommand, IoCommand, SleepCommand

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.task import SimThread

#: Ring-buffer bound of a :class:`Tracer`; the oldest events are dropped
#: beyond it.
MAX_EVENTS = 100_000


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    time: float
    thread: str
    kind: str  # 'cpu' | 'io' | 'sleep' | 'block' | 'done' | 'failed'
    detail: str = ""

    def __str__(self) -> str:
        return f"[{self.time:12.6f}] {self.thread:<32s} {self.kind:<6s} {self.detail}"


class Tracer:
    """Records thread events from a simulator.

    Parameters
    ----------
    sim:
        The simulator to trace.
    thread_filter:
        Optional predicate on thread names; events from non-matching
        threads are not recorded.
    """

    def __init__(
        self,
        sim: "Simulator",
        thread_filter: Callable[[str], bool] | None = None,
    ):
        self.sim = sim
        self.thread_filter = thread_filter
        self.events: list[TraceEvent] = []
        self.dropped = 0

    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        return self.sim.tap is self

    def attach(self) -> "Tracer":
        """Become the simulator's tap; returns self."""
        if self.sim.tap is not None:
            raise RuntimeError("tracer already attached")
        self.sim.tap = self
        return self

    def detach(self) -> None:
        """Stop observing the simulator."""
        if self.attached:
            self.sim.tap = None

    def __enter__(self) -> "Tracer":
        return self.attach()

    def __exit__(self, *exc: Any) -> None:
        self.detach()

    # ------------------------------------------------------------------
    def on_command(self, thread: "SimThread", cmd: Any) -> None:
        """Tap entry point: ``thread`` yielded ``cmd``.  A CPU command is
        recorded with the total the pool receives and the categories of
        all its parts, in part order."""
        if isinstance(cmd, CpuCommand):
            categories = dict.fromkeys((cmd.category, *(category for _, category in cmd.rest)))
            self._record(thread.name, "cpu", f"{cmd.total:.3g} cycles [{', '.join(categories)}]")
        elif isinstance(cmd, IoCommand):
            self._record(thread.name, "io", f"{cmd.nbytes:.3g} B")
        elif isinstance(cmd, SleepCommand):
            self._record(thread.name, "sleep", f"{cmd.delay:.3g} s")
        elif cmd is BLOCK:
            self._record(thread.name, "block")

    def on_finish(self, thread: "SimThread", error: BaseException | None) -> None:
        """Tap entry point: ``thread`` returned or raised ``error``."""
        if error is not None:
            self._record(thread.name, "failed", repr(error))
        else:
            self._record(thread.name, "done")

    def _record(self, thread: str, kind: str, detail: str = "") -> None:
        if self.thread_filter is not None and not self.thread_filter(thread):
            return
        if len(self.events) >= MAX_EVENTS:
            del self.events[0]
            self.dropped += 1
        self.events.append(TraceEvent(self.sim.now, thread, kind, detail))

    # ------------------------------------------------------------------
    def render(self, limit: int | None = None) -> str:
        """The trace as text, newest-last."""
        events = self.events if limit is None else self.events[-limit:]
        header = f"# {len(self.events)} events ({self.dropped} dropped)"
        return "\n".join([header, *(str(e) for e in events)])

    def summary(self) -> dict[str, dict[str, int]]:
        """Per-thread event-kind counts."""
        out: dict[str, dict[str, int]] = {}
        for e in self.events:
            out.setdefault(e.thread, {}).setdefault(e.kind, 0)
            out[e.thread][e.kind] += 1
        return out
