"""Simulation tracing: what every thread did, when.

Attach a :class:`Tracer` to a simulator to record thread lifecycle events
(spawn, CPU bursts, I/O, blocking, completion) with simulated timestamps.
Useful for debugging engine pipelines ("who is the producer waiting on?"),
for the deadlock reports' context, and for rendering per-thread timelines.

The tracer hooks the command-dispatch path non-invasively: it wraps
:meth:`Simulator._dispatch` and :meth:`Simulator._finish`; detach restores
the originals.  Tracing is off unless explicitly attached (zero overhead on
normal runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.sim.commands import BLOCK, CpuCommand, IoCommand, SleepCommand

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.task import SimThread


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
    max_events:
        Ring-buffer bound; the oldest events are dropped beyond it.
    thread_filter:
        Optional predicate on thread names; events from non-matching
        threads are not recorded.
    """

    def __init__(
        self,
        sim: "Simulator",
        max_events: int = 100_000,
        thread_filter: Callable[[str], bool] | None = None,
    ):
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.sim = sim
        self.max_events = max_events
        self.thread_filter = thread_filter
        self.events: list[TraceEvent] = []
        self.dropped = 0
        self._orig_dispatch: Any = None
        self._orig_finish: Any = None

    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        return self._orig_dispatch is not None

    def attach(self) -> "Tracer":
        """Hook the simulator's dispatch/finish paths; returns self."""
        if self.attached:
            raise RuntimeError("tracer already attached")
        sim = self.sim
        self._orig_dispatch = sim._dispatch
        self._orig_finish = sim._finish

        def dispatch(thread: "SimThread", cmd: Any) -> None:
            self._record_command(thread, cmd)
            self._orig_dispatch(thread, cmd)

        def finish(thread: "SimThread", result: Any = None, error: Any = None) -> None:
            self._record(
                thread.name,
                "failed" if error is not None else "done",
                repr(error) if error is not None else "",
            )
            self._orig_finish(thread, result=result, error=error)

        sim._dispatch = dispatch  # type: ignore[method-assign]
        sim._finish = finish  # type: ignore[method-assign]
        # _resume's inline CPU branch would bypass the wrapper; disable it
        # so the hook sees every command.
        sim._fast_resume = False
        return self

    def detach(self) -> None:
        """Restore the simulator's original dispatch/finish paths."""
        if not self.attached:
            return
        self.sim._dispatch = self._orig_dispatch  # type: ignore[method-assign]
        self.sim._finish = self._orig_finish  # type: ignore[method-assign]
        self.sim._fast_resume = "_dispatch" not in self.sim.__dict__
        self._orig_dispatch = None
        self._orig_finish = None

    def __enter__(self) -> "Tracer":
        return self.attach()

    def __exit__(self, *exc: Any) -> None:
        self.detach()

    # ------------------------------------------------------------------
    def _record_command(self, thread: "SimThread", cmd: Any) -> None:
        if isinstance(cmd, CpuCommand):
            self._record(thread.name, "cpu", f"{cmd.cycles:.3g} cycles [{cmd.category}]")
        elif isinstance(cmd, IoCommand):
            mode = "seq" if cmd.sequential else "rand"
            self._record(thread.name, "io", f"{cmd.nbytes:.3g} B {mode} on {cmd.device}")
        elif isinstance(cmd, SleepCommand):
            self._record(thread.name, "sleep", f"{cmd.delay:.3g} s")
        elif cmd is BLOCK:
            self._record(thread.name, "block")

    def _record(self, thread: str, kind: str, detail: str = "") -> None:
        if self.thread_filter is not None and not self.thread_filter(thread):
            return
        if len(self.events) >= self.max_events:
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
