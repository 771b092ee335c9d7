"""The discrete-event loop.

:class:`Simulator` owns the clock, the event heap, the GPS CPU pool and the
disk devices, and drives simulated threads (generators) by interpreting the
commands they yield.  The loop is fully deterministic: ties on the event heap
break by insertion order, a pool completion that ties a heap event runs
after it, and nothing consults wall-clock time or unseeded randomness.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Generator

from repro.sim.commands import BLOCK, CpuCommand, IoCommand, SleepCommand
from repro.sim.cpu import CpuPool
from repro.sim.iodev import IoDevice
from repro.sim.machine import PAPER_MACHINE, MachineSpec
from repro.sim.metrics import Metrics
from repro.sim.task import SimThread, ThreadState

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.trace import Tracer


class DeadlockError(RuntimeError):
    """Raised when the event heap drains while non-daemon threads are still
    blocked -- in this codebase that always means an engine bug (a buffer
    that was never closed, a lock never released)."""


class SimulationError(RuntimeError):
    """An exception escaped a simulated thread that nobody was joining."""


class Simulator:
    """Event loop for one simulated run.

    Parameters
    ----------
    machine:
        Hardware configuration; defaults to the paper's 24-core testbed.
    """

    _active: ClassVar["Simulator | None"] = None

    def __init__(self, machine: MachineSpec = PAPER_MACHINE):
        self.machine = machine
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self.cpu = CpuPool(
            machine.cores,
            machine.hz,
            oversub_penalty=machine.oversub_penalty,
            oversub_exponent=machine.oversub_exponent,
        )
        self.devices: dict[str, IoDevice] = {
            d.name: IoDevice(
                d.name,
                d.bandwidth,
                seek_penalty=d.seek_penalty,
                min_efficiency=d.min_efficiency,
                random_multiplier=d.random_multiplier,
            )
            for d in machine.disks
        }
        # Pool completions never enter the event heap: each pool keeps its
        # next-completion time in its ``armed_when`` slot and the run loop
        # fires whichever comes first of ``_heap[0]`` and the slots (ties:
        # the heap, then the pools in this order).
        self._pools: tuple[CpuPool | IoDevice, ...] = (self.cpu, *self.devices.values())
        self._rivals = {p: tuple(q for q in self._pools if q is not p) for p in self._pools}
        self.metrics = Metrics()
        #: Observer of every yielded command and thread exit
        #: (:meth:`repro.sim.trace.Tracer.attach` sets it); None = off.
        self.tap: Tracer | None = None
        self.current: SimThread | None = None
        self.threads: list[SimThread] = []
        self._daemons: set[SimThread] = set()
        self._pending_error: tuple[SimThread, BaseException] | None = None
        self._run_until: float | None = None
        # Cached metric-dict reference (refreshed at run() entry: the
        # service tier swaps sim.metrics for an extended object after
        # construction) -- saves an attribute hop per dispatched command.
        self._by_category = self.metrics.cpu_cycles_by_category
        Simulator._active = self

    # ------------------------------------------------------------------
    @classmethod
    def current_thread(cls) -> SimThread:
        """The thread currently being stepped (for join registration)."""
        sim = cls._active
        if sim is None or sim.current is None:
            raise RuntimeError("no simulated thread is running")
        return sim.current

    # ------------------------------------------------------------------
    def spawn(
        self,
        gen: Generator[Any, Any, Any],
        name: str,
        query_id: int | None = None,
        daemon: bool = False,
    ) -> SimThread:
        """Create a thread from generator ``gen`` and schedule its first step
        at the current simulated time."""
        thread = SimThread(gen, name, query_id=query_id)
        thread.state = ThreadState.READY
        thread.start_time = self.now
        self.threads.append(thread)
        if daemon:
            self._daemons.add(thread)
        # Resume events are (thread, value) tuples interpreted by the run
        # loop -- no per-event closure allocation (see ``run``).
        self._seq += 1
        heapq.heappush(self._heap, (self.now, self._seq, (thread, None)))
        return thread

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run at simulated time ``when``."""
        if when < self.now - 1e-12:
            raise ValueError(f"cannot schedule in the past: {when} < {self.now}")
        self._seq += 1
        heapq.heappush(self._heap, (max(when, self.now), self._seq, fn))

    def unblock(self, thread: SimThread, value: Any = None) -> bool:
        """Wake ``thread`` (previously parked on BLOCK).  Returns False if it
        was not blocked (e.g. already woken) -- callers that must wake exactly
        one thread should check."""
        if thread.state is not ThreadState.BLOCKED:
            return False
        thread.state = ThreadState.READY
        self._seq += 1
        heapq.heappush(self._heap, (self.now, self._seq, (thread, value)))
        return True

    # ------------------------------------------------------------------
    def _resume(self, thread: SimThread, value: Any = None) -> None:
        if thread.state is not ThreadState.READY:
            # A stale wakeup (e.g. thread already finished); ignore.
            return
        prev = self.current
        self.current = thread
        try:
            cmd = thread.gen.send(value)
        except StopIteration as stop:
            self._finish(thread, result=stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - must capture engine bugs
            self._finish(thread, error=exc)
            return
        finally:
            self.current = prev
        if self.tap is not None:
            self.tap.on_command(thread, cmd)
        if type(cmd) is CpuCommand:
            # Every part is metered at dispatch, in part order; the command
            # then enters the pool once with its total.  CpuPool.add +
            # next_completion inlined (one advance, one pool push, the
            # exact same arithmetic) -- every worker yield funnels through
            # here, so the extra calls are measurable.
            by_category = self._by_category
            by_category[cmd.category] += cmd.cycles
            rest = cmd.rest
            if rest:
                for cycles, category in rest:
                    by_category[category] += cycles
            total = cmd.total
            if total <= 0.0:
                thread.state = ThreadState.READY
                self._seq += 1
                heapq.heappush(self._heap, (self.now, self._seq, (thread, None)))
                return
            thread.state = ThreadState.ON_CPU
            pool = self.cpu
            now = self.now
            pheap = pool._heap
            rates = pool._rates
            dt = now - pool._last_update
            if dt > 0:
                n = len(pheap)
                if n:
                    try:
                        r = rates[n]
                    except IndexError:
                        r = pool._rate_for(n)
                    pool.service += r * dt
                    pool.util_integral += min(n, pool.cores) * dt
                    pool.busy_time += dt
                pool._last_update = now
            elif dt < 0:
                raise AssertionError(f"time went backwards: {pool._last_update} -> {now}")
            service = pool.service
            pool._seq += 1
            heapq.heappush(pheap, (service + total, pool._seq, thread, None))
            remaining = pheap[0][0] - service
            n = len(pheap)
            try:
                rate = rates[n]
            except IndexError:
                rate = pool._rate_for(n)
            pool.armed_when = now + (remaining if remaining > 0.0 else 0.0) / rate
            return
        self._dispatch(thread, cmd)

    def _finish(self, thread: SimThread, result: Any = None, error: BaseException | None = None) -> None:
        if self.tap is not None:
            self.tap.on_finish(thread, error)
        thread.result = result
        thread.error = error
        thread.state = ThreadState.FAILED if error else ThreadState.DONE
        thread.finish_time = self.now
        self._daemons.discard(thread)
        joiners, thread._joiners = thread._joiners, []
        for j in joiners:
            self.unblock(j)
        if error is not None and not joiners:
            # Nobody will observe the failure through join(): abort the run.
            if self._pending_error is None:
                self._pending_error = (thread, error)

    def _dispatch(self, thread: SimThread, cmd: Any) -> None:
        """Everything but a CPU command (``_resume`` holds that branch).
        type-is instead of isinstance: the command classes are final by
        design and this check runs once per yielded command."""
        cmd_type = type(cmd)
        if cmd_type is IoCommand:
            device = self.devices.get(cmd.device)
            if device is None:
                raise SimulationError(f"unknown device {cmd.device!r} (thread {thread.name})")
            nbytes = cmd.nbytes
            if nbytes <= 0:
                thread.state = ThreadState.READY
                self._seq += 1
                heapq.heappush(self._heap, (self.now, self._seq, (thread, None)))
                return
            thread.state = ThreadState.ON_IO
            # Inline IoDevice.add + next_completion (the _resume CPU
            # branch, for the shared-bandwidth device): same arithmetic.
            now = self.now
            pheap = device._heap
            rates = device._rates
            dt = now - device._last_update
            if dt > 0:
                n = len(pheap)
                if n:
                    try:
                        r = rates[n]
                    except IndexError:
                        r = device._rate_for(n)
                    device.service += r * dt
                    device.busy_time += dt
                device._last_update = now
            elif dt < 0:
                raise AssertionError(f"time went backwards on {device.name}")
            charged = nbytes if nbytes > 0.0 else 0.0
            device.bytes_delivered += charged
            if not cmd.sequential:
                charged *= device.random_multiplier
            service = device.service
            device._seq += 1
            heapq.heappush(pheap, (service + charged, device._seq, thread, None))
            remaining = pheap[0][0] - service
            n = len(pheap)
            try:
                rate = rates[n]
            except IndexError:
                rate = device._rate_for(n)
            device.armed_when = now + (remaining if remaining > 0.0 else 0.0) / rate
        elif cmd_type is SleepCommand:
            thread.state = ThreadState.SLEEPING

            def wake() -> None:
                if thread.state is ThreadState.SLEEPING:
                    thread.state = ThreadState.READY
                    self._resume(thread)

            self.call_at(self.now + max(cmd.delay, 0.0), wake)
        elif cmd is BLOCK:
            thread.state = ThreadState.BLOCKED
        else:
            raise SimulationError(
                f"thread {thread.name!r} yielded {cmd!r}; did you forget 'yield from'?"
            )

    def _service_pool(self, pool: CpuPool | IoDevice) -> None:
        """Pop and process the pool's due completions at ``self.now``:
        ``pop_completed`` and ``next_completion``, inlined.

        Servicing a pool is *the* hot loop of a simulated run -- every CPU
        command and every disk read funnels through here -- so this flattens
        what is otherwise ~10 Python calls per completion into a single
        frame.  Every float operation is kept literally identical to the
        pool reference method it replaces (``advance``'s service/utilization
        updates, ``pop_completed``'s epsilon test, ``next_completion``'s
        remaining/rate division).

        Structure per round: (1) advance the pool to ``self.now``; (2)
        two-phase pop -- collect *all* due entries first, then resume their
        threads in completion order, exactly as ``pop_completed`` batches
        them; (3) if the pool's next completion is strictly earlier than
        every pending heap event and every other pool's slot (and inside
        the run window), jump the clock there and continue in this frame;
        otherwise leave it in the pool's ``armed_when`` slot for the run
        loop and return."""
        now = self.now
        heap = self._heap
        pheap = pool._heap
        rates = pool._rates
        rate_for = pool._rate_for
        until = self._run_until
        rivals = self._rivals[pool]
        is_cpu = pool is self.cpu
        cores = self.cpu.cores
        heappop = heapq.heappop
        resume = self._resume
        ready = ThreadState.READY
        while True:
            # ---- inline pool.advance(now) ----
            dt = now - pool._last_update
            if dt > 0:
                n = len(pheap)
                if n:
                    try:
                        r = rates[n]
                    except IndexError:
                        r = rate_for(n)
                    pool.service += r * dt
                    if is_cpu:
                        pool.util_integral += min(n, cores) * dt
                    pool.busy_time += dt
                pool._last_update = now
            elif dt < 0:
                raise AssertionError(f"time went backwards: {pool._last_update} -> {now}")
            # ---- inline pool.pop_completed(now): two-phase batch pop ----
            service = pool.service
            mag = abs(service)
            limit = service + 1e-9 * (mag if mag > 1.0 else 1.0)
            if pheap[0][0] > limit:
                # Float round-off left the top element a hair short; nudge.
                pool.armed_when = now + 1e-9
                return
            due = [heappop(pheap)]
            while pheap and pheap[0][0] <= limit:
                due.append(heappop(pheap))
            for _, _, thread, _ in due:
                # The simulator pushes no ``on_done`` callback (only the
                # reference model's ``add`` does): completion resumes the
                # entry's thread.
                thread.state = ready
                resume(thread)
            # ---- inline pool.next_completion(now) + cascade decision ----
            if not pheap:
                pool.armed_when = inf
                return
            remaining = pheap[0][0] - service
            n = len(pheap)
            try:
                rate = rates[n]
            except IndexError:
                rate = rate_for(n)
            when = now + (remaining if remaining > 0.0 else 0.0) / rate
            pool.armed_when = when
            if (
                (heap and when >= heap[0][0])
                or (until is not None and when > until)
                or self._pending_error is not None
            ):
                return
            for rival in rivals:
                if when >= rival.armed_when:
                    return
            now = when
            self.now = when

    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Process events until the heap and the pools drain (or simulated
        time passes ``until``).  Returns the final simulated time.

        Raises
        ------
        ValueError
            if ``until`` is earlier than ``now`` (nothing is touched).
        SimulationError
            if an exception escaped a thread with no joiner.
        DeadlockError
            if non-daemon threads remain blocked with no pending events.
        """
        if until is not None and until < self.now:
            raise ValueError(f"cannot run until the past: {until} < {self.now}")
        prev_active = Simulator._active
        Simulator._active = self
        self._run_until = until
        self._by_category = self.metrics.cpu_cycles_by_category
        # The event loop runs hundreds of thousands of iterations per
        # simulated second; hoist every per-iteration attribute lookup.
        heap = self._heap
        pools = self._pools
        heappop = heapq.heappop
        service_pool = self._service_pool
        resume = self._resume
        try:
            while True:
                pool = None
                when = inf
                for p in pools:
                    if p.armed_when < when:
                        pool = p
                        when = p.armed_when
                if heap and heap[0][0] <= when:
                    pool = None
                    when = heap[0][0]
                elif pool is None:
                    self._check_deadlock()
                    break
                if until is not None and when > until:
                    self.now = until  # the event stays pending for a later run()
                    break
                self.now = when
                if pool is not None:
                    service_pool(pool)
                else:
                    fn = heappop(heap)[2]
                    if type(fn) is tuple:
                        # A thread resume event: (thread, value) -- the
                        # closure-free form of spawn/unblock scheduling.
                        resume(fn[0], fn[1])
                    else:
                        fn()
                if self._pending_error is not None:
                    thread, error = self._pending_error
                    raise SimulationError(
                        f"unhandled exception in simulated thread {thread.name!r}"
                    ) from error
            # Settle pool metric integrals at the final time.
            for p in pools:
                p.advance(self.now)
            return self.now
        finally:
            Simulator._active = prev_active if prev_active is not None else self

    def _check_deadlock(self) -> None:
        stuck = [
            t
            for t in self.threads
            if t.alive and t not in self._daemons and t.state is ThreadState.BLOCKED
        ]
        if stuck:
            names = ", ".join(t.name for t in stuck[:12])
            raise DeadlockError(
                f"{len(stuck)} non-daemon thread(s) blocked with no pending events: {names}"
            )

    # ------------------------------------------------------------------
    @property
    def disk(self) -> IoDevice:
        """The primary disk device."""
        return self.devices[self.machine.primary_disk.name]

    def avg_cores_used(self, window: float | None = None) -> float:
        """Average busy cores over ``window`` (default: the busy period)."""
        w = window if window is not None else self.cpu.busy_time
        return self.cpu.avg_cores_used(w) if w else 0.0
