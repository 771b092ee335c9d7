"""Completion slots against a reference loop, to the last bit.

``Simulator`` keeps each pool's next completion in one ``armed_when`` slot
and inlines the pool arithmetic into ``_resume`` and ``_service_pool``.
``RefSim`` below is the specification it is held to: the textbook loop in
which *every* membership change pushes an explicit completion event,
superseded ones are skipped, and all pool arithmetic goes through the
reference pool model (``refpool.RefPool.add`` / ``next_completion`` /
``pop_completed``, and ``RefDisk.read``).  A CPU command is what its
contract says: every part is metered at dispatch, in part order, and the
command enters the pool once with its ``total``.

Generated schedules (threads x fused commands with zero-cycle parts,
sleeps, I/O, ``Condition`` / ``Channel`` hand-offs,
drawn from round numbers so that same-instant ties are common) must produce
identical finish times and orders, cycle accounts and pool integrals on
both.  The budget tests at the bottom pin the mechanism itself: a CPU
command costs no event-heap push and exactly one pool-heap push."""

import heapq
from math import inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import CPU, IO, SLEEP, Simulator
from repro.sim.commands import BLOCK, CPU_FUSED, CpuCommand, IoCommand, SleepCommand
from repro.sim.engine import SimulationError
from repro.sim.machine import DiskSpec, MachineSpec
from repro.sim.metrics import Metrics
from repro.sim.sync import Channel, Condition
from repro.sim.task import SimThread, ThreadState
from tests.sim.refpool import RefDisk, RefPool


def machine(cores: int) -> MachineSpec:
    return MachineSpec(cores=cores, hz=1e9, disk=DiskSpec(bandwidth=100e6))


class RefSim:
    """Reference event loop: one heap, keyed ``(when, rank, seq)``.  Rank 0
    is a thread event; a pool's completion events carry rank 1 + its index,
    so a completion runs after every thread event of the same instant (and
    the CPU's before the disk's)."""

    def __init__(self, spec: MachineSpec):
        self.now = 0.0
        self.current: SimThread | None = None
        self.metrics = Metrics()
        self.cpu = RefPool(spec.cores, spec.cpu_rate)
        self.disk = RefDisk(spec.disk)
        self.pools = [self.cpu, self.disk]
        self.heap: list = []
        self.seq = 0
        self.live: dict = {}  # pool -> seq of its one valid completion event

    def push(self, when, rank, fn) -> int:
        self.seq += 1
        heapq.heappush(self.heap, (when, rank, self.seq, fn))
        return self.seq

    def ready(self, thread, value=None) -> None:
        thread.state = ThreadState.READY
        self.push(self.now, 0, lambda: self.resume(thread, value))

    def spawn(self, gen, name, query_id=None) -> SimThread:
        thread = SimThread(gen, name, query_id=query_id)
        self.ready(thread)
        return thread

    def unblock(self, thread, value=None) -> bool:
        if thread.state is not ThreadState.BLOCKED:
            return False
        self.ready(thread, value)
        return True

    def wake(self, thread) -> None:
        thread.state = ThreadState.READY
        self.resume(thread)

    def resume(self, thread, value=None) -> None:
        self.current = thread
        try:
            cmd = thread.gen.send(value)
        except StopIteration:
            thread.state = ThreadState.DONE
            return
        finally:
            self.current = None
        if type(cmd) is CpuCommand:
            for cycles, category in ((cmd.cycles, cmd.category), *cmd.rest):
                self.metrics.cpu_cycles_by_category[category] += cycles
            if cmd.total <= 0:
                self.ready(thread)
            else:
                thread.state = ThreadState.ON_CPU
                self.cpu.add(self.now, thread, cmd.total, lambda: self.wake(thread))
                self.arm(self.cpu)
        elif type(cmd) is IoCommand and cmd.nbytes <= 0:
            self.ready(thread)
        elif type(cmd) is IoCommand:
            thread.state = ThreadState.ON_IO
            self.disk.read(self.now, thread, cmd.nbytes, lambda: self.wake(thread))
            self.arm(self.disk)
        elif type(cmd) is SleepCommand:
            thread.state = ThreadState.SLEEPING
            self.push(self.now + max(cmd.delay, 0.0), 0, lambda: self.wake(thread))
        else:
            assert cmd is BLOCK
            thread.state = ThreadState.BLOCKED

    def arm(self, pool) -> None:
        when = pool.next_completion(self.now)
        self.live[pool] = None if when is None else self.push(when, 1 + self.pools.index(pool), pool)

    def run(self, until=None) -> float:
        heap = self.heap
        while heap:
            when, rank, seq, fn = heap[0]
            if rank and self.live[fn] != seq:
                heapq.heappop(heap)  # superseded by a later membership change
                continue
            if until is not None and when > until:
                self.now = until
                break
            heapq.heappop(heap)
            self.now = when
            if not rank:
                fn()
                continue
            done = fn.pop_completed(when)
            for _thread, on_done in done:
                on_done()
            if done:
                self.arm(fn)
            else:  # round-off left the head a hair short: look again shortly
                self.live[fn] = self.push(when + 1e-9, rank, fn)
        for pool in self.pools:
            pool.advance(self.now)
        return self.now


# ---------------------------------------------------------------------------
# Generated schedules
# ---------------------------------------------------------------------------
CATEGORIES = ("hashing", "joins", "scans")
cycles = st.sampled_from([0.0, 1.0, 2.5e8, 5e8, 1e9, 3e9]) | st.floats(0.0, 4e9)
part = st.tuples(cycles, st.sampled_from(CATEGORIES))
delay = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]) | st.floats(0.0, 3.0)
nbytes = st.sampled_from([0.0, 10e6, 25e6, 100e6]) | st.floats(0.0, 2e8)
op = st.one_of(
    st.tuples(st.just("cpu"), st.lists(part, min_size=1, max_size=3)),
    st.tuples(st.just("sleep"), delay),
    st.tuples(st.just("io"), nbytes),
    st.tuples(st.just("put")),
    st.tuples(st.just("wait"), st.integers(0, 1)),
    st.tuples(st.just("notify"), st.integers(0, 1)),
)
schedules = st.fixed_dictionaries(
    {
        "cores": st.sampled_from([1, 2]),
        "programs": st.lists(st.lists(op, max_size=6), min_size=1, max_size=5),
        "notify_after": st.tuples(delay, delay),
    }
)

#: w0's completion, w1's wake-up and (through it) w2's unblock all fall on
#: t = 1.0 exactly; the completion must run after both thread events.
TIE = {
    "cores": 1,
    "programs": [
        [("cpu", [(1e9, "joins")])],
        [("sleep", 1.0), ("notify", 0)],
        [("wait", 0), ("cpu", [(5e8, "scans")])],
    ],
    "notify_after": (2.0, 2.0),
}

#: One cycle requested at t = 0.5: the completion instant 0.5 + 1e-9 rounds
#: so that the pool is a hair short of the target there and must look again
#: 1e-9 later (the nudge in ``_service_pool``).
NUDGE = {"cores": 1, "programs": [[("sleep", 0.5), ("cpu", [(1.0, "scans")])]], "notify_after": (0.0, 0.0)}


def play(sim, schedule) -> list:
    """Spawn the schedule's threads on ``sim`` (either loop); returns the
    log the threads append ``(name, finish time)`` to.  Deadlock-free by
    construction: the consumer drains the channel until the last worker
    closes it, and the notifier eventually opens both conditions."""
    chan = Channel(sim, capacity=1, name="c")
    conds = [Condition(sim, "k0"), Condition(sim, "k1")]
    opened = [False, False]
    working = [len(schedule["programs"])]
    log: list = []

    def worker(i, ops):
        for o in ops:
            if o[0] == "cpu":
                (c0, k0), *rest = o[1]
                yield CpuCommand(c0, k0, tuple(rest))
            elif o[0] == "sleep":
                yield SLEEP(o[1])
            elif o[0] == "io":
                yield IO(o[1])
            elif o[0] == "put":
                yield from chan.put(i)
            elif o[0] == "wait":
                while not opened[o[1]]:
                    yield from conds[o[1]].wait()
            else:
                opened[o[1]] = True
                conds[o[1]].notify_all()
        log.append((f"w{i}", sim.now))
        working[0] -= 1
        if not working[0]:
            chan.close()

    def consumer():
        while (yield from chan.get()) is not Channel.CLOSED:
            yield CPU(1e8, "aggregation")
        log.append(("consumer", sim.now))

    def notifier():
        for k, after in enumerate(schedule["notify_after"]):
            yield SLEEP(after)
            opened[k] = True
            conds[k].notify_all()
        log.append(("notifier", sim.now))

    for i, ops in enumerate(schedule["programs"]):
        sim.spawn(worker(i, ops), f"w{i}", query_id=i)
    sim.spawn(consumer(), "consumer")
    sim.spawn(notifier(), "notifier")
    return log


def observed(sim, log) -> dict:
    return {
        "now": sim.now,
        "finish": log,
        "by_category": dict(sim.metrics.cpu_cycles_by_category),
        "cpu": (sim.cpu.service, sim.cpu.util_integral, sim.cpu.busy_time),
        "disk": (sim.disk.service, sim.disk.util_integral, sim.disk.busy_time, sim.disk.bytes_delivered),
    }


def drained(sim: Simulator) -> bool:
    return not sim._heap and all(p.armed_when == inf for p in sim._pools)


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(schedules)
    @example(TIE)
    @example(NUDGE)
    def test_same_run_to_the_last_bit(self, schedule):
        sim, ref = Simulator(machine(schedule["cores"])), RefSim(machine(schedule["cores"]))
        sim_log, ref_log = play(sim, schedule), play(ref, schedule)
        sim.run()
        ref.run()
        assert observed(sim, sim_log) == observed(ref, ref_log)
        assert drained(sim)

    @settings(max_examples=100, deadline=None)
    @given(schedules, st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5]) | st.floats(0.0, 8.0), max_size=4))
    @example(TIE, [1.0, 1.0])
    def test_run_until_in_segments(self, schedule, cuts):
        """The slot survives across ``run(until=...)`` calls: cutting a run
        anywhere (each cut settles the pools, so the floats are the cut
        run's own) matches the reference cut at the same instants."""
        sim, ref = Simulator(machine(schedule["cores"])), RefSim(machine(schedule["cores"]))
        sim_log, ref_log = play(sim, schedule), play(ref, schedule)
        for cut in sorted(cuts):
            assert sim.run(until=cut) == ref.run(until=cut)
            assert sim.now == cut or (sim.now < cut and drained(sim))
            assert observed(sim, sim_log) == observed(ref, ref_log)
        sim.run()
        ref.run()
        assert observed(sim, sim_log) == observed(ref, ref_log)

    def test_completion_runs_after_same_instant_thread_events(self):
        sim = Simulator(machine(1))
        log = play(sim, TIE)
        sim.run()
        assert log[:3] == [("w1", 1.0), ("w0", 1.0), ("w2", 1.5)]

    def test_short_completion_is_looked_at_again(self):
        sim = Simulator(machine(1))
        log = play(sim, NUDGE)
        sim.run()
        assert ("w0", 0.5 + 1e-9 + 1e-9) in log


def test_thread_error_stops_the_cascade():
    """With nothing on the event heap the pool would keep servicing its
    completions in one frame; an exception escaping a thread mid-round
    must stop that, keep the next completion armed, and surface."""
    sim = Simulator(machine(4))
    ran = []

    def boom():
        yield CPU(1e9)
        raise ValueError("x")

    def work(cycles):
        yield CPU(cycles)
        ran.append(sim.now)

    sim.spawn(boom(), "boom")
    sim.spawn(work(1e9), "twin")  # due in the same round as boom, after it
    sim.spawn(work(2e9), "later")
    with pytest.raises(SimulationError, match="boom"):
        sim.run()
    assert ran == [1.0]  # the round finished; the cascade did not go on
    assert sim.now == 1.0
    assert sim.cpu.armed_when == 2.0


class TestEventBudget:
    """``Simulator._seq`` counts event-heap pushes.  CPU work of any shape
    must cost none: only spawns, wake-ups and sleeps reach the heap.
    ``sim.cpu._seq`` counts pool-heap pushes: one per CPU command, however
    many parts it fuses."""

    N, M = 6, 40

    def run(self, command, sleeps=0) -> Simulator:
        sim = Simulator(machine(2))

        def worker(i):
            for j in range(self.M):
                yield command(1e6 * (1 + (i + j) % 5))

        def sleeper():
            for _ in range(sleeps):
                yield SLEEP(0.013)

        for i in range(self.N):
            sim.spawn(worker(i), f"w{i}")
        if sleeps:
            sim.spawn(sleeper(), "sleeper")
        sim.run()
        assert sum(sim.metrics.cpu_cycles_by_category.values()) > 0
        return sim

    def test_single_part_commands_push_nothing(self):
        assert self.run(lambda c: CPU(c, "scans"))._seq == self.N

    def test_fused_commands_push_nothing(self):
        fused = lambda c: CPU_FUSED(CPU(c, "scans"), CPU(0.0, "locks"), CPU(2 * c, "joins"))  # noqa: E731
        assert self.run(fused)._seq == self.N

    def test_a_sleeper_costs_only_its_own_events(self):
        # its spawn + one wake-up per sleep, interleaved with the CPU work
        assert self.run(lambda c: CPU(c, "scans"), sleeps=25)._seq == self.N + 1 + 25

    def test_a_fused_command_is_one_pool_entry(self):
        parts = ("scans", "locks", "hashing", "joins")
        fused = lambda c: CPU_FUSED(*(CPU(c * (k + 1), cat) for k, cat in enumerate(parts)))  # noqa: E731
        sim = self.run(fused)
        assert sim.cpu._seq == self.N * self.M  # not N x M x len(parts)
        assert sim._seq == self.N
        assert set(sim.metrics.cpu_cycles_by_category) == set(parts)
