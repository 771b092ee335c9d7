"""Tests for simulated-time synchronization primitives."""

import pytest

from repro.sim import CPU, SLEEP, Channel, Condition, Gate, Lock, Simulator
from repro.sim.machine import MachineSpec


def make_sim():
    return Simulator(MachineSpec(cores=4, hz=1e9, oversub_penalty=0.0))


class TestLock:
    def test_mutual_exclusion_serializes(self):
        sim = make_sim()
        lock = Lock(sim)
        trace = []

        def worker(i):
            yield from lock.acquire()
            trace.append(("in", i, sim.now))
            yield SLEEP(1.0)
            trace.append(("out", i, sim.now))
            lock.release()

        for i in range(3):
            sim.spawn(worker(i), f"w{i}")
        sim.run()
        # Critical sections must not overlap.
        intervals = {}
        for kind, i, t in trace:
            intervals.setdefault(i, []).append(t)
        spans = sorted(intervals.values())
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2 + 1e-9

    def test_fifo_ordering(self):
        sim = make_sim()
        lock = Lock(sim)
        order = []

        def worker(i):
            yield SLEEP(i * 0.01)  # deterministic arrival order
            yield from lock.acquire()
            order.append(i)
            yield SLEEP(0.1)
            lock.release()

        for i in range(4):
            sim.spawn(worker(i), f"w{i}")
        sim.run()
        assert order == [0, 1, 2, 3]

    def test_release_unheld_raises(self):
        sim = make_sim()
        lock = Lock(sim)
        with pytest.raises(RuntimeError):
            lock.release()

    def test_acquire_cycles_charged_as_locks(self):
        sim = make_sim()
        lock = Lock(sim, charge=CPU(5000, "locks"))

        def worker():
            yield from lock.acquire()
            lock.release()

        sim.spawn(worker(), "w")
        sim.run()
        assert sim.metrics.cpu_cycles_by_category["locks"] == 5000

    def test_contended_acquire_is_handed_off_in_fifo_order(self):
        sim = make_sim()
        lock = Lock(sim)
        taken = []

        def worker(name):
            yield from lock.acquire()
            taken.append((name, sim.now))
            yield SLEEP(0.5)
            lock.release()

        for name in "abc":
            sim.spawn(worker(name), name)
        sim.run()
        # One free take, then each queued waiter in arrival order, handed
        # the lock at the instant its predecessor released it.
        assert taken == [("a", 0.0), ("b", 0.5), ("c", 1.0)]
        assert lock._owner is None and not lock._waiters


class TestCondition:
    def test_wait_notify_all(self):
        sim = make_sim()
        cond = Condition(sim)
        ready = []
        state = {"go": False}

        def waiter(i):
            while not state["go"]:
                yield from cond.wait()
            ready.append((i, sim.now))

        def notifier():
            yield SLEEP(1.0)
            state["go"] = True
            cond.notify_all()

        for i in range(3):
            sim.spawn(waiter(i), f"w{i}")
        sim.spawn(notifier(), "n")
        sim.run()
        assert sorted(i for i, _ in ready) == [0, 1, 2]
        assert all(t == pytest.approx(1.0) for _, t in ready)

    def test_notify_one_wakes_single_waiter(self):
        sim = make_sim()
        cond = Condition(sim)
        woke = []
        state = {"tokens": 0}

        def waiter(i):
            while state["tokens"] == 0:
                yield from cond.wait()
            state["tokens"] -= 1
            woke.append(i)

        def notifier():
            yield SLEEP(1.0)
            state["tokens"] = 1
            cond.notify_one()
            yield SLEEP(1.0)
            state["tokens"] = 1
            cond.notify_one()

        sim.spawn(waiter(0), "w0")
        sim.spawn(waiter(1), "w1")
        sim.spawn(notifier(), "n")
        sim.run()
        assert sorted(woke) == [0, 1]


class TestGate:
    def test_gate_blocks_until_open(self):
        sim = make_sim()
        gate = Gate(sim)
        times = []

        def waiter():
            yield from gate.wait()
            times.append(sim.now)

        def opener():
            yield SLEEP(2.0)
            gate.open()

        sim.spawn(waiter(), "w")
        sim.spawn(opener(), "o")
        sim.run()
        assert times == [pytest.approx(2.0)]

    def test_wait_on_open_gate_is_instant(self):
        sim = make_sim()
        gate = Gate(sim)
        gate.open()
        times = []

        def waiter():
            yield from gate.wait()
            times.append(sim.now)

        sim.spawn(waiter(), "w")
        sim.run()
        assert times == [0.0]


class TestChannel:
    def test_put_get_order(self):
        sim = make_sim()
        chan = Channel(sim, capacity=10)
        got = []

        def producer():
            for i in range(5):
                yield from chan.put(i)
            chan.close()

        def consumer():
            while True:
                item = yield from chan.get()
                if item is Channel.CLOSED:
                    break
                got.append(item)

        sim.spawn(producer(), "p")
        sim.spawn(consumer(), "c")
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_bounded_capacity_blocks_producer(self):
        sim = make_sim()
        chan = Channel(sim, capacity=1)
        trace = []

        def producer():
            yield from chan.put("a")
            trace.append(("put-a", sim.now))
            yield from chan.put("b")  # blocks until consumer takes "a"
            trace.append(("put-b", sim.now))
            chan.close()

        def consumer():
            yield SLEEP(1.0)
            assert (yield from chan.get()) == "a"
            assert (yield from chan.get()) == "b"
            assert (yield from chan.get()) is Channel.CLOSED

        sim.spawn(producer(), "p")
        sim.spawn(consumer(), "c")
        sim.run()
        assert trace[0] == ("put-a", 0.0)
        assert trace[1][1] == pytest.approx(1.0)

    def test_get_on_closed_empty_channel(self):
        sim = make_sim()
        chan = Channel(sim)
        chan.close()
        got = []

        def consumer():
            got.append((yield from chan.get()))

        sim.spawn(consumer(), "c")
        sim.run()
        assert got == [Channel.CLOSED]

    def test_put_on_closed_raises(self):
        sim = make_sim()
        chan = Channel(sim)
        chan.close()

        def producer():
            yield CPU(1)
            yield from chan.put(1)

        def supervisor():
            t = sim.spawn(producer(), "p")
            with pytest.raises(RuntimeError):
                yield from t.join()

        sim.spawn(supervisor(), "s")
        sim.run()

    def test_try_put(self):
        sim = make_sim()
        chan = Channel(sim, capacity=1)
        results = []

        def worker():
            yield CPU(1)
            results.append(chan.try_put("x"))
            results.append(chan.try_put("y"))

        sim.spawn(worker(), "w")

        def drainer():
            yield SLEEP(1)
            yield from chan.get()

        sim.spawn(drainer(), "d")
        sim.run()
        assert results == [True, False]

    def test_capacity_validation(self):
        sim = make_sim()
        with pytest.raises(ValueError):
            Channel(sim, capacity=0)
