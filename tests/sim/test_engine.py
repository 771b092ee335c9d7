"""Integration tests for the Simulator event loop."""

import pytest

from repro.sim import BLOCK, CPU, IO, SLEEP, DeadlockError, MachineSpec, Simulator
from repro.sim.engine import SimulationError
from repro.sim.machine import DiskSpec


def make_sim(cores=4, hz=1e9, bandwidth=100e6, oversub=0.0):
    spec = MachineSpec(
        cores=cores,
        hz=hz,
        oversub_penalty=oversub,
        disks=(DiskSpec(name="disk", bandwidth=bandwidth),),
    )
    return Simulator(spec)


class TestBasics:
    def test_single_cpu_burst(self):
        sim = make_sim()
        trace = []

        def worker():
            yield CPU(2e9)
            trace.append(sim.now)

        sim.spawn(worker(), "w")
        sim.run()
        assert trace == [pytest.approx(2.0)]

    def test_sleep(self):
        sim = make_sim()
        times = []

        def worker():
            yield SLEEP(1.5)
            times.append(sim.now)
            yield SLEEP(0.5)
            times.append(sim.now)

        sim.spawn(worker(), "w")
        sim.run()
        assert times == [pytest.approx(1.5), pytest.approx(2.0)]

    def test_io(self):
        sim = make_sim(bandwidth=100e6)
        done = []

        def worker():
            yield IO("disk", 50e6)
            done.append(sim.now)

        sim.spawn(worker(), "w")
        sim.run()
        assert done == [pytest.approx(0.5)]
        assert sim.disk.bytes_delivered == pytest.approx(50e6)

    def test_unknown_device(self):
        sim = make_sim()

        def worker():
            yield IO("nope", 1)

        sim.spawn(worker(), "w")
        with pytest.raises(SimulationError):
            sim.run()

    def test_return_value_via_join(self):
        sim = make_sim()
        got = []

        def child():
            yield CPU(1e9)
            return 42

        def parent():
            t = sim.spawn(child(), "child")
            got.append((yield from t.join()))

        sim.spawn(parent(), "parent")
        sim.run()
        assert got == [42]

    def test_join_finished_thread_returns_immediately(self):
        sim = make_sim()
        got = []

        def child():
            yield CPU(1e8)
            return "done"

        def parent(t):
            yield SLEEP(5.0)  # child long finished
            got.append((yield from t.join()))

        t = sim.spawn(child(), "child")
        sim.spawn(parent(t), "parent")
        sim.run()
        assert got == ["done"]

    def test_exception_propagates_through_join(self):
        sim = make_sim()
        caught = []

        def child():
            yield CPU(1e8)
            raise ValueError("boom")

        def parent():
            t = sim.spawn(child(), "child")
            try:
                yield from t.join()
            except ValueError as e:
                caught.append(str(e))

        sim.spawn(parent(), "parent")
        sim.run()
        assert caught == ["boom"]

    def test_unjoined_exception_aborts_run(self):
        sim = make_sim()

        def child():
            yield CPU(1e8)
            raise ValueError("boom")

        sim.spawn(child(), "child")
        with pytest.raises(SimulationError):
            sim.run()

    def test_bad_yield_value_is_reported(self):
        sim = make_sim()

        def worker():
            yield "not a command"

        sim.spawn(worker(), "w")
        with pytest.raises(SimulationError, match="yield from"):
            sim.run()


class TestConcurrency:
    def test_cpu_contention_stretches_time(self):
        sim = make_sim(cores=1)
        ends = []

        def worker(i):
            yield CPU(1e9)
            ends.append(sim.now)

        for i in range(2):
            sim.spawn(worker(i), f"w{i}")
        sim.run()
        assert ends == [pytest.approx(2.0), pytest.approx(2.0)]

    def test_parallel_speedup(self):
        """4 threads, 4 cores: same finish time as one thread alone."""
        sim = make_sim(cores=4)

        def worker():
            yield CPU(1e9)

        for i in range(4):
            sim.spawn(worker(), f"w{i}")
        end = sim.run()
        assert end == pytest.approx(1.0)

    def test_block_unblock(self):
        sim = make_sim()
        trace = []

        def waiter():
            trace.append(("wait", sim.now))
            got = yield BLOCK
            trace.append(("woke", sim.now, got))

        def waker(t):
            yield SLEEP(2.0)
            sim.unblock(t, "hello")

        t = sim.spawn(waiter(), "waiter")
        sim.spawn(waker(t), "waker")
        sim.run()
        assert trace == [("wait", 0.0), ("woke", pytest.approx(2.0), "hello")]

    def test_deadlock_detection(self):
        sim = make_sim()

        def stuck():
            yield BLOCK

        sim.spawn(stuck(), "stuck")
        with pytest.raises(DeadlockError, match="stuck"):
            sim.run()

    def test_daemon_threads_may_stay_blocked(self):
        sim = make_sim()

        def daemon():
            yield BLOCK

        def worker():
            yield CPU(1e9)

        sim.spawn(daemon(), "d", daemon=True)
        sim.spawn(worker(), "w")
        end = sim.run()
        assert end == pytest.approx(1.0)

    def test_run_until(self):
        sim = make_sim()

        def worker():
            yield CPU(10e9)

        sim.spawn(worker(), "w")
        end = sim.run(until=1.0)
        assert end == pytest.approx(1.0)


class TestMetrics:
    def test_category_accounting(self):
        sim = make_sim()

        def worker():
            yield CPU(1e9, "hashing")
            yield CPU(2e9, "joins")

        sim.spawn(worker(), "w", query_id=7)
        sim.run()
        by_cat = sim.metrics.cpu_cycles_by_category
        assert by_cat["hashing"] == 1e9
        assert by_cat["joins"] == 2e9
        secs = sim.metrics.cpu_seconds_by_category(1e9)
        assert secs["hashing"] == pytest.approx(1.0)

    def test_avg_cores_used(self):
        sim = make_sim(cores=4)

        def worker():
            yield CPU(1e9)

        for i in range(2):
            sim.spawn(worker(), f"w{i}")
        sim.run()
        assert sim.avg_cores_used() == pytest.approx(2.0)

    def test_avg_read_rate(self):
        sim = make_sim(bandwidth=100e6)

        def worker():
            yield IO("disk", 200e6)

        sim.spawn(worker(), "w")
        sim.run()
        # Reports divide the delivered bytes by the window; alone on the
        # disk the read runs at full bandwidth.
        assert sim.disk.bytes_delivered == pytest.approx(200e6)
        assert sim.disk.busy_time == pytest.approx(2.0)


class TestDeterminism:
    def test_identical_runs_produce_identical_timelines(self):
        def build():
            sim = make_sim(cores=2)
            log = []

            def worker(i):
                yield CPU(1e8 * (i + 1), "misc")
                yield IO("disk", 1e6 * (i + 1))
                log.append((i, sim.now))

            for i in range(5):
                sim.spawn(worker(i), f"w{i}")
            sim.run()
            return log

        assert build() == build()
