"""Additional edge-case tests for the simulator event loop."""

import pytest

from repro.sim import BLOCK, CPU, IO, SLEEP, Simulator
from repro.sim.machine import DiskSpec, MachineSpec
from repro.sim.task import ThreadState


def make_sim(cores=4):
    return Simulator(
        MachineSpec(cores=cores, hz=1e9, oversub_penalty=0.0, disks=(DiskSpec(bandwidth=100e6),))
    )


class TestRunEdges:
    def test_run_until_pauses_mid_pool(self):
        """run(until=...) stops the clock without losing pool state; a
        second run() finishes the work."""
        sim = make_sim()
        done = []

        def worker():
            yield CPU(2e9)
            done.append(sim.now)

        sim.spawn(worker(), "w")
        assert sim.run(until=1.0) == pytest.approx(1.0)
        assert not done
        sim.run()
        assert done == [pytest.approx(2.0)]

    @pytest.mark.parametrize("pending", [SLEEP(3.0), CPU(3e9)], ids=["sleep", "cpu"])
    def test_run_until_the_past_is_rejected(self, pending):
        """A run cut earlier than ``now`` must not rewind the clock: it
        raises before touching anything, and the run carries on as if it
        had never been asked."""
        sim = make_sim()

        def worker():
            yield pending

        sim.spawn(worker(), "w")
        assert sim.run(until=2.0) == 2.0
        with pytest.raises(ValueError, match="past"):
            sim.run(until=1.0)
        assert sim.now == 2.0
        assert sim.run() == 3.0

    def test_negative_sleep_clamped(self):
        sim = make_sim()
        times = []

        def worker():
            yield SLEEP(-5.0)
            times.append(sim.now)

        sim.spawn(worker(), "w")
        sim.run()
        assert times == [0.0]

    def test_zero_byte_io_immediate(self):
        sim = make_sim()
        times = []

        def worker():
            yield IO("disk", 0)
            times.append(sim.now)

        sim.spawn(worker(), "w")
        sim.run()
        assert times == [0.0]
        assert sim.disk.bytes_delivered == 0

    def test_call_at_past_rejected(self):
        sim = make_sim()

        def worker():
            yield SLEEP(1.0)
            with pytest.raises(ValueError):
                sim.call_at(0.5, lambda: None)

        sim.spawn(worker(), "w")
        sim.run()

    def test_unblock_non_blocked_thread_is_noop(self):
        sim = make_sim()

        def sleeper():
            yield SLEEP(1.0)

        t = sim.spawn(sleeper(), "s")

        def poker():
            yield SLEEP(0.5)
            assert sim.unblock(t) is False  # sleeping, not blocked

        sim.spawn(poker(), "p")
        sim.run()
        assert t.state is ThreadState.DONE

    def test_double_unblock_delivers_once(self):
        sim = make_sim()
        woke = []

        def waiter():
            got = yield BLOCK
            woke.append((sim.now, got))
            yield SLEEP(1.0)

        t = sim.spawn(waiter(), "w")

        def waker():
            yield SLEEP(0.1)
            assert sim.unblock(t, "first") is True
            assert sim.unblock(t, "second") is False

        sim.spawn(waker(), "k")
        sim.run()
        assert woke == [(pytest.approx(0.1), "first")]

    def test_random_io_flag_charged(self):
        sim = make_sim()

        def worker():
            yield IO("disk", 50e6, False)  # random: 4x inflation

        sim.spawn(worker(), "w")
        end = sim.run()
        assert end == pytest.approx(2.0)  # 50 MB * 4 at 100 MB/s

    def test_spawn_during_run_joins_pools(self):
        sim = make_sim(cores=1)
        ends = {}

        def child():
            yield CPU(1e9)
            ends["child"] = sim.now

        def parent():
            yield CPU(1e9)  # runs alone: finishes at t=1
            ends["parent_mid"] = sim.now
            sim.spawn(child(), "child")
            yield CPU(1e9)  # shares the core with child

        sim.spawn(parent(), "p")
        sim.run()
        assert ends["parent_mid"] == pytest.approx(1.0)
        assert ends["child"] == pytest.approx(3.0)  # both done at 3.0

    def test_avg_metrics_with_explicit_window(self):
        sim = make_sim()

        def worker():
            yield CPU(1e9)
            yield IO("disk", 100e6)

        sim.spawn(worker(), "w")
        sim.run()
        assert sim.avg_cores_used(2.0) == pytest.approx(0.5)
        assert sim.disk.bytes_delivered / 2.0 == pytest.approx(100e6 / 2)
