"""Unit tests for the GPS CPU pool."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.cpu import CpuPool
from repro.sim.task import SimThread


def _thread(name="t"):
    def _g():
        yield None

    return SimThread(_g(), name)


class TestConstruction:
    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            CpuPool(0, 1e9)

    def test_rejects_nonpositive_hz(self):
        with pytest.raises(ValueError):
            CpuPool(4, 0)

    def test_rejects_negative_oversub(self):
        with pytest.raises(ValueError):
            CpuPool(4, 1e9, oversub_penalty=-1)


class TestSingleThread:
    def test_one_thread_runs_at_full_speed(self):
        pool = CpuPool(4, 1e9, oversub_penalty=0.0)
        done = []
        pool.add(0.0, _thread(), 2e9, lambda: done.append(1))
        assert pool.next_completion(0.0) == pytest.approx(2.0)

    def test_completion_pops_thread(self):
        pool = CpuPool(4, 1e9)
        fired = []
        pool.add(0.0, _thread(), 1e9, lambda: fired.append("a"))
        t = pool.next_completion(0.0)
        completed = pool.pop_completed(t)
        assert len(completed) == 1
        completed[0][1]()
        assert fired == ["a"]
        assert pool.runnable == 0

    def test_zero_cycle_work_completes_immediately(self):
        pool = CpuPool(2, 1e9)
        pool.add(0.0, _thread(), 0.0, lambda: None)
        assert pool.next_completion(0.0) == pytest.approx(0.0)


class TestSharing:
    def test_two_threads_on_one_core_halve_speed(self):
        pool = CpuPool(1, 1e9, oversub_penalty=0.0)
        pool.add(0.0, _thread("a"), 1e9, lambda: None)
        pool.add(0.0, _thread("b"), 1e9, lambda: None)
        # Each progresses at 0.5e9 cycles/s: both done at t=2.
        assert pool.next_completion(0.0) == pytest.approx(2.0)
        assert len(pool.pop_completed(2.0)) == 2

    def test_under_subscription_no_slowdown(self):
        pool = CpuPool(8, 1e9, oversub_penalty=0.0)
        for i in range(4):
            pool.add(0.0, _thread(str(i)), 1e9, lambda: None)
        assert pool.next_completion(0.0) == pytest.approx(1.0)

    def test_unequal_work_completes_in_order(self):
        pool = CpuPool(1, 1e9, oversub_penalty=0.0)
        order = []
        pool.add(0.0, _thread("short"), 0.5e9, lambda: order.append("short"))
        pool.add(0.0, _thread("long"), 1.0e9, lambda: order.append("long"))
        # Shared core: short finishes at t=1.0 (0.5e9 at half speed).
        t1 = pool.next_completion(0.0)
        assert t1 == pytest.approx(1.0)
        for _th, cb in pool.pop_completed(t1):
            cb()
        assert order == ["short"]
        # Long has 0.5e9 left and now runs alone: done at 1.5.
        t2 = pool.next_completion(t1)
        assert t2 == pytest.approx(1.5)

    def test_late_arrival_shares_remaining(self):
        pool = CpuPool(1, 1e9, oversub_penalty=0.0)
        pool.add(0.0, _thread("a"), 1e9, lambda: None)
        # At t=0.5, a has 0.5e9 left; b arrives with 0.5e9.
        pool.add(0.5, _thread("b"), 0.5e9, lambda: None)
        # Both share: each needs 0.5e9 at 0.5e9/s -> done at 1.5.
        assert pool.next_completion(0.5) == pytest.approx(1.5)

    def test_oversubscription_penalty_slows_everyone(self):
        fair = CpuPool(2, 1e9, oversub_penalty=0.0)
        slow = CpuPool(2, 1e9, oversub_penalty=0.5)
        for pool in (fair, slow):
            for i in range(4):
                pool.add(0.0, _thread(str(i)), 1e9, lambda: None)
        t_fair = fair.next_completion(0.0)
        t_slow = slow.next_completion(0.0)
        # R/cores = 2 -> multiplier 1/(1+0.5) = 2/3 -> 1.5x slower.
        assert t_fair == pytest.approx(2.0)
        assert t_slow == pytest.approx(3.0)


class TestMetrics:
    def test_util_integral_counts_busy_cores(self):
        pool = CpuPool(4, 1e9, oversub_penalty=0.0)
        pool.add(0.0, _thread("a"), 1e9, lambda: None)
        pool.add(0.0, _thread("b"), 1e9, lambda: None)
        t = pool.next_completion(0.0)
        pool.pop_completed(t)
        assert pool.util_integral == pytest.approx(2.0)  # 2 cores busy for 1s
        assert pool.busy_time == pytest.approx(1.0)
        assert pool.avg_cores_used(1.0) == pytest.approx(2.0)

    def test_util_capped_at_cores(self):
        pool = CpuPool(2, 1e9, oversub_penalty=0.0)
        for i in range(6):
            pool.add(0.0, _thread(str(i)), 1e9, lambda: None)
        t = pool.next_completion(0.0)  # all finish together at 3.0
        pool.pop_completed(t)
        assert pool.avg_cores_used(t) == pytest.approx(2.0)

    def test_avg_cores_zero_window(self):
        assert CpuPool(2, 1e9).avg_cores_used(0.0) == 0.0


class TestConservation:
    """Work conservation: the pool can never deliver more cycle-throughput
    than cores * hz (with no oversubscription penalty, exactly that when
    saturated)."""

    @settings(max_examples=60, deadline=None)
    @given(
        cores=st.integers(1, 32),
        works=st.lists(st.floats(1e6, 5e9), min_size=1, max_size=20),
    )
    # Two near-equal works on one core complete together, the longer one a
    # cycle early: inside the pool's relative epsilon, outside an absolute one.
    @example(cores=1, works=[4999999535.0, 4999999534.0])
    def test_total_cycles_bounded_by_capacity(self, cores, works):
        hz = 1e9
        pool = CpuPool(cores, hz, oversub_penalty=0.0)
        for i, w in enumerate(works):
            pool.add(0.0, _thread(str(i)), w, lambda: None)
        finish = 0.0
        remaining = len(works)
        now = 0.0
        while remaining:
            t = pool.next_completion(now)
            assert t is not None
            done = pool.pop_completed(t)
            remaining -= len(done)
            now = finish = t
        total = sum(works)
        capacity_bound = total / (cores * hz)
        serial_bound = total / hz
        assert finish >= capacity_bound - 1e-6
        assert finish <= serial_bound + 1e-6
        # Saturated all along if len(works) >= cores at all times is not
        # guaranteed, but finish can never beat perfect parallelism -- by
        # more than ``pop_completed``'s documented tolerance: a thread
        # completes within 1e-9 of the service delivered to it, so the pool
        # may run ahead by that share of the total work, no more.
        assert finish * cores * hz >= total * (1 - 1e-9) - 1e-3

    @settings(max_examples=40, deadline=None)
    @given(works=st.lists(st.floats(1e6, 2e9), min_size=2, max_size=12))
    def test_completion_order_matches_work_order(self, works):
        pool = CpuPool(2, 1e9, oversub_penalty=0.0)
        order: list[int] = []
        for i, w in enumerate(works):
            pool.add(0.0, _thread(str(i)), w, lambda i=i: order.append(i))
        now = 0.0
        while pool.runnable:
            now = pool.next_completion(now)
            for _th, cb in pool.pop_completed(now):
                cb()
        expected = [i for i, _ in sorted(enumerate(works), key=lambda p: p[1])]
        assert order == expected
