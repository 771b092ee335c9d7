"""A fused CPU command is one GPS job of its summed work.

A worker may yield ``CPU_FUSED(a, b, c)`` instead of a, b, c in sequence,
saving two generator resumes and two dispatches.  The simulator meters every
part into its category at dispatch and enters the pool once with the
command's ``total``.  In a GPS pool that job finishes at the instant the
chain of separate yields would have -- the thread is a member throughout, so
the member count, and with it every rate, is the same -- up to float
association.  These tests hold the two halves of that: a fused command is
bit-identical to one ``CPU`` of its summed cycles, and within 1e-12
relative of the separate yields, with equal category totals, under
contention and oversubscription."""

import pytest

from repro.sim.commands import CPU, CPU_FUSED, SLEEP, CpuCommand
from repro.sim.costmodel import CostModel
from repro.sim.engine import Simulator
from repro.sim.machine import MachineSpec


class TestFactory:
    def test_single_command_passes_through(self):
        c = CPU(100.0, "joins")
        assert CPU_FUSED(c) is c

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CPU_FUSED()

    def test_parts_preserved_in_order(self):
        f = CPU_FUSED(CPU(1.0, "a"), CPU(2.0, "b"), CPU(3.0, "c"))
        assert (f.cycles, f.category) == (1.0, "a")
        assert f.rest == ((2.0, "b"), (3.0, "c"))

    def test_nested_fusions_flatten(self):
        inner = CPU_FUSED(CPU(2.0, "b"), CPU(3.0, "c"))
        f = CPU_FUSED(CPU(1.0, "a"), inner, CPU(4.0, "d"))
        assert f.rest == ((2.0, "b"), (3.0, "c"), (4.0, "d"))

    def test_total_sums_the_parts_in_order(self):
        assert CPU(5.0, "a").total == 5.0
        assert CPU(-5.0, "a").total == 0.0
        f = CPU_FUSED(CPU(0.1, "a"), CPU(-7.0, "b"), CPU(0.2, "c"), CPU(0.3, "d"))
        assert f.total == (0.1 + 0.2) + 0.3  # negative parts count as zero
        assert CPU_FUSED(CPU(1.0, "a"), CPU_FUSED(CPU(2.0, "b"), CPU(3.0, "c"))).total == 6.0


def test_cost_model_fusion_is_one_cached_value():
    """``CostModel.fused`` hands back one command per tuple of parts, equal
    part for part to what ``CPU_FUSED`` builds."""
    cost = CostModel()
    a, b, c = cost.read(64, 10.0), cost.hashing(64, 10.0), cost.probe(64, 10.0)
    f = cost.fused(a, b, c)
    assert cost.fused(a, b, c) is f
    ref = CPU_FUSED(a, b, c)
    assert (f.cycles, f.category, f.rest, f.total) == (ref.cycles, ref.category, ref.rest, ref.total)
    assert cost.fused(f, cost.spl_latch_charge).rest == ref.rest + ((3000.0, "locks"),)
    assert cost.fused(a) is a


def _run(mode: str, charges_by_thread: list[list[tuple[float, str]]], cores=2):
    """Run one thread per charge list.  ``mode`` is "fused" (the list as one
    CPU_FUSED command), "separate" (one CPU per charge) or "summed" (one
    CPU of the summed cycles).  Returns (now, metrics, finish times)."""
    sim = Simulator(MachineSpec(cores=cores, hz=1e9))
    finish_times: dict[int, float] = {}

    def worker(tid: int, charges: list[tuple[float, str]]):
        # Stagger starts so pool entries arrive at distinct service levels.
        yield SLEEP(0.001 * tid)
        if mode == "fused":
            yield CPU_FUSED(*[CPU(c, cat) for c, cat in charges])
        elif mode == "summed":
            yield CPU(sum(c for c, _ in charges), "misc")
        else:
            for c, cat in charges:
                yield CPU(c, cat)
        finish_times[tid] = sim.now

    for tid, charges in enumerate(charges_by_thread):
        sim.spawn(worker(tid, charges), f"w{tid}", query_id=tid)
    sim.run()
    return sim.now, sim.metrics.to_dict(), finish_times


WORKLOADS = [
    # one thread, simple sequence
    [[(1e6, "scans"), (2e6, "hashing"), (5e5, "joins")]],
    # contention: more threads than cores, uneven charge counts
    [
        [(1e6, "scans"), (3e6, "joins")],
        [(2.5e6, "hashing")],
        [(7e5, "joins"), (7e5, "joins"), (7e5, "joins")],
        [(1.1e6, "aggregation"), (9e5, "misc")],
    ],
    # irrational-ish cycle counts to stress float accumulation
    [
        [(1234567.891, "scans"), (7654321.123, "joins"), (1e3, "locks")],
        [(999999.5, "hashing"), (1000000.5, "hashing")],
        [(3333333.333, "aggregation")] * 3,
    ],
]


@pytest.mark.parametrize("charges", WORKLOADS, ids=["single", "contended", "floats"])
def test_fused_run_is_bit_identical(charges):
    """A fused command finishes exactly where one CPU of its summed cycles
    does, under contention."""
    now_s, _, fin_s = _run("summed", charges)
    now_f, _, fin_f = _run("fused", charges)
    assert now_f == now_s  # exact float equality, no approx
    assert fin_f == fin_s


@pytest.mark.parametrize("charges", WORKLOADS, ids=["single", "contended", "floats"])
def test_fused_and_separate_yields_agree(charges):
    now_u, metrics_u, fin_u = _run("separate", charges)
    now_f, metrics_f, fin_f = _run("fused", charges)
    assert now_f == pytest.approx(now_u, rel=1e-12, abs=0.0)
    assert fin_f.keys() == fin_u.keys()
    for tid, t in fin_u.items():
        assert fin_f[tid] == pytest.approx(t, rel=1e-12, abs=0.0)
    assert metrics_f["cpu_cycles_by_category"] == metrics_u["cpu_cycles_by_category"]


def test_fused_zero_cycle_head_still_enters_pool():
    """A fused command whose head is zero cycles must not take the
    immediate-resume shortcut -- its rest still needs the pool."""
    sim = Simulator(MachineSpec(cores=1, hz=1e9))
    seen = []

    def worker():
        yield CPU_FUSED(CPU(0.0, "misc"), CPU(1e9, "joins"))
        seen.append(sim.now)

    sim.spawn(worker(), "w")
    sim.run()
    assert seen == [pytest.approx(1.0)]
    assert sim.metrics.to_dict()["cpu_cycles_by_category"]["joins"] == 1e9


def test_zero_total_resumes_through_the_event_heap():
    """Like any zero-cycle command: no pool entry, parts still metered."""
    sim = Simulator(MachineSpec(cores=1, hz=1e9))
    seen = []

    def worker():
        yield CPU_FUSED(CPU(0.0, "misc"), CPU(0.0, "locks"))
        seen.append(sim.now)

    sim.spawn(worker(), "w")
    sim.run()
    assert seen == [0.0]
    assert sim.cpu._seq == 0
    assert set(sim.metrics.cpu_cycles_by_category) == {"misc", "locks"}


def test_rest_is_plain_data():
    """rest entries are (cycles, category) pairs, so fused commands stay
    hashable/frozen like any CpuCommand."""
    f = CPU_FUSED(CPU(1.0, "a"), CPU(2.0, "b"))
    assert isinstance(f, CpuCommand)
    hash(f)
