"""The machine spec is the one validator of the hardware model: a value
that would crash a run or corrupt its clock is refused at construction."""

import math

import pytest

from repro.sim import IO, Simulator
from repro.sim.machine import DiskSpec, MachineSpec


def three_reads(disk: DiskSpec) -> list[float]:
    """Finish times of three concurrent 1 MB reads on a 2-core machine
    with ``disk``."""
    sim = Simulator(MachineSpec(cores=2, hz=1e9, disk=disk))
    done: list[float] = []

    def reader():
        yield IO(1e6)
        done.append(sim.now)

    for _ in range(3):
        sim.spawn(reader(), "r")
    sim.run()
    return done


@pytest.mark.parametrize(
    ("spec", "values"),
    [
        (DiskSpec, {"bandwidth": 0.0}),
        (DiskSpec, {"bandwidth": math.nan}),
        # eff(3) = 1 / (1 - 0.5 * 2) divides by zero inside the run
        (DiskSpec, {"seek_penalty": -0.5}),
        (DiskSpec, {"seek_penalty": math.nan}),
        # eff(n) = max(0, 1 / inf) = 0: a zero rate divides by zero
        (DiskSpec, {"min_efficiency": 0.0, "seek_penalty": 1e308}),
        (DiskSpec, {"min_efficiency": 1.5}),
        # a negative or NaN rate runs the disk clock backwards
        (DiskSpec, {"bandwidth": -1.0}),
        (DiskSpec, {"min_efficiency": math.nan}),
        (MachineSpec, {"hz": math.nan}),
        (MachineSpec, {"oversub_penalty": math.nan}),
    ],
)
def test_spec_rejects_values_that_break_a_run(spec, values):
    with pytest.raises(ValueError):
        spec(**values)


def test_boundary_values_run():
    # No interleave penalty and no efficiency floor to speak of: three
    # 1 MB streams share 1 MB/s evenly, so each finishes at t = 3.
    disk = DiskSpec(bandwidth=1e6, seek_penalty=0.0, min_efficiency=1.0)
    assert three_reads(disk) == pytest.approx([3.0, 3.0, 3.0])
    # The paper's disk: interleaving three streams costs seeks, so they
    # finish together, later.
    done = three_reads(DiskSpec(bandwidth=1e6))
    assert done[0] == done[1] == done[2] > 3.0
