"""Discrete-event simulation of a multicore database server.

This package is the substrate substitution for the paper's Sun Fire X4470
(4x6-core Xeon E7530, 64 GB RAM, 2-disk RAID-0).  The CPython GIL makes real
multicore measurements of pipelined sharing meaningless, so the execution
engines in :mod:`repro.engine` and :mod:`repro.gqp` run as cooperative
coroutines on this simulator: real tuples flow through real data structures,
while *time* is accounted by two processor-sharing ("fluid") pools: the
CPU and a shared-bandwidth disk (:mod:`~repro.sim.pool`).

Public surface:

* :class:`~repro.sim.engine.Simulator` -- the event loop.
* :class:`~repro.sim.machine.MachineSpec` -- cores, clock speed, the disk, RAM.
* :func:`~repro.sim.commands.CPU`, :func:`~repro.sim.commands.IO`,
  :func:`~repro.sim.commands.SLEEP`, :data:`~repro.sim.commands.BLOCK` --
  the commands a simulated thread may ``yield``.
* :mod:`~repro.sim.sync` -- locks, condition variables and channels that
  block in simulated time.
* :class:`~repro.sim.costmodel.CostModel` -- calibrated cycle/byte charges;
  a run's one model is ``Simulator(machine, cost).cost``, and every layer
  charges through ``sim.cost``.
"""

from repro.sim.commands import BLOCK, CPU, IO, SLEEP
from repro.sim.costmodel import CostModel
from repro.sim.engine import DeadlockError, Simulator
from repro.sim.machine import MachineSpec
from repro.sim.metrics import Metrics
from repro.sim.sync import Channel, Condition, Gate, Lock
from repro.sim.task import SimThread

__all__ = [
    "BLOCK",
    "CPU",
    "IO",
    "SLEEP",
    "Channel",
    "Condition",
    "CostModel",
    "DeadlockError",
    "Gate",
    "Lock",
    "MachineSpec",
    "Metrics",
    "SimThread",
    "Simulator",
]
