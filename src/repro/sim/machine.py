"""Machine specifications for the simulated server.

The default spec mirrors the paper's testbed (Section 5.1): a Sun Fire X4470
with four hexa-core Intel Xeon E7530 processors at 1.86 GHz (hyper-threading
disabled, so 24 hardware contexts), 64 GB of RAM, and two 146 GB 10kRPM SAS
disks configured as RAID-0 -- one disk set, modelled as one device.

The specs are the one validator of the hardware model, and each carries the
per-member rate of its processor-sharing pool (:mod:`repro.sim.pool`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

GB = 1 << 30
MB = 1 << 20

#: ``p`` of the oversubscription slowdown ``1 / (1 + k * excess^p)`` (see
#: :meth:`MachineSpec.cpu_rate`).
OVERSUB_EXPONENT = 2.0


@dataclass(frozen=True)
class DiskSpec:
    """The machine's disk (a RAID set): aggregate sequential read
    ``bandwidth`` in bytes/second, shared by concurrent streams.

    ``seek_penalty`` is the per-extra-stream harmonic decay of aggregate
    efficiency, floored at ``min_efficiency`` (see :meth:`rate`); the bytes
    of a non-sequential read are inflated by ``random_multiplier`` (short
    random reads waste rotational latency)."""

    bandwidth: float = 210 * MB  # aggregate sequential read, RAID-0 of 2 SAS disks
    seek_penalty: float = 0.35
    min_efficiency: float = 0.22
    random_multiplier: float = 4.0

    def __post_init__(self) -> None:
        # ``not x > 0`` rather than ``x <= 0``: NaN is rejected too.
        if not self.bandwidth > 0:
            raise ValueError("disk bandwidth must be positive")
        if not self.seek_penalty >= 0:
            raise ValueError("seek_penalty must be >= 0")
        if not 0 < self.min_efficiency <= 1:
            raise ValueError("min_efficiency must be in (0, 1]")
        if not self.random_multiplier >= 1:
            raise ValueError("random_multiplier must be >= 1")

    def interleave_efficiency(self, n: int) -> float:
        """Fraction of peak aggregate bandwidth achieved with ``n`` streams."""
        if n <= 1:
            return 1.0
        return max(self.min_efficiency, 1.0 / (1.0 + self.seek_penalty * (n - 1)))

    def rate(self, n: int) -> float:
        """Per-stream delivery rate in bytes/second with ``n`` streams: the
        aggregate ``bandwidth * interleave_efficiency(n)``, split evenly."""
        return self.bandwidth * self.interleave_efficiency(n) / n


@dataclass(frozen=True)
class MachineSpec:
    """Hardware configuration of the simulated server."""

    cores: int = 24
    hz: float = 1.86e9
    #: superlinear slowdown when runnable threads exceed cores (context
    #: switching / cache pollution); ``k`` of the multiplier
    #: 1/(1 + k*excess^p), see :meth:`cpu_rate`.
    oversub_penalty: float = 0.35
    disk: DiskSpec = field(default_factory=DiskSpec)

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if not self.hz > 0:
            raise ValueError("hz must be positive")
        if not self.oversub_penalty >= 0:
            raise ValueError("oversub_penalty must be >= 0")

    def cpu_rate(self, n: int) -> float:
        """Per-thread progress rate in cycles/second with ``n`` runnable
        threads: fair sharing of ``cores``, times the oversubscription term.

        When the pool is oversubscribed (R > cores) real machines degrade
        *superlinearly* -- context switching, cache pollution, scheduler and
        latch contention compound (the paper reports up to 50% response-time
        standard deviation in this regime).  We model it as a throughput
        multiplier ``1 / (1 + k * (R/cores - 1)^p)`` with
        ``k = oversub_penalty`` and ``p =`` :data:`OVERSUB_EXPONENT`: mild at 2-3x
        oversubscription, severe beyond; cores still *appear* fully busy
        (utilization metrics are unaffected)."""
        rate = self.hz * min(1.0, self.cores / n)
        if n > self.cores and self.oversub_penalty > 0:
            excess = n / self.cores - 1.0
            rate /= 1.0 + self.oversub_penalty * excess**OVERSUB_EXPONENT
        return rate


#: The paper's testbed.
PAPER_MACHINE = MachineSpec()


def uniprocessor() -> MachineSpec:
    """A single-core machine -- the original QPipe evaluation hardware, on
    which the push-based serialization point was invisible (Section 4)."""
    return MachineSpec(cores=1)
