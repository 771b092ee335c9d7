"""Generalized-processor-sharing (GPS) model of a multicore CPU.

The simulated server has ``cores`` identical cores at ``hz`` cycles/second.
At any instant, the ``R`` runnable threads each progress at rate
``hz * min(1, cores / R)`` -- i.e. cores are shared perfectly and fairly.
This fluid model captures exactly the phenomena the paper measures:

* a query-centric engine with more runnable threads than cores (e.g. 256
  concurrent plans on 24 cores) sees per-thread slowdown of ``R / cores``;
* a serialized producer (push-based SP) caps utilization at a few cores no
  matter how many consumers wait.

Implementation: completion in O(log n) per event via a *cumulative service*
counter.  ``service`` is the number of cycles every pool member has received
since the pool was created.  A thread entering with ``w`` cycles of work at
service level ``S`` completes when ``service == S + w``; membership changes
only rescale ``d(service)/dt``, never the completion *order*, so a heap keyed
by target service level suffices.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.task import SimThread


class CpuPool:
    """Fluid-shared pool of CPU cores.

    Parameters
    ----------
    cores:
        Number of hardware contexts (paper: 24, hyper-threading disabled).
    hz:
        Core clock in cycles per second (paper: 1.86 GHz).
    """

    def __init__(
        self,
        cores: int,
        hz: float,
        oversub_penalty: float = 0.35,
        oversub_exponent: float = 2.0,
    ):
        if cores < 1:
            raise ValueError("need at least one core")
        if hz <= 0:
            raise ValueError("clock speed must be positive")
        if oversub_penalty < 0:
            raise ValueError("oversub_penalty must be >= 0")
        if oversub_exponent < 1:
            raise ValueError("oversub_exponent must be >= 1")
        self.cores = cores
        self.hz = hz
        self.oversub_penalty = oversub_penalty
        self.oversub_exponent = oversub_exponent
        self.service = 0.0  # per-thread cumulative service, in cycles
        self._last_update = 0.0
        # Memoized per-thread rates indexed by member count (index 0 is a
        # placeholder; _rate early-returns 0.0 for an empty pool).
        self._rates: list[float] = [0.0]
        # (target service, seq, thread, on_done); the simulator's own
        # entries carry ``on_done=None`` and completion resumes ``thread``
        self._heap: list[tuple[float, int, "SimThread", Callable[[], None]]] = []
        self._seq = 0
        #: Completion slot, owned by the simulator: the time of the pool's
        #: next completion as of its last membership change (inf = idle).
        self.armed_when = math.inf
        # ---- metrics -------------------------------------------------
        self.util_integral = 0.0  # integral of busy cores over time
        self.busy_time = 0.0  # wall time with >= 1 runnable thread

    # ------------------------------------------------------------------
    @property
    def runnable(self) -> int:
        """Number of threads currently in the pool."""
        return len(self._heap)

    def _rate(self) -> float:
        """Current per-thread progress rate in cycles/second.

        When the pool is oversubscribed (R > cores) real machines degrade
        *superlinearly* -- context switching, cache pollution, scheduler and
        latch contention compound (the paper reports up to 50% response-time
        standard deviation in this regime).  We model it as a throughput
        multiplier ``1 / (1 + k * (R/cores - 1)^p)`` with
        ``k = oversub_penalty`` and ``p = oversub_exponent``: mild at 2-3x
        oversubscription, severe beyond; cores still *appear* fully busy
        (utilization metrics are unaffected)."""
        n = len(self._heap)
        if n == 0:
            return 0.0
        rates = self._rates
        if n < len(rates):
            return rates[n]
        return self._rate_for(n)

    def _rate_for(self, n: int) -> float:
        """Compute (and memoize) the per-thread rate for ``n`` members.

        The rate is a pure function of the member count (hz, cores and the
        oversubscription penalty are fixed per pool), so each distinct ``n``
        is computed exactly once -- same expression, same float -- and hot
        paths index the memo table directly."""
        rates = self._rates
        while len(rates) <= n:
            m = len(rates)
            rate = self.hz * min(1.0, self.cores / m)
            if m > self.cores and self.oversub_penalty > 0:
                excess = m / self.cores - 1.0
                rate /= 1.0 + self.oversub_penalty * excess**self.oversub_exponent
            rates.append(rate)
        return rates[n]

    def advance(self, now: float) -> None:
        """Bring the service counter (and metrics) up to simulated ``now``."""
        dt = now - self._last_update
        if dt < 0:
            raise AssertionError(f"time went backwards: {self._last_update} -> {now}")
        if dt > 0:
            n = len(self._heap)
            if n:
                self.service += self._rate() * dt
                self.util_integral += min(n, self.cores) * dt
                self.busy_time += dt
            self._last_update = now

    # ------------------------------------------------------------------
    # Reference model.  The simulator never calls the three methods below:
    # ``Simulator._resume`` / ``_service_pool`` inline their arithmetic.
    # They stay as the specification the inlined form is checked against
    # (tests/sim/test_completion_slots.py runs both on generated schedules
    # and compares to the last bit; tests/sim/test_cpu_pool.py pins them).
    def add(
        self,
        now: float,
        thread: "SimThread",
        cycles: float,
        on_done: Callable[[], None],
    ) -> None:
        """Enter ``thread`` into the pool for ``cycles`` of work; call
        ``on_done`` when the work completes.  A command, fused or not,
        enters once with its ``CpuCommand.total``."""
        self.advance(now)
        target = self.service + max(cycles, 0.0)
        self._seq += 1
        heapq.heappush(self._heap, (target, self._seq, thread, on_done))

    def next_completion(self, now: float) -> float | None:
        """Simulated time of the earliest completion, or None if idle."""
        self.advance(now)
        if not self._heap:
            return None
        target = self._heap[0][0]
        rate = self._rate()
        remaining = max(target - self.service, 0.0)
        if rate == 0:  # pragma: no cover - defensive; heap nonempty => rate>0
            return None
        return now + remaining / rate

    def pop_completed(self, now: float) -> list[tuple["SimThread", Callable[[], None]]]:
        """Remove and return every thread whose work is complete at ``now``,
        in completion order; the caller invokes the callables in that
        order *after* the whole batch is popped."""
        self.advance(now)
        done: list[tuple["SimThread", Callable[[], None]]] = []
        eps = 1e-9 * max(1.0, abs(self.service))
        while self._heap and self._heap[0][0] <= self.service + eps:
            _, _, thread, on_done = heapq.heappop(self._heap)
            done.append((thread, on_done))
        return done

    # ------------------------------------------------------------------
    def avg_cores_used(self, window: float) -> float:
        """Average number of busy cores over ``window`` seconds (the paper's
        'Avg. # Cores Used' measurement, averaged over the activity period)."""
        if window <= 0:
            return 0.0
        return self.util_integral / window

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CpuPool {self.cores}c@{self.hz / 1e9:.2f}GHz runnable={self.runnable}>"
