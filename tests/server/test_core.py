"""The one serving core's admission semantics, pinned exactly.

A fake executor with a fixed service time per query stands in for the
engines, so every drop, shed, dispatch and completion instant is known in
advance.  Both real executors (in-process engines, scatter/gather shards)
run behind this same core.
"""

import pytest

from repro.bench.workload import QueryJob
from repro.server import Service, ServiceConfig, ServiceMetrics, TraceArrivals
from repro.sim.engine import Simulator

SVC_S = 1.0


class FixedTimeService(Service):
    """Every dispatched query completes exactly ``SVC_S`` after dispatch."""

    def __init__(self, config: ServiceConfig):
        super().__init__(Simulator(), ServiceMetrics(), config)
        self.dispatched: list[int] = []
        self.shed: list[int] = []
        self.completions: dict[int, float] = {}

    def _execute(self, item):
        self.dispatched.append(item.seq)

        def done():
            self.completions[item.seq] = self.sim.now
            self._complete(item)

        self.sim.call_at(self.sim.now + SVC_S, done)
        return "fixed"

    def _shed_if_expired(self, item):
        shed = super()._shed_if_expired(item)
        if shed:
            self.shed.append(item.seq)
        return shed


def jobs(k: int) -> QueryJob:
    return QueryJob(plan=object(), label=f"q{k}")


def test_burst_bound_deadline_and_cap_are_exact():
    # Four arrivals at t=0 are all offered before the dispatcher runs: two
    # fill the queue, two are dropped.  seq 4 and 5 arrive at t=1 while the
    # dispatcher holds seq 1 for the single in-flight slot; seq 5 waits
    # until t=3, past its deadline (1 + 1.5), and is shed.
    service = FixedTimeService(
        ServiceConfig(queue_capacity=2, max_in_flight=1, queue_timeout=1.5)
    )
    arrivals = TraceArrivals([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 5.0])
    assert service.run(jobs, arrivals, None) == 6.0

    m = service.metrics
    assert service.dispatched == [0, 1, 4, 6]
    assert service.shed == [5]
    dropped = sorted(set(range(7)) - set(service.dispatched) - set(service.shed))
    assert dropped == [2, 3]
    assert service.completions == {0: 1.0, 1: 2.0, 4: 3.0, 6: 6.0}
    assert (m.arrived, m.admitted, m.dropped, m.timed_out, m.completed) == (7, 5, 2, 1, 4)
    assert m.latencies == [1.0, 2.0, 2.0, 1.0]
    assert m.queue_waits == [0.0, 1.0, 1.0, 2.0, 0.0]
    assert m.routed == {"fixed": 4}
    assert service.in_flight == 0 and m.in_system == 0


def test_duration_bounded_run_ends_at_the_first_arrival_past_it():
    service = FixedTimeService(ServiceConfig())
    final = service.run(jobs, TraceArrivals([0.0, 0.5, 4.0]), duration=2.0)
    assert service.dispatched == [0, 1]
    assert final == 4.0  # the clock reached the arrival that ended the source


def test_executor_errors_keep_their_type():
    class Refusing(FixedTimeService):
        def _execute(self, item):
            raise ValueError("cannot serve this job")

    with pytest.raises(ValueError, match="cannot serve this job"):
        Refusing(ServiceConfig()).run(jobs, TraceArrivals([0.0]), None)
