"""End-to-end tests for the query service: admission bounds, backpressure,
timeout shedding and report consistency on a real (small) SSB database."""

import pytest

from repro.data import generate_ssb
from repro.server import (
    QUERY_CENTRIC,
    QueryService,
    ServiceConfig,
    StaticThresholdPolicy,
    serve,
)
from repro.server.service import job_factory
from repro.server.arrivals import BurstArrivals, PoissonArrivals, TraceArrivals
from repro.sim.machine import MachineSpec

SF = 0.5
MACHINE = MachineSpec()


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(SF, seed=23)


def run_service(ssb, policy="static", config=ServiceConfig(), arrivals=None, duration=3.0, machine=MACHINE):
    service = QueryService(ssb.tables, policy, config=config, machine=machine)
    arrivals = arrivals or PoissonArrivals(4.0, seed=5)
    service.run(job_factory("ssb-mix", seed=5), arrivals, duration)
    return service


class TestAccounting:
    def test_clean_drain(self, ssb):
        service = run_service(ssb)
        m = service.metrics
        assert m.arrived > 0
        assert m.arrived == m.admitted + m.dropped
        assert m.admitted == m.completed + m.timed_out
        assert m.in_system == 0
        assert service.in_flight == 0
        assert len(m.latencies) == m.completed
        assert all(lat > 0 for lat in m.latencies)

    def test_latency_includes_queue_wait(self, ssb):
        # One-at-a-time dispatch: later queries of a burst wait in queue,
        # and their reported latency starts at *arrival*.
        config = ServiceConfig(max_in_flight=1)
        service = run_service(ssb, config=config, arrivals=BurstArrivals(4.0, burst=4), duration=2.0)
        m = service.metrics
        assert m.completed >= 4
        assert max(m.queue_waits) > 0
        assert max(m.latencies) > max(m.queue_waits)

    def test_deterministic_replay(self, ssb):
        a = run_service(ssb).metrics
        b = run_service(ssb).metrics
        assert a.latencies == b.latencies
        assert a.routed == b.routed


class TestAdmissionBounds:
    def test_queue_full_drops(self, ssb):
        config = ServiceConfig(queue_capacity=2, max_in_flight=1)
        service = run_service(
            ssb, config=config, arrivals=BurstArrivals(8.0, burst=12), duration=2.0
        )
        m = service.metrics
        assert m.dropped > 0
        assert m.arrived == m.admitted + m.dropped
        assert m.admitted == m.completed + m.timed_out

    def test_backpressure_respects_in_flight_cap(self, ssb):
        seen = []

        class Spy(StaticThresholdPolicy):
            def choose(self, spec, in_flight, queue_depth):
                seen.append(in_flight)
                return QUERY_CENTRIC

        config = ServiceConfig(max_in_flight=2)
        run_service(
            ssb,
            policy=Spy(MACHINE),
            config=config,
            arrivals=BurstArrivals(8.0, burst=8),
            duration=2.0,
        )
        assert seen
        # The dispatcher holds queries until a slot frees: at decision
        # time at most cap-1 queries are in flight.
        assert max(seen) <= 1


class TestTimeoutShedding:
    def test_expired_queries_are_shed(self, ssb):
        config = ServiceConfig(max_in_flight=1, queue_timeout=0.05)
        service = run_service(
            ssb, config=config, arrivals=BurstArrivals(8.0, burst=8), duration=2.0
        )
        m = service.metrics
        assert m.timed_out > 0
        assert m.completed > 0  # shed the tail, not the service
        assert m.admitted == m.completed + m.timed_out

    def test_no_timeout_sheds_nothing(self, ssb):
        service = run_service(ssb, config=ServiceConfig(queue_timeout=None))
        assert service.metrics.timed_out == 0


class TestServe:
    def test_report_consistency(self, ssb):
        report = serve(
            ssb.tables, policy="adaptive", arrival="poisson",
            rate=4.0, duration=3.0, seed=5, workload="ssb-mix",
        )
        m = report.metrics
        assert report.policy == "adaptive"
        assert report.sim_seconds >= 3.0 or m.arrived == 0
        assert report.window >= report.duration
        assert report.throughput_qps == pytest.approx(m.completed / report.window)
        d = report.to_dict()
        for key in ("policy", "arrival", "rate", "latency", "throughput_qps",
                    "arrived", "admitted", "dropped", "timed_out", "completed"):
            assert key in d
        text = report.render()
        assert "latency p95 (s)" in text and "adaptive" in text

    def test_identical_calls_report_identically(self, ssb):
        """A report is a function of the call's arguments: nothing the
        process accumulated over an earlier run (warm host-side caches,
        process-wide counters) may reach it."""
        kwargs = dict(rate=4.0, duration=4.0, seed=1, workload="folding:0.5")
        assert serve(ssb.tables, **kwargs).to_dict() == serve(ssb.tables, **kwargs).to_dict()

    def test_trace_driven(self, ssb, tmp_path):
        f = tmp_path / "trace.txt"
        f.write_text("0.1\n0.2\n0.3\n")
        report = serve(
            ssb.tables, policy="static", arrival="trace", rate=1.0,
            duration=None, seed=5, workload="q32-random", trace_path=str(f),
        )
        assert report.metrics.arrived == 3
        assert report.metrics.completed == 3

    def test_unknown_workload(self, ssb):
        with pytest.raises(ValueError, match="unknown serve workload"):
            serve(ssb.tables, workload="tpch-everything", duration=0.5)

    def test_shared_storage_between_routes(self, ssb):
        service = QueryService(ssb.tables, "static", machine=MACHINE)
        assert service.query_centric.storage is service.gqp.storage is service.storage

    def test_jobs_deterministic_per_index(self):
        jobs = job_factory("ssb-mix", seed=9)
        assert jobs(4).spec.signature == job_factory("ssb-mix", seed=9)(4).spec.signature
