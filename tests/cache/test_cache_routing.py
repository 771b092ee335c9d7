"""Cache-aware routing in the query service (the Hybrid configuration and
the served streams) and run-for-run determinism of cache-enabled runs."""

from dataclasses import replace

import pytest

from repro.baselines import evaluate_plan
from repro.bench.workload import QueryJob
from repro.data import generate_ssb
from repro.engine.config import QPIPE_SP
from repro.query.ssb_queries import q32
from repro.server import QueryService, ServiceConfig, StaticThresholdPolicy, TraceArrivals
from repro.server.router import GQP, QUERY_CENTRIC
from repro.server.service import job_factory, recurring_job_factory, serve
from repro.sim.machine import MachineSpec
from repro.storage import StorageConfig

MACHINE = MachineSpec()

#: long after every earlier arrival has completed
LATER = 100.0


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(0.5, seed=23)


def cache_config(mb=32.0, policy="benefit"):
    return StorageConfig(
        resident="memory",
        result_cache_bytes=mb * 1024 * 1024,
        result_cache_policy=policy,
    )


SPEC_ARGS = ("CHINA", "FRANCE", 1993, 1996)


def serve_trace(tables, specs, times, storage_config, qc_config=QPIPE_SP):
    """Serve ``specs[k]`` arriving at ``times[k]`` under the static policy
    at threshold 1 (the second concurrent query saturates)."""
    jobs = [QueryJob(spec=s) for s in specs]
    service = QueryService(
        tables,
        StaticThresholdPolicy(MACHINE, threshold=1),
        ServiceConfig(queue_capacity=len(jobs)),
        MACHINE,
        storage_config=storage_config,
        qc_config=qc_config,
    )
    service.run(jobs.__getitem__, TraceArrivals(times), None)
    return service


class TestHybridDiscount:
    def test_likely_hit_stays_query_centric_at_saturation(self, ssb):
        # The first query fills the cache.  Later, two back-to-back
        # arrivals: the second sees in_flight >= threshold, but its plan is
        # cached, so the discount keeps it query-centric.
        specs = [q32(*SPEC_ARGS), q32("JAPAN", "BRAZIL", 1992, 1995), q32(*SPEC_ARGS)]
        service = serve_trace(ssb.tables, specs, [0, LATER, LATER], cache_config())
        assert len(service.storage.result_cache._entries) > 0
        assert service.metrics.cache_routed == 1
        assert service.metrics.routed == {QUERY_CENTRIC: 3}
        assert service.handles[2].query.cache_served

    def test_uncached_plan_still_goes_gqp(self, ssb):
        specs = [q32(*SPEC_ARGS), q32("JAPAN", "BRAZIL", 1992, 1995)]  # not cached
        service = serve_trace(ssb.tables, specs, [0, 0], cache_config())
        assert service.metrics.routed == {QUERY_CENTRIC: 1, GQP: 1}
        assert service.metrics.cache_routed == 0
        assert not service.handles[1].query.cache_served

    def test_subsuming_entry_is_no_discount_for_an_engine_that_does_not_fold(self, ssb):
        """Only a *subsuming* entry is resident (the exact one is absent):
        the discount follows the query-centric engine's own fold setting
        (the GQP engine here folds) -- a fold-off engine would not replay
        the entry, so at saturation the query goes to the GQP and is
        computed."""
        narrow = q32(*SPEC_ARGS)
        broad = q32("CHINA", "FRANCE", 1992, 1997)  # superset of narrow
        specs = [broad, q32("JAPAN", "BRAZIL", 1992, 1995), narrow]  # 2nd saturates
        service = serve_trace(
            ssb.tables,
            specs,
            [0, LATER, LATER],
            cache_config(),
            qc_config=replace(QPIPE_SP, query_folding=False),
        )
        cache = service.storage.result_cache
        assert cache.has_subsuming(narrow.to_query_centric_plan(ssb.tables).child)
        assert service.metrics.cache_routed == 0
        assert service.metrics.routed == {QUERY_CENTRIC: 2, GQP: 1}
        h = service.handles[2]
        assert h in service.gqp.handles
        assert not h.query.cache_served
        assert h.results == evaluate_plan(narrow.to_query_centric_plan(ssb.tables))

    def test_no_cache_reproduces_plain_routing(self, ssb):
        specs = [q32(*SPEC_ARGS), q32(*SPEC_ARGS)]
        service = serve_trace(ssb.tables, specs, [0, 0], StorageConfig(resident="memory"))
        assert service.metrics.routed == {QUERY_CENTRIC: 1, GQP: 1}
        assert service.metrics.cache_routed == 0


class TestServiceDiscount:
    def test_recurring_stream_uses_discount_and_splits_latency(self, ssb):
        report = serve(
            ssb.tables,
            policy="adaptive",
            rate=8.0,
            duration=4.0,
            seed=1,
            workload="recurring:0.5",
            storage_config=cache_config(),
        )
        m = report.metrics
        assert m.cache_stats["hits"] > 0
        assert m.cache_routed > 0
        assert len(m.cache_hit_latencies) > 0
        assert len(m.cache_hit_latencies) + len(m.cache_miss_latencies) == m.completed
        split = m.cache_latency_split()
        assert split["hit_served"]["p95"] < split["computed"]["p95"]
        out = m.to_dict()
        assert out["result_cache"]["routed_discount"] == m.cache_routed

    def test_cache_off_report_has_no_cache_section(self, ssb):
        report = serve(
            ssb.tables,
            policy="adaptive",
            rate=8.0,
            duration=2.0,
            seed=1,
            workload="recurring:0.5",
        )
        assert report.metrics.cache_stats == {}
        assert "result_cache" not in report.metrics.to_dict()


class TestDeterminism:
    def _run(self, ssb, **kwargs):
        return serve(
            ssb.tables,
            policy="adaptive",
            rate=8.0,
            duration=3.0,
            seed=7,
            workload="recurring:0.5",
            **kwargs,
        )

    def test_same_seed_same_metrics_with_cache(self, ssb):
        a = self._run(ssb, storage_config=cache_config())
        b = self._run(ssb, storage_config=cache_config())
        assert a.metrics.to_dict(hz=a.machine_hz) == b.metrics.to_dict(hz=b.machine_hz)
        assert a.sim_seconds == b.sim_seconds

    def test_cache_off_matches_default_config(self, ssb):
        # result_cache_bytes=0 must be byte-for-byte the pre-cache engine.
        a = self._run(ssb)
        b = self._run(ssb, storage_config=StorageConfig(resident="memory", result_cache_bytes=0.0))
        assert a.metrics.to_dict(hz=a.machine_hz) == b.metrics.to_dict(hz=b.machine_hz)
        assert a.sim_seconds == b.sim_seconds


class TestRecurringWorkload:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            recurring_job_factory(1, 1.5)
        with pytest.raises(ValueError, match="recurring"):
            job_factory("recurring:x", 1)

    def test_zero_rate_is_all_fresh(self):
        jobs = job_factory("recurring:0.0", 3)
        specs = [jobs(k).spec.signature for k in range(16)]
        assert len(set(specs)) == len(specs)

    def test_full_rate_draws_from_fixed_pool(self):
        jobs = job_factory("recurring:1.0", 3)
        specs = [jobs(k).spec.signature for k in range(32)]
        assert len(set(specs)) <= 4

    def test_factory_is_deterministic(self):
        a = job_factory("recurring:0.5", 9)
        b = job_factory("recurring:0.5", 9)
        assert [a(k).spec.signature for k in range(20)] == [
            b(k).spec.signature for k in range(20)
        ]
