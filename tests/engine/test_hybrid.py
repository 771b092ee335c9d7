"""Tests for the Hybrid configuration -- the paper's concluding
recommendation, served by QueryService under the static routing policy."""

import pytest

from repro.baselines import evaluate_plan
from repro.bench.runner import HYBRID, run_batch
from repro.bench.workload import QueryJob, q32_random_workload
from repro.data import generate_ssb
from repro.query.ssb_queries import q32
from repro.server import QueryService, ServiceConfig, StaticThresholdPolicy, TraceArrivals
from repro.server.router import GQP, QUERY_CENTRIC, saturation_threshold
from repro.sim.machine import MachineSpec
from repro.storage import StorageConfig
from tests.answers import sorted_rows

MACHINE = MachineSpec()

#: long after every earlier arrival has completed
LATER = 100.0


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(0.5, seed=23)


def serve_trace(tables, queries, times, threshold=None):
    """Serve ``queries[k]`` (a star spec or a QueryJob) arriving at
    ``times[k]`` under the static policy."""
    jobs = [q if isinstance(q, QueryJob) else QueryJob(spec=q) for q in queries]
    service = QueryService(
        tables,
        StaticThresholdPolicy(MACHINE, threshold),
        ServiceConfig(queue_capacity=len(jobs)),
        MACHINE,
        storage_config=StorageConfig(resident="memory"),
    )
    service.run(jobs.__getitem__, TraceArrivals(times), None)
    return service


def routes(service):
    routed = service.metrics.routed
    return routed.get(QUERY_CENTRIC, 0), routed.get(GQP, 0)


class TestRouting:
    def test_low_concurrency_goes_query_centric(self, ssb):
        specs = [q32("CHINA", "FRANCE", 1992 + i, 1996) for i in range(3)]
        service = serve_trace(ssb.tables, specs, [0, 0, 0], threshold=8)
        assert routes(service) == (3, 0)

    def test_overflow_goes_to_gqp(self, ssb):
        specs = [q32("CHINA", "FRANCE", 1992 + i % 4, 1996) for i in range(5)]
        service = serve_trace(ssb.tables, specs, [0] * 5, threshold=2)
        assert routes(service) == (2, 3)

    def test_in_flight_decays_between_waves(self, ssb):
        # Three at once (the third saturates), then one more after the wave
        # completed: in flight is back to 0, so it goes query-centric again.
        specs = [q32("CHINA", "FRANCE", 1993 + i, 1996) for i in range(3)]
        specs.append(q32("JAPAN", "BRAZIL", 1992, 1995))
        service = serve_trace(ssb.tables, specs, [0, 0, 0, LATER], threshold=2)
        assert routes(service) == (3, 1)
        assert service.handles[3].query.submit_time == LATER
        assert service.handles[3] in service.query_centric.handles
        assert service.in_flight == 0

    def test_results_exact_on_both_paths(self, ssb):
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        oracle = sorted_rows(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))
        # in flight 0 < 1: query-centric; then in flight 1 >= 1: GQP
        service = serve_trace(ssb.tables, [spec, spec], [0, 0], threshold=1)
        assert routes(service) == (1, 1)
        h_qc, h_gqp = service.handles
        assert h_qc in service.query_centric.handles
        assert h_gqp in service.gqp.handles
        assert sorted_rows(h_qc.results) == oracle
        assert sorted_rows(h_gqp.results) == oracle

    def test_exactly_at_threshold_routes_gqp(self, ssb):
        """The boundary is >=: the arrival that finds in_flight == threshold
        is the first to go to the GQP."""
        specs = [q32("CHINA", "FRANCE", 1992 + i, 1996) for i in range(3)]
        specs.append(q32("JAPAN", "BRAZIL", 1992, 1995))
        service = serve_trace(ssb.tables, specs, [0] * 4, threshold=3)
        assert routes(service) == (3, 1)
        assert service.handles[3] in service.gqp.handles

    def test_threshold_zero_always_gqp(self, ssb):
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        oracle = sorted_rows(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))
        service = serve_trace(ssb.tables, [spec] * 3, [0] * 3, threshold=0)
        assert routes(service) == (0, 3)
        for h in service.handles:
            assert sorted_rows(h.results) == oracle

    def test_engines_share_one_storage_manager(self, ssb):
        """Both engines must sit on the same StorageManager -- circular
        scans, buffer pool and caches are common, so a query routed either
        way reuses the other route's I/O work."""
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        service = serve_trace(ssb.tables, [spec, spec], [0, 0], threshold=1)
        assert service.query_centric.storage is service.storage
        assert service.gqp.storage is service.storage
        assert service.query_centric.storage.tables is service.gqp.storage.tables
        assert routes(service) == (1, 1)

    def test_selection_first_seen_by_qpipe_is_an_exact_hit_for_cjoin(self, ssb):
        """The two routes read one selection memo (the storage manager's):
        what the query-centric joins selected, a later CJOIN admission of
        the same predicates neither recomputes nor derives."""
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        service = serve_trace(ssb.tables, [spec], [0], threshold=1)
        (h_qc,) = service.handles
        assert routes(service) == (1, 0)
        memo = service.storage.selections
        seen = memo.stats()
        assert seen["computed"] == seen["entries"] == len(spec.dims)
        h_gqp = service.gqp.submit(spec)
        service.sim.run()
        after = memo.stats()
        assert after["exact"] == seen["exact"] + len(spec.dims)
        assert (after["computed"], after["derived"]) == (seen["computed"], seen["derived"])
        assert sorted_rows(h_gqp.results) == sorted_rows(h_qc.results)

    def test_default_threshold_is_saturation(self, ssb):
        service = QueryService(ssb.tables, "static", machine=MACHINE)
        assert service.policy.threshold == saturation_threshold(MACHINE) == MACHINE.cores // 2

    def test_plans_always_query_centric(self, ssb):
        from repro.data import generate_tpch
        from repro.query.tpch_queries import tpch_q1_plan

        ds = generate_tpch(0.5, seed=3)
        job = QueryJob(plan=tpch_q1_plan(ds.lineitem))
        service = serve_trace(ds.tables, [job], [0], threshold=0)
        assert routes(service) == (1, 0)
        assert service.handles[0].results


class TestEnvelope:
    def test_hybrid_near_best_config_at_both_extremes(self, ssb):
        """The point of the policy: close to QPipe-SP at low concurrency
        and close to CJOIN-SP at high concurrency."""
        from repro.engine import CJOIN_SP, QPIPE_SP

        for n in (2, 64):
            wl = q32_random_workload(n, seed=9)
            hybrid = run_batch(ssb.tables, HYBRID, wl).mean_response
            qc = run_batch(ssb.tables, QPIPE_SP, wl).mean_response
            gqp = run_batch(ssb.tables, CJOIN_SP, wl).mean_response
            assert hybrid <= 1.5 * min(qc, gqp)

    def test_runner_reports_hybrid_name(self, ssb):
        r = run_batch(ssb.tables, HYBRID, q32_random_workload(2, seed=9))
        assert r.config_name == "Hybrid"
