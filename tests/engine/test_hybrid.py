"""Tests for the hybrid (dynamic sharing) engine -- the paper's concluding
recommendation implemented as a routing policy."""

import pytest

from repro.baselines import evaluate_plan
from repro.bench.runner import HYBRID, run_batch
from repro.bench.workload import q32_random_workload
from repro.data import generate_ssb
from repro.engine.hybrid import HybridEngine
from repro.query.ssb_queries import q32
from repro.sim import Simulator
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.machine import MachineSpec
from repro.storage import StorageConfig, StorageManager


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(0.5, seed=23)


def norm(rows):
    return sorted(
        tuple(round(v, 6) if isinstance(v, float) else v for v in row) for row in rows
    )


def make_hybrid(ssb, threshold=None):
    sim = Simulator(MachineSpec())
    storage = StorageManager(sim, DEFAULT_COST_MODEL, ssb.tables, StorageConfig(resident="memory"))
    return sim, HybridEngine(sim, storage, threshold=threshold)


class TestRouting:
    def test_low_concurrency_goes_query_centric(self, ssb):
        sim, hybrid = make_hybrid(ssb, threshold=8)
        for i in range(3):
            hybrid.submit(q32("CHINA", "FRANCE", 1992 + i, 1996))
        sim.run()
        assert hybrid.routed == {"query-centric": 3, "gqp": 0}

    def test_overflow_goes_to_gqp(self, ssb):
        sim, hybrid = make_hybrid(ssb, threshold=2)
        for i in range(5):
            hybrid.submit(q32("CHINA", "FRANCE", 1992 + i % 4, 1996))
        sim.run()
        assert hybrid.routed["query-centric"] == 2
        assert hybrid.routed["gqp"] == 3

    def test_in_flight_decays_between_waves(self, ssb):
        sim, hybrid = make_hybrid(ssb, threshold=2)
        results = {}

        def waves():
            from repro.sim.commands import SLEEP

            h1 = hybrid.submit(q32("CHINA", "FRANCE", 1993, 1996))
            yield from h1.wait()
            yield SLEEP(0.01)  # let the completion watcher run
            results["first"] = hybrid.in_flight  # back to 0 after completion
            h2 = hybrid.submit(q32("JAPAN", "BRAZIL", 1992, 1995))
            yield from h2.wait()

        sim.spawn(waves(), "waves")
        sim.run()
        assert results["first"] == 0
        assert hybrid.routed == {"query-centric": 2, "gqp": 0}

    def test_results_exact_on_both_paths(self, ssb):
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        oracle = norm(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))
        sim, hybrid = make_hybrid(ssb, threshold=1)
        h_qc = hybrid.submit(spec)  # in_flight 0 < 1: query-centric
        h_gqp = hybrid.submit(spec)  # in_flight 1 >= 1: GQP
        sim.run()
        assert hybrid.routed == {"query-centric": 1, "gqp": 1}
        assert norm(h_qc.results) == oracle
        assert norm(h_gqp.results) == oracle

    def test_exactly_at_threshold_routes_gqp(self, ssb):
        """The boundary is >=: the arrival that finds in_flight == threshold
        is the first to go to the GQP."""
        sim, hybrid = make_hybrid(ssb, threshold=3)
        for i in range(3):
            hybrid.submit(q32("CHINA", "FRANCE", 1992 + i, 1996))
        assert hybrid.in_flight == 3
        hybrid.submit(q32("JAPAN", "BRAZIL", 1992, 1995))
        sim.run()
        assert hybrid.routed == {"query-centric": 3, "gqp": 1}

    def test_threshold_zero_always_gqp(self, ssb):
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        oracle = norm(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))
        sim, hybrid = make_hybrid(ssb, threshold=0)
        handles = [hybrid.submit(spec) for _ in range(3)]
        sim.run()
        assert hybrid.routed == {"query-centric": 0, "gqp": 3}
        for h in handles:
            assert norm(h.results) == oracle

    def test_engines_share_one_storage_manager(self, ssb):
        """Both engines must sit on the same StorageManager -- circular
        scans, buffer pool and caches are common, so a query routed either
        way reuses the other route's I/O work."""
        sim = Simulator(MachineSpec())
        storage = StorageManager(sim, DEFAULT_COST_MODEL, ssb.tables, StorageConfig(resident="memory"))
        hybrid = HybridEngine(sim, storage, threshold=1)
        assert hybrid.query_centric.storage is storage
        assert hybrid.gqp.storage is storage
        assert hybrid.query_centric.storage.tables is hybrid.gqp.storage.tables
        # Exercise both routes against the shared manager.
        hybrid.submit(q32("CHINA", "FRANCE", 1993, 1996))
        hybrid.submit(q32("CHINA", "FRANCE", 1993, 1996))
        sim.run()
        assert hybrid.routed == {"query-centric": 1, "gqp": 1}

    def test_selection_first_seen_by_qpipe_is_an_exact_hit_for_cjoin(self, ssb):
        """The two routes read one selection memo (the storage manager's):
        what the query-centric joins selected, a later CJOIN admission of
        the same predicates neither recomputes nor derives."""
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        sim, hybrid = make_hybrid(ssb, threshold=1)
        h_qc = hybrid.submit(spec)
        sim.run()
        memo = hybrid.storage.selections
        seen = memo.stats()
        assert seen["computed"] == seen["entries"] == len(spec.dims)
        h_gqp = hybrid.gqp.submit(spec)
        sim.run()
        after = memo.stats()
        assert after["exact"] == seen["exact"] + len(spec.dims)
        assert (after["computed"], after["derived"]) == (seen["computed"], seen["derived"])
        assert norm(h_gqp.results) == norm(h_qc.results)

    def test_default_threshold_is_saturation(self, ssb):
        from repro.engine.hybrid import saturation_threshold

        sim, hybrid = make_hybrid(ssb, threshold=None)
        assert hybrid.threshold == saturation_threshold(sim.machine) == sim.machine.cores // 2

    def test_plans_always_query_centric(self, ssb):
        from repro.data import generate_tpch
        from repro.query.tpch_queries import tpch_q1_plan

        ds = generate_tpch(0.5, seed=3)
        sim = Simulator(MachineSpec())
        storage = StorageManager(sim, DEFAULT_COST_MODEL, ds.tables, StorageConfig(resident="memory"))
        hybrid = HybridEngine(sim, storage, threshold=0)
        h = hybrid.submit_plan(tpch_q1_plan(ds.lineitem))
        sim.run()
        assert hybrid.routed["query-centric"] == 1
        assert h.results


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
