"""Edge cases of the CJOIN pipeline."""

import pytest

from repro.baselines import evaluate_plan
from repro.data import generate_ssb
from repro.engine import CJOIN, CJOIN_SP, QPipeEngine
from repro.query.expr import Cmp
from repro.query.plan import AggSpec, DimJoinSpec
from repro.query.ssb_queries import q11, q32
from repro.query.star import StarQuerySpec
from repro.query.expr import Col
from repro.sim import Simulator
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.machine import MachineSpec
from repro.storage import StorageConfig, StorageManager
from tests.answers import sorted_rows


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(0.5, seed=13)


def make_engine(ssb, config=CJOIN, resident="memory", **storage_kwargs):
    sim = Simulator(MachineSpec())
    storage = StorageManager(
        sim, DEFAULT_COST_MODEL, ssb.tables, StorageConfig(resident=resident, **storage_kwargs)
    )
    return sim, QPipeEngine(sim, storage, config)


class TestEdgeCases:
    def test_empty_result_query(self, ssb):
        """A dimension predicate selecting nothing: the query completes with
        zero rows (its bitmap bit never survives the filter)."""
        spec = StarQuerySpec(
            fact_table="lineorder",
            dims=(
                DimJoinSpec(
                    "customer",
                    "lo_custkey",
                    "c_custkey",
                    Cmp("=", "c_nation", "NOWHERE"),
                    payload=("c_city",),
                ),
            ),
            group_by=("c_city",),
            aggregates=(AggSpec("sum", Col("lo_revenue"), "revenue"),),
        )
        sim, eng = make_engine(ssb)
        h = eng.submit(spec)
        sim.run()
        assert h.results == []
        assert h.done

    def test_fact_predicate_rejecting_everything(self, ssb):
        spec = q11(1993, 99.0, 100.0, 0)  # impossible discount/quantity band
        sim, eng = make_engine(ssb)
        h = eng.submit(spec)
        sim.run()
        assert h.results == []

    def test_empty_alongside_nonempty(self, ssb):
        good = q32("CHINA", "FRANCE", 1993, 1996)
        oracle = sorted_rows(evaluate_plan(good.to_query_centric_plan(ssb.tables)))
        bad = q11(1993, 99.0, 100.0, 0)
        sim, eng = make_engine(ssb)
        h_good = eng.submit(good)
        h_bad = eng.submit(bad)
        sim.run()
        assert sorted_rows(h_good.results) == oracle
        assert h_bad.results == []

    def test_sequential_waves_reuse_slots_many_times(self, ssb):
        """Three waves of queries: slots retire, are reclaimed, and reused;
        results stay exact throughout."""
        sim, eng = make_engine(ssb)
        specs = [
            q32("CHINA", "FRANCE", 1993, 1996),
            q32("JAPAN", "BRAZIL", 1992, 1995),
            q32("KENYA", "PERU", 1994, 1997),
        ]
        oracles = [sorted_rows(evaluate_plan(s.to_query_centric_plan(ssb.tables))) for s in specs]

        results = {}

        def waves():
            for i, spec in enumerate(specs):
                h = eng.submit(spec)
                yield from h.wait()
                results[i] = sorted_rows(h.results)

        sim.spawn(waves(), "waves")
        sim.run()
        assert [results[i] for i in range(3)] == oracles
        pipeline = eng.cjoin_stage.pipeline_for("lineorder")
        assert pipeline.slots.high_water <= 2  # slots were recycled

    def test_direct_io_admission_still_correct(self, ssb):
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        oracle = sorted_rows(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))
        sim, eng = make_engine(ssb, resident="disk", direct_io=True)
        h = eng.submit(spec)
        sim.run()
        assert sorted_rows(h.results) == oracle

    def test_direct_io_slower_than_buffered(self, ssb):
        spec = q32("CHINA", "FRANCE", 1993, 1996)

        def response(direct):
            sim, eng = make_engine(ssb, resident="disk", direct_io=direct)
            h = eng.submit(spec)
            sim.run()
            return h.response_time

        assert response(True) > response(False)

    def test_cjoin_sp_fifo_comm_model(self, ssb):
        """CJOIN-SP under push-based communication: satellites receive
        copies pushed by the distributor."""
        import dataclasses

        spec = q32("CHINA", "FRANCE", 1993, 1996)
        oracle = sorted_rows(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))
        sim, eng = make_engine(ssb, dataclasses.replace(CJOIN_SP, comm="fifo"))
        handles = [eng.submit(spec) for _ in range(3)]
        sim.run()
        for h in handles:
            assert sorted_rows(h.results) == oracle
        assert eng.sim.metrics.sharing_events.get("cjoin", 0) == 2

    def test_single_dim_star_query(self, ssb):
        spec = q11(1994, 1.0, 3.0, 25)
        oracle = sorted_rows(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))
        sim, eng = make_engine(ssb)
        h = eng.submit(spec)
        sim.run()
        assert sorted_rows(h.results) == oracle

    def test_queries_with_disjoint_dims_share_pipeline(self, ssb):
        """Two queries referencing different dimensions coexist in one GQP:
        each passes freely through the other's filters (pass masks)."""
        a = q11(1994, 1.0, 3.0, 25)  # date only
        b = StarQuerySpec(
            fact_table="lineorder",
            dims=(
                DimJoinSpec(
                    "supplier",
                    "lo_suppkey",
                    "s_suppkey",
                    Cmp("=", "s_region", "ASIA"),
                    payload=("s_nation",),
                ),
            ),
            group_by=("s_nation",),
            aggregates=(AggSpec("sum", Col("lo_revenue"), "revenue"),),
        )
        oracle_a = sorted_rows(evaluate_plan(a.to_query_centric_plan(ssb.tables)))
        oracle_b = sorted_rows(evaluate_plan(b.to_query_centric_plan(ssb.tables)))
        sim, eng = make_engine(ssb)
        h_a = eng.submit(a)
        h_b = eng.submit(b)
        sim.run()
        assert sorted_rows(h_a.results) == oracle_a
        assert sorted_rows(h_b.results) == oracle_b

    def test_notify_update_drops_memoized_dim_selections(self, ssb):
        """An update to a dimension must reach the admission's selection
        memo: re-admitting the same predicate recomputes its selection
        instead of serving the pre-update list, while selections over
        untouched dimensions stay memoized."""
        sim, eng = make_engine(ssb)
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        h1 = eng.submit(spec)
        sim.run()
        memo = eng.storage.selections
        held = [(d, memo.select(ssb.tables[d.dim_table], d.predicate, True)) for d in spec.dims]
        assert {before.served for _, before in held} == {"exact"}
        computed = memo.computed
        eng.storage.notify_update("date")
        h2 = eng.submit(spec)
        sim.run()
        assert memo.computed == computed + 1  # the date selection alone
        for d, before in held:
            after = memo.select(ssb.tables[d.dim_table], d.predicate, True)
            assert after.rows == before.rows
            assert (after.rows is before.rows) == (d.dim_table != "date")
        assert h2.results == h1.results
