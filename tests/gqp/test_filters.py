"""Focused unit tests of filter semantics (bitmaps, pass masks, unions)."""

import pytest

from repro.baselines import evaluate_plan
from repro.data import generate_ssb
from repro.engine import CJOIN, QPipeEngine
from repro.query.expr import Cmp
from repro.query.ssb_queries import q32
from repro.sim import Simulator
from repro.sim.commands import SLEEP
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.machine import MachineSpec
from repro.storage import StorageConfig, StorageManager
from tests.answers import sorted_rows


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(0.5, seed=88)


def make_engine(ssb):
    sim = Simulator(MachineSpec())
    storage = StorageManager(sim, DEFAULT_COST_MODEL, ssb.tables, StorageConfig(resident="memory"))
    return sim, QPipeEngine(sim, storage, CJOIN)


class TestFilterState:
    def test_union_hash_table(self, ssb):
        """Two queries selecting different nations: the customer filter
        holds the union of both selections, each annotated with its bit."""
        sim, eng = make_engine(ssb)
        eng.submit(q32("CHINA", "FRANCE", 1993, 1996))
        eng.submit(q32("JAPAN", "FRANCE", 1993, 1996))
        probe = {}

        def snapshot():
            yield SLEEP(0.5)  # mid-execution
            pipeline = eng.cjoin_stage.pipeline_for("lineorder")
            flt = pipeline.filters["customer"]
            probe["entries"] = len(flt.ht)
            probe["bitmaps"] = set(flt.ht.values())
            probe["pass"] = flt.pass_mask

        sim.spawn(snapshot(), "snap")
        sim.run()
        csch = ssb.customer.schema
        inat = csch.index("c_nation")
        china = sum(1 for r in ssb.customer.iter_rows() if r[inat] == "CHINA")
        japan = sum(1 for r in ssb.customer.iter_rows() if r[inat] == "JAPAN")
        assert probe["entries"] == china + japan  # disjoint union
        assert probe["bitmaps"] == {0b01, 0b10}  # each tuple tagged by one query
        assert probe["pass"] == 0  # both queries reference customer

    def test_overlapping_selections_share_entries(self, ssb):
        """Same nation in both queries: one entry carries both bits."""
        sim, eng = make_engine(ssb)
        eng.submit(q32("CHINA", "FRANCE", 1993, 1996))
        eng.submit(q32("CHINA", "BRAZIL", 1992, 1995))
        probe = {}

        def snapshot():
            yield SLEEP(0.5)
            flt = eng.cjoin_stage.pipeline_for("lineorder").filters["customer"]
            probe["bitmaps"] = set(flt.ht.values())

        sim.spawn(snapshot(), "snap")
        sim.run()
        assert probe["bitmaps"] == {0b11}  # every CHINA customer serves both

    def test_supplier_region_vs_nation_predicates(self, ssb):
        """Different predicate granularities on one dimension coexist and
        both produce exact results."""
        from repro.query.plan import AggSpec, DimJoinSpec
        from repro.query.star import StarQuerySpec
        from repro.query.expr import Col

        region_query = StarQuerySpec(
            fact_table="lineorder",
            dims=(
                DimJoinSpec(
                    "supplier", "lo_suppkey", "s_suppkey",
                    Cmp("=", "s_region", "ASIA"), ("s_nation",)
                ),
            ),
            group_by=("s_nation",),
            aggregates=(AggSpec("sum", Col("lo_revenue"), "revenue"),),
        )
        nation_query = q32("CHINA", "CHINA", 1993, 1996)
        oracles = [
            sorted_rows(evaluate_plan(s.to_query_centric_plan(ssb.tables)))
            for s in (region_query, nation_query)
        ]
        sim, eng = make_engine(ssb)
        h1 = eng.submit(region_query)
        h2 = eng.submit(nation_query)
        sim.run()
        assert sorted_rows(h1.results) == oracles[0]
        assert sorted_rows(h2.results) == oracles[1]

    def test_stale_bits_scrubbed_before_slot_reuse(self, ssb):
        """A completed query's bits must not leak into a later query that
        reuses its slot."""
        spec_a = q32("CHINA", "FRANCE", 1993, 1996)
        spec_b = q32("JAPAN", "BRAZIL", 1992, 1995)
        oracle_b = sorted_rows(evaluate_plan(spec_b.to_query_centric_plan(ssb.tables)))
        sim, eng = make_engine(ssb)
        results = {}

        def waves():
            h_a = eng.submit(spec_a)
            yield from h_a.wait()
            h_b = eng.submit(spec_b)  # reuses slot 0 after reclamation
            yield from h_b.wait()
            results["b"] = sorted_rows(h_b.results)
            pipeline = eng.cjoin_stage.pipeline_for("lineorder")
            results["slot_reused"] = pipeline.slots.high_water == 1

        sim.spawn(waves(), "waves")
        sim.run()
        assert results["b"] == oracle_b
        assert results["slot_reused"]
