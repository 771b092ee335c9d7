"""Tests for consumer-side input handling (fused selections)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.exchange import END, FifoExchange
from repro.engine.stages.inputs import FilteredInput
from repro.query.expr import And, Cmp
from repro.query.plan import ScanNode, SelectNode, unwrap_selects
from repro.data import generate_ssb
from repro.sim import Simulator
from repro.sim.costmodel import CostModel
from repro.sim.machine import MachineSpec
from repro.storage.page import ColumnBatch


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(0.5, seed=52)


class TestUnwrapSelects:
    def test_plain_node_passthrough(self, ssb):
        node = ScanNode(ssb.customer)
        inner, pred = unwrap_selects(node)
        assert inner is node
        assert pred is None

    def test_single_select(self, ssb):
        p = Cmp("=", "c_nation", "CHINA")
        inner, pred = unwrap_selects(SelectNode(ScanNode(ssb.customer), p))
        assert isinstance(inner, ScanNode)
        assert pred == p

    def test_nested_selects_fold_to_conjunction(self, ssb):
        p1 = Cmp("=", "c_nation", "CHINA")
        p2 = Cmp("=", "c_region", "ASIA")
        node = SelectNode(SelectNode(ScanNode(ssb.customer), p1), p2)
        inner, pred = unwrap_selects(node)
        assert isinstance(inner, ScanNode)
        assert isinstance(pred, And)
        # Inner select evaluated first, outer last.
        assert pred.parts[0] == p1
        assert pred.parts[1] == p2

    def test_nested_selects_semantics(self, ssb):
        """The folded conjunction selects the same rows as sequential
        filters."""
        p1 = Cmp("=", "c_nation", "CHINA")
        p2 = Cmp(">", "c_custkey", 100)
        node = SelectNode(SelectNode(ScanNode(ssb.customer), p1), p2)
        _inner, pred = unwrap_selects(node)
        fn = pred.compile(ssb.customer.schema)
        f1 = p1.compile(ssb.customer.schema)
        f2 = p2.compile(ssb.customer.schema)
        for row in ssb.customer.iter_rows():
            assert fn(row) == (f1(row) and f2(row))


class TestFilteredInput:
    def run_reads(self, batches, predicate, schema):
        sim = Simulator(MachineSpec(cores=4, hz=1e9, oversub_penalty=0.0), CostModel())
        ex = FifoExchange(sim, capacity=16, name="x")
        reader = ex.open_reader()
        fin = FilteredInput(sim, reader, predicate, schema)
        got = []

        def producer():
            for b in batches:
                yield from ex.emit(b)
            ex.close()

        def consumer():
            while True:
                b = yield from fin.read()
                if b is END:
                    break
                got.extend(b.rows)

        sim.spawn(producer(), "p")
        sim.spawn(consumer(), "c")
        sim.run()
        return got, sim

    def test_no_predicate_passthrough(self, ssb):
        rows = list(ssb.supplier.iter_rows())[:10]
        got, _ = self.run_reads([ColumnBatch(tuple(zip(*rows)), None, 1.0)], None, ssb.supplier.schema)
        assert got == rows

    def test_predicate_filters_and_charges(self, ssb):
        rows = list(ssb.supplier.iter_rows())
        pred = Cmp("=", "s_region", "ASIA")
        got, sim = self.run_reads([ColumnBatch(tuple(zip(*rows)), None, 1.0)], pred, ssb.supplier.schema)
        fn = pred.compile(ssb.supplier.schema)
        assert got == [r for r in rows if fn(r)]
        assert sim.metrics.cpu_cycles_by_category["scans"] > 0  # predicate cost

    def test_empty_batches_pass_through_cheaply(self, ssb):
        schema = ssb.supplier.schema
        empty = ColumnBatch(((),) * len(schema.columns), None, 1.0)
        got, _ = self.run_reads([empty], Cmp("=", "s_region", "ASIA"), schema)
        assert got == []

    @settings(max_examples=20, deadline=None)
    @given(threshold=st.integers(0, 300))
    def test_filter_oracle_property(self, ssb, threshold):
        rows = list(ssb.supplier.iter_rows())[:64]
        pred = Cmp("<", "s_suppkey", threshold)
        got, _ = self.run_reads([ColumnBatch(tuple(zip(*rows)), None, 1.0)], pred, ssb.supplier.schema)
        assert got == [r for r in rows if r[0] < threshold]
