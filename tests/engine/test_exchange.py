"""Tests for the push-based FIFO exchange."""

import pytest

from repro.engine.exchange import END, FifoExchange
from repro.sim import Simulator
from repro.sim.costmodel import CostModel
from repro.sim.machine import MachineSpec
from repro.storage.page import ColumnBatch


def make_sim():
    return Simulator(MachineSpec(cores=8, hz=1e9, oversub_penalty=0.0), CostModel())


def batch(i):
    return ColumnBatch(([i],), None, 1.0)


class TestFifoExchange:
    def test_single_consumer_roundtrip(self):
        sim = make_sim()
        ex = FifoExchange(sim, capacity=4, name="x")
        reader = ex.open_reader()
        got = []

        def producer():
            for i in range(10):
                yield from ex.emit(batch(i))
            ex.close()

        def consumer():
            while True:
                b = yield from reader.read()
                if b is END:
                    break
                got.append(b.rows[0][0])

        sim.spawn(producer(), "p")
        sim.spawn(consumer(), "c")
        sim.run()
        assert got == list(range(10))

    def test_satellite_gets_copies(self):
        sim = make_sim()
        ex = FifoExchange(sim, capacity=4, name="x")
        primary = ex.open_reader()
        satellite = ex.open_reader()
        got_p, got_s = [], []

        def producer():
            b = ColumnBatch(((7, 8),), [0])
            yield from ex.emit(b)
            b.sel.append(1)  # mutate after emit: satellite must have a copy
            ex.close()

        def consumer(r, out):
            while True:
                b = yield from r.read()
                if b is END:
                    break
                out.append(tuple(b.rows))

        sim.spawn(producer(), "p")
        sim.spawn(consumer(primary, got_p), "cp")
        sim.spawn(consumer(satellite, got_s), "cs")
        sim.run()
        # Satellite read a copy taken at emit time.
        assert got_s == [((7,),)]

    def test_copy_cost_charged_per_satellite(self):
        """The push-based serialization point: producer cycles grow with the
        number of satellites."""

        def producer_cycles(n_consumers):
            sim = make_sim()
            ex = FifoExchange(sim, capacity=64, name="x")
            readers = [ex.open_reader() for _ in range(n_consumers)]

            def producer():
                for i in range(16):
                    yield from ex.emit(ColumnBatch((list(range(50)),), None, 10))
                ex.close()

            def consumer(r):
                while (yield from r.read()) is not END:
                    pass

            sim.spawn(producer(), "p")
            for k, r in enumerate(readers):
                sim.spawn(consumer(r), f"c{k}")
            sim.run()
            return sim.metrics.cpu_cycles_by_category["misc"]

        one = producer_cycles(1)
        five = producer_cycles(5)
        # 4 satellites x copy cost; strictly increasing and substantial.
        assert five > one * 2

    def test_budget_closes_consumer(self):
        sim = make_sim()
        ex = FifoExchange(sim, capacity=4, name="x")
        reader = ex.open_reader(budget=3)
        got = []

        def producer():
            i = 0
            while ex.active_consumers:
                yield from ex.emit(batch(i))
                i += 1
            ex.close()

        def consumer():
            while True:
                b = yield from reader.read()
                if b is END:
                    break
                got.append(b.rows[0][0])

        sim.spawn(producer(), "p")
        sim.spawn(consumer(), "c")
        sim.run()
        assert got == [0, 1, 2]

    def test_bounded_capacity_backpressure(self):
        sim = make_sim()
        ex = FifoExchange(sim, capacity=1, name="x")
        reader = ex.open_reader()
        emitted_at = []

        def producer():
            for i in range(3):
                yield from ex.emit(batch(i))
                emitted_at.append(sim.now)
            ex.close()

        def slow_consumer():
            from repro.sim.commands import SLEEP

            while True:
                yield SLEEP(1.0)
                b = yield from reader.read()
                if b is END:
                    break

        sim.spawn(producer(), "p")
        sim.spawn(slow_consumer(), "c")
        sim.run()
        # Third emit had to wait for the consumer to free a slot.
        assert emitted_at[2] >= 1.0

    def test_open_reader_after_close_rejected(self):
        sim = make_sim()
        ex = FifoExchange(sim, capacity=4, name="x")
        ex.close()
        with pytest.raises(RuntimeError):
            ex.open_reader()

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FifoExchange(make_sim(), capacity=0, name="x")
