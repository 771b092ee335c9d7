"""Unit and property tests for Shared Pages Lists."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.exchange import END
from repro.engine.spl import SharedPagesList
from repro.sim import Simulator
from repro.sim.costmodel import CostModel
from repro.sim.machine import MachineSpec
from repro.storage.page import ColumnBatch


def make_sim():
    return Simulator(MachineSpec(cores=8, hz=1e9, oversub_penalty=0.0), CostModel())


def batch(i):
    return ColumnBatch(([i],), None, 1.0)


class TestBasics:
    def test_single_producer_single_consumer(self):
        sim = make_sim()
        spl = SharedPagesList(sim, max_pages=4)
        consumer = spl.open_reader()
        got = []

        def producer():
            for i in range(10):
                yield from spl.emit(batch(i))
            spl.close()

        def reader():
            while True:
                b = yield from consumer.read()
                if b is END:
                    break
                got.append(b.rows[0][0])

        sim.spawn(producer(), "p")
        sim.spawn(reader(), "c")
        sim.run()
        assert got == list(range(10))

    def test_multiple_consumers_see_all_pages(self):
        sim = make_sim()
        spl = SharedPagesList(sim, max_pages=4)
        consumers = [spl.open_reader() for _ in range(5)]
        seen = {i: [] for i in range(5)}

        def producer():
            for i in range(20):
                yield from spl.emit(batch(i))
            spl.close()

        def reader(k, c):
            while True:
                b = yield from c.read()
                if b is END:
                    break
                seen[k].append(b.rows[0][0])

        sim.spawn(producer(), "p")
        for k, c in enumerate(consumers):
            sim.spawn(reader(k, c), f"c{k}")
        sim.run()
        for k in range(5):
            assert seen[k] == list(range(20))

    def test_max_size_bounds_retained_pages(self):
        """The producer must block when the list reaches its bound; the
        retained size never exceeds max_pages."""
        sim = make_sim()
        spl = SharedPagesList(sim, max_pages=3)
        consumer = spl.open_reader()
        max_seen = []

        def producer():
            for i in range(30):
                yield from spl.emit(batch(i))
                max_seen.append(len(spl._pages))
            spl.close()

        def slow_reader():
            from repro.sim.commands import SLEEP

            while True:
                yield SLEEP(0.01)
                b = yield from consumer.read()
                if b is END:
                    break

        sim.spawn(producer(), "p")
        sim.spawn(slow_reader(), "c")
        sim.run()
        assert max(max_seen) <= 3

    def test_last_consumer_deletes_page(self):
        sim = make_sim()
        spl = SharedPagesList(sim, max_pages=8)
        c1, c2 = spl.open_reader(), spl.open_reader()

        def producer():
            yield from spl.emit(batch(0))
            spl.close()

        def read_one(c, out):
            b = yield from c.read()
            out.append(b)

        out1, out2 = [], []
        sim.spawn(producer(), "p")
        sim.spawn(read_one(c1, out1), "c1")
        sim.spawn(read_one(c2, out2), "c2")
        sim.run()
        assert not spl._pages  # deleted after the second reader
        assert out1[0].rows == out2[0].rows

    def test_pages_with_no_consumers_are_dropped(self):
        sim = make_sim()
        spl = SharedPagesList(sim, max_pages=2)

        def producer():
            for i in range(10):  # nobody registered: must not block
                yield from spl.emit(batch(i))
            spl.close()

        sim.spawn(producer(), "p")
        sim.run()
        assert not spl._pages

    def test_emit_after_close_rejected(self):
        sim = make_sim()
        spl = SharedPagesList(sim, max_pages=2)
        spl.close()

        def producer():
            yield from spl.emit(batch(0))

        def supervisor():
            t = sim.spawn(producer(), "p")
            with pytest.raises(RuntimeError):
                yield from t.join()

        sim.spawn(supervisor(), "s")
        sim.run()

    def test_invalid_max_pages(self):
        with pytest.raises(ValueError):
            SharedPagesList(make_sim(), max_pages=0)


class TestLinearWop:
    """Points of entry and finishing packets (paper Section 4.2)."""

    def test_budgeted_consumer_gets_exactly_budget_pages(self):
        sim = make_sim()
        spl = SharedPagesList(sim, max_pages=4)
        consumer = spl.open_reader(budget=5)
        got = []

        def producer():
            i = 0
            while spl.active_consumers:
                yield from spl.emit(batch(i))
                i += 1
            spl.close()

        def reader():
            while True:
                b = yield from consumer.read()
                if b is END:
                    break
                got.append(b.rows[0][0])

        sim.spawn(producer(), "p")
        sim.spawn(reader(), "c")
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_point_of_entry_mid_stream(self):
        """A consumer joining mid-scan sees pages from its entry point on --
        a circular scan then wraps to complete its table."""
        sim = make_sim()
        spl = SharedPagesList(sim, max_pages=4)
        first = spl.open_reader(budget=6)
        got_first, got_late = [], []
        late_holder = {}

        def producer():
            i = 0
            while spl.active_consumers:
                if i == 3:
                    late_holder["c"] = spl.open_reader(budget=6)
                    sim.spawn(reader(late_holder["c"], got_late), "late")
                yield from spl.emit(batch(i % 6))  # 6-page circular table
                i += 1
            spl.close()

        def reader(c, out):
            while True:
                b = yield from c.read()
                if b is END:
                    break
                out.append(b.rows[0][0])

        sim.spawn(producer(), "p")
        sim.spawn(reader(first, got_first), "first")
        sim.run()
        assert got_first == [0, 1, 2, 3, 4, 5]
        # The late consumer entered at page 3 and wrapped around the circle.
        assert got_late == [3, 4, 5, 0, 1, 2]
        assert sorted(got_late) == [0, 1, 2, 3, 4, 5]

    def test_zero_budget_consumer_reads_nothing(self):
        sim = make_sim()
        spl = SharedPagesList(sim, max_pages=4)
        c = spl.open_reader(budget=0)
        got = []

        def producer():
            yield from spl.emit(batch(1))
            spl.close()

        def reader():
            got.append((yield from c.read()))

        sim.spawn(producer(), "p")
        sim.spawn(reader(), "c")
        sim.run()
        assert got == [END]

    def test_consumer_after_close_sees_end(self):
        sim = make_sim()
        spl = SharedPagesList(sim, max_pages=4)
        c = spl.open_reader()
        spl.close()
        got = []

        def reader():
            got.append((yield from c.read()))

        sim.spawn(reader(), "c")
        sim.run()
        assert got == [END]


class TestSplExchange:
    """The SPL is the pull-model exchange (``kind``, ``open_reader``)."""

    def test_open_reader_on_closed_exchange(self):
        sim = make_sim()
        ex = SharedPagesList(sim, 4, "x")
        assert ex.kind == "spl"
        ex.close()
        with pytest.raises(RuntimeError):
            ex.open_reader()

    def test_lock_cycles_accounted(self):
        sim = make_sim()
        ex = SharedPagesList(sim, 4, "x")
        reader = ex.open_reader()

        def producer():
            yield from ex.emit(batch(0))
            ex.close()

        def consumer():
            while (yield from reader.read()) is not END:
                pass

        sim.spawn(producer(), "p")
        sim.spawn(consumer(), "c")
        sim.run()
        assert sim.metrics.cpu_cycles_by_category["locks"] > 0


class TestSplProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        n_pages=st.integers(1, 40),
        n_consumers=st.integers(1, 6),
        max_pages=st.integers(1, 8),
    )
    def test_every_consumer_sees_every_page_in_order(self, n_pages, n_consumers, max_pages):
        sim = make_sim()
        spl = SharedPagesList(sim, max_pages=max_pages)
        consumers = [spl.open_reader() for _ in range(n_consumers)]
        seen = [[] for _ in range(n_consumers)]

        def producer():
            for i in range(n_pages):
                yield from spl.emit(batch(i))
            spl.close()

        def reader(k):
            while True:
                b = yield from consumers[k].read()
                if b is END:
                    break
                seen[k].append(b.rows[0][0])

        sim.spawn(producer(), "p")
        for k in range(n_consumers):
            sim.spawn(reader(k), f"c{k}")
        sim.run()
        for k in range(n_consumers):
            assert seen[k] == list(range(n_pages))
        assert not spl._pages

    @settings(max_examples=30, deadline=None)
    @given(
        budgets=st.lists(st.integers(1, 12), min_size=1, max_size=5),
        table_pages=st.integers(1, 12),
    )
    def test_budgeted_consumers_drain_and_producer_stops(self, budgets, table_pages):
        """Circular-scan invariant: with budgeted consumers the driver loop
        terminates exactly when all budgets are exhausted."""
        sim = make_sim()
        spl = SharedPagesList(sim, max_pages=4)
        consumers = [spl.open_reader(budget=b) for b in budgets]
        counts = [0] * len(budgets)
        emitted = []

        def producer():
            i = 0
            while spl.active_consumers:
                yield from spl.emit(batch(i % table_pages))
                emitted.append(i)
                i += 1
            spl.close()

        def reader(k):
            while True:
                b = yield from consumers[k].read()
                if b is END:
                    break
                counts[k] += 1

        sim.spawn(producer(), "p")
        for k in range(len(budgets)):
            sim.spawn(reader(k), f"c{k}")
        sim.run()
        assert counts == budgets
        assert len(emitted) == max(budgets)
