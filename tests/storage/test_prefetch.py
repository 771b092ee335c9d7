"""Tests for the prefetching page source."""

import pytest

from repro.sim import Simulator
from repro.sim.costmodel import CostModel
from repro.sim.machine import DiskSpec, MachineSpec
from repro.storage import StorageConfig, StorageManager
from repro.storage.prefetch import PageSource
from repro.storage.schema import Column, Schema
from repro.storage.table import Table


def make_env(resident="disk", direct_io=False, bandwidth=100e6):
    sim = Simulator(
        MachineSpec(cores=4, hz=1e9, oversub_penalty=0.0, disk=DiskSpec(bandwidth=bandwidth))
    )
    schema = Schema([Column("x")], row_bytes=1000.0)
    table = Table("t", schema, [(i,) for i in range(120)], row_weight=100, tuples_per_page=10)
    storage = StorageManager(
        sim,
        CostModel(),
        {"t": table},
        StorageConfig(resident=resident, direct_io=direct_io),
    )
    return sim, storage, table


class TestPageSource:
    def test_pages_in_circular_order(self):
        sim, storage, table = make_env(resident="memory")
        got = []

        def worker():
            src = PageSource(sim, storage, table, start=10)
            for _ in range(table.num_pages + 2):
                page = yield from src.next()
                got.append(page.index)
            src.close()

        sim.spawn(worker(), "w")
        sim.run()
        assert got == [10, 11, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]

    def test_empty_table_rejected(self):
        sim, storage, _ = make_env(resident="memory")
        empty = Table("e", Schema([Column("x")]), [])
        with pytest.raises(ValueError):
            PageSource(sim, storage, empty)

    def test_prefetch_overlaps_io_with_cpu(self):
        """With read-ahead, total time ~ max(io, cpu); synchronous (direct
        I/O) pays io + cpu per page."""
        from repro.sim.commands import CPU

        def run(direct_io):
            sim, storage, table = make_env(direct_io=direct_io)
            done = {}

            def worker():
                src = PageSource(sim, storage, table, 0)
                for _ in range(table.num_pages):
                    page = yield from src.next()
                    yield CPU(1e7)  # 10ms of processing per page
                src.close()
                done["t"] = sim.now

            sim.spawn(worker(), "w")
            sim.run()
            return done["t"]

        buffered = run(False)
        direct = run(True)
        assert buffered < direct * 0.85

    def test_direct_io_has_no_fetcher_thread(self):
        sim, storage, table = make_env(direct_io=True)
        src = PageSource(sim, storage, table)
        assert src._chan is None

    def test_memory_resident_has_no_fetcher(self):
        sim, storage, table = make_env(resident="memory")
        src = PageSource(sim, storage, table)
        assert src._chan is None

    def test_close_stops_fetcher_cleanly(self):
        sim, storage, table = make_env()
        positions = []

        def worker():
            src = PageSource(sim, storage, table, 0)
            page = yield from src.next()
            positions.append(page.index)
            src.close()

        sim.spawn(worker(), "w")
        sim.run()  # must terminate: fetcher is a daemon and exits on close
        assert positions == [0]
