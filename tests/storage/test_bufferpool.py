"""Tests for the buffer pool, OS cache and storage manager."""

import pytest

from repro.sim import Simulator
from repro.sim.costmodel import CostModel
from repro.sim.machine import DiskSpec, MachineSpec
from repro.storage import StorageConfig, StorageManager
from repro.storage.schema import Column, Schema
from repro.storage.table import Table


def make_table(rows=100, row_bytes=1000.0, weight=10.0, name="t"):
    s = Schema([Column("x")], row_bytes=row_bytes)
    return Table(name, s, [(i,) for i in range(rows)], row_weight=weight, tuples_per_page=10)


def make_env(resident="disk", bp_bytes=1e9, cache_bytes=1e9, direct_io=False, bandwidth=100e6):
    sim = Simulator(
        MachineSpec(cores=4, hz=1e9, oversub_penalty=0.0, disk=DiskSpec(bandwidth=bandwidth))
    )
    table = make_table()
    storage = StorageManager(
        sim,
        CostModel(),
        {"t": table},
        StorageConfig(
            resident=resident,
            bufferpool_bytes=bp_bytes,
            os_cache_bytes=cache_bytes,
            direct_io=direct_io,
        ),
    )
    return sim, storage, table


def run_reads(sim, storage, table, indices, out):
    def worker():
        for i in indices:
            page = yield from storage.read_page(table, i)
            out.append(page.index)

    sim.spawn(worker(), "reader")
    sim.run()


class TestBufferPool:
    def test_miss_then_hit(self):
        sim, storage, table = make_env()
        out = []
        run_reads(sim, storage, table, [0, 0, 0], out)
        assert out == [0, 0, 0]
        assert sim.metrics.counts.get("bufferpool_misses", 0) == 1
        assert sim.metrics.counts.get("bufferpool_hits", 0) == 2
        # Only one disk transfer happened.
        assert sim.disk.bytes_delivered == pytest.approx(table.page(0).real_bytes)

    def test_ram_resident_never_does_io(self):
        sim, storage, table = make_env(resident="memory")
        out = []
        run_reads(sim, storage, table, list(range(10)) * 2, out)
        assert sim.disk.bytes_delivered == 0
        assert sim.metrics.counts.get("bufferpool_misses", 0) == 0

    def test_eviction_under_tiny_capacity(self):
        # Each page: 10 rows * weight 10 * 1000 B = 100 KB. Pool of 150 KB
        # holds one page.
        sim, storage, table = make_env(bp_bytes=150e3, cache_bytes=100)
        out = []
        run_reads(sim, storage, table, [0, 1, 0], out)
        assert sim.metrics.counts.get("bufferpool_misses", 0) == 3  # page 0 was evicted by 1

    def test_os_cache_absorbs_bufferpool_evictions(self):
        sim, storage, table = make_env(bp_bytes=150e3, cache_bytes=1e9)
        run_reads(sim, storage, table, [0, 1, 0], [])
        # Third read misses the pool but hits the OS cache: still 1 disk
        # read for page 0.
        assert sim.metrics.counts.get("os_cache_hits", 0) == 1
        assert sim.disk.bytes_delivered == pytest.approx(
            table.page(0).real_bytes + table.page(1).real_bytes
        )

    def test_direct_io_bypasses_os_cache(self):
        sim, storage, table = make_env(bp_bytes=150e3, cache_bytes=1e9, direct_io=True)
        run_reads(sim, storage, table, [0, 1, 0], [])
        assert sim.metrics.counts.get("os_cache_hits", 0) == 0
        assert sim.disk.bytes_delivered == pytest.approx(
            2 * table.page(0).real_bytes + table.page(1).real_bytes
        )

    def test_page_cpu_charged_under_scans(self):
        sim, storage, table = make_env(resident="memory")
        run_reads(sim, storage, table, [0], [])
        assert sim.metrics.cpu_cycles_by_category["scans"] > 0


class TestStorageManager:
    def test_unknown_table(self):
        sim, storage, _ = make_env()
        with pytest.raises(KeyError, match="no table"):
            storage.table("nope")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StorageConfig(resident="tape")
