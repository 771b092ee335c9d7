"""Tests for the experiment runner."""

import pytest

from repro.bench.runner import (
    POSTGRES,
    percentile,
    run_batch,
    run_closed_loop,
)
from repro.bench.workload import q32_random_workload, ssb_mix_workload, mix_spec_factory
from repro.data import generate_ssb
from repro.engine import CJOIN_SP, QPIPE_SP
from repro.storage import StorageConfig


@pytest.fixture(scope="module")
def tables():
    return generate_ssb(0.5, seed=66).tables


class TestRunBatch:
    def test_collects_all_metrics(self, tables):
        r = run_batch(tables, QPIPE_SP, q32_random_workload(4, seed=1))
        assert r.config_name == "QPipe-SP"
        assert r.n_queries == 4
        assert len(r.response_times) == 4
        assert r.mean_response > 0
        assert r.sim_seconds >= max(r.response_times)
        assert r.avg_cores_used > 0
        assert set(r.cpu_breakdown) == {"hashing", "joins", "aggregation", "scans", "locks", "misc"}
        assert r.total_cpu_seconds > 0

    def test_postgres_selector(self, tables):
        r = run_batch(tables, POSTGRES, q32_random_workload(2, seed=1))
        assert r.config_name == "Postgres"
        assert r.sharing == {}

    def test_memory_vs_disk_read_rates(self, tables):
        wl = q32_random_workload(2, seed=1)
        mem = run_batch(tables, QPIPE_SP, wl, StorageConfig(resident="memory"))
        disk = run_batch(tables, QPIPE_SP, wl, StorageConfig(resident="disk"))
        assert mem.avg_read_mb_s == 0
        assert disk.avg_read_mb_s > 0

    def test_empty_workload_rejected(self, tables):
        with pytest.raises(ValueError):
            run_batch(tables, QPIPE_SP, [])

    def test_stdev_single_query_is_zero(self, tables):
        r = run_batch(tables, QPIPE_SP, q32_random_workload(1, seed=1))
        assert r.stdev_response == 0.0

    def test_deterministic(self, tables):
        wl = ssb_mix_workload(3, seed=5)
        a = run_batch(tables, CJOIN_SP, wl)
        b = run_batch(tables, CJOIN_SP, wl)
        assert a.response_times == b.response_times
        assert a.cpu_breakdown == b.cpu_breakdown


class TestClosedLoop:
    def test_counts_completions(self, tables):
        r = run_closed_loop(
            tables, QPIPE_SP, mix_spec_factory(1), n_clients=2, duration=20.0
        )
        assert r.completed >= 2  # each client finishes at least one query
        assert r.queries_per_hour > 0
        assert r.n_clients == 2

    def test_more_clients_more_throughput_when_unsaturated(self, tables):
        f = mix_spec_factory(1)
        one = run_closed_loop(tables, CJOIN_SP, f, 1, 30.0)
        four = run_closed_loop(tables, CJOIN_SP, f, 4, 30.0)
        assert four.completed > one.completed

    def test_validation(self, tables):
        with pytest.raises(ValueError):
            run_closed_loop(tables, QPIPE_SP, mix_spec_factory(1), 0, 10.0)


class TestHelpers:
    def test_percentile(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert percentile(xs, 0.0) == 1.0
        assert percentile(xs, 1.0) == 4.0
        assert percentile(xs, 0.5) == pytest.approx(2.5)
        with pytest.raises(ValueError):
            percentile([], 0.5)
