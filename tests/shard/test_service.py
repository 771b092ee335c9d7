"""End-to-end shard service: determinism, admission semantics, pressure.

These spawn real worker processes (small scale factor, short windows) and
assert the headline contract: N-shard runs produce byte-identical merged
results and fingerprints to 1-shard runs, while the one serving core keeps
the in-process tier's admission semantics (drops, deadlines, backpressure)
and throughput scales with the shard count.
"""

from __future__ import annotations

import pytest

from repro.server.config import ServiceConfig
from repro.shard import serve_sharded
from repro.shard.service import ShardBacklog

SF = 0.2
FAST = dict(duration=1.0, rate=4.0, sf=SF, workload="q32-random", arrival="uniform")


@pytest.fixture(scope="module")
def one_shard_report():
    return serve_sharded(1, **FAST)


@pytest.mark.parametrize("shards", [2, 3])
def test_nshard_results_byte_identical_to_one_shard(one_shard_report, shards):
    report = serve_sharded(shards, **FAST)
    assert report.fingerprint_lines() == one_shard_report.fingerprint_lines()
    for a, b in zip(report.results, one_shard_report.results):
        assert a.rows == b.rows  # not just the digests: the rows themselves


def test_partition_modes_agree(one_shard_report):
    report = serve_sharded(2, partition="range", **FAST)
    assert report.fingerprint_lines() == one_shard_report.fingerprint_lines()


def test_shard_engines_agree(one_shard_report):
    report = serve_sharded(2, engine="qpipe-sp", **FAST)
    assert report.fingerprint_lines() == one_shard_report.fingerprint_lines()


def test_runs_replay_exactly():
    a = serve_sharded(2, **FAST)
    b = serve_sharded(2, **FAST)
    assert a.fingerprint_lines() == b.fingerprint_lines()
    assert a.metrics.latencies == b.metrics.latencies
    assert a.sim_seconds == b.sim_seconds


def test_throughput_scales_with_shards():
    # At a saturating arrival rate the serving window is drain-bound, so
    # more shards => shorter window => higher completed-per-second.
    qps = {
        n: serve_sharded(n, duration=0.5, rate=40.0, sf=SF, workload="q32-random").throughput_qps
        for n in (1, 2)
    }
    assert qps[2] > qps[1]


def test_admission_semantics_on_the_virtual_timeline():
    # A tight queue bound + deadline + in-flight cap under a burst: the
    # same shedding behavior the single-process service has.
    config = ServiceConfig(queue_capacity=2, max_in_flight=1, queue_timeout=0.05)
    report = serve_sharded(
        2,
        duration=1.0,
        rate=30.0,
        sf=SF,
        workload="q32-random",
        arrival="burst",
        config=config,
    )
    m = report.metrics
    assert m.arrived > m.admitted  # queue bound dropped some at the door
    assert m.dropped == m.arrived - m.admitted
    assert m.timed_out > 0  # deadline shed queued work
    assert m.completed + m.timed_out + m.failed == m.admitted  # clean drain
    assert m.failed == 0


def test_report_shapes(one_shard_report):
    report = serve_sharded(2, **FAST)
    d = {
        **report.header(),
        **report.metrics.to_dict(hz=report.machine_hz, window=report.window),
    }
    assert d["n_shards"] == 2
    shards = d["shards"]
    assert set(shards["service_seconds"]) == {"shard0", "shard1"}
    for block in shards["service_seconds"].values():
        assert {"count", "p50", "p95", "p99"} <= set(block)
    assert sum(report.metrics.straggler_counts.values()) == report.metrics.completed
    assert report.render()  # renders without raising
    lines = report.fingerprint_lines()
    assert all(len(line.split()) == 2 for line in lines)


def test_explicit_plan_jobs_are_rejected():
    from repro.bench.workload import QueryJob
    from repro.shard.service import ShardService
    from repro.shard.spec import ShardConfig
    from repro.parallel.cells import DatasetSpec
    from repro.server.arrivals import UniformArrivals

    config = ShardConfig(n_shards=1, dataset=DatasetSpec("ssb", SF, 42))
    with ShardService(config) as service:
        with pytest.raises(ValueError, match="star-query specs"):
            service.run(lambda k: QueryJob(plan=object()), UniformArrivals(100.0), 0.05)


# ---------------------------------------------------------------------------
# ShardBacklog (the per-shard pressure signal)
# ---------------------------------------------------------------------------


def test_backlog_fifo_horizons():
    b = ShardBacklog(2)
    assert b.dispatch(0, ready_time=1.0, cost_s=2.0) == (1.0, 3.0)
    # FIFO: the next dispatch waits for the horizon, not the ready time.
    assert b.dispatch(0, ready_time=1.5, cost_s=1.0) == (3.0, 4.0)
    assert b.dispatch(1, ready_time=1.5, cost_s=0.5) == (1.5, 2.0)
    assert b.backlog(2.0) == [2.0, 0.0]
    assert b.pressure(2.0) == 2.0


def test_backlog_rejects_empty():
    with pytest.raises(ValueError):
        ShardBacklog(0)
