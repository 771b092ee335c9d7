"""Shard failure paths: crash => retry, crash-again => structured failure,
stuck shard => timeout kill -- all without wedging the gather or the run.

Faults are injected deterministically through ``ShardConfig.fault_injection``
(``{(seq, shard): kind}``); the front end owns the schedule, so a respawned
worker never needs crash memory:

* ``"crash"``  -- the worker ``os._exit``\\ s on the first attempt only; the
  retry (fresh process, resent request) succeeds.
* ``"crash2"`` -- the worker dies on BOTH attempts; the query becomes a
  structured failure with both reasons and deadline accounting.
* ``"hang"``   -- the worker sleeps; after ``shard_timeout_s`` wall-clock
  seconds it is killed and respawned, the query fails, later queries run.
"""

from __future__ import annotations

import pytest

from repro.parallel import DatasetSpec, WorkerCrashed, WorkerUnresponsive
from repro.server.config import ServiceConfig
from repro.shard import ShardConfig, ShardService, serve_sharded
from repro.shard import service as shard_service

SF = 0.2
FAST = dict(duration=1.0, rate=4.0, sf=SF, workload="q32-random", arrival="uniform")
# FAST admits queries at t=0.25/0.50/0.75 => seqs 0..2 on every run.


def test_crash_midquery_is_retried_to_the_identical_answer():
    clean = serve_sharded(2, **FAST)
    report = serve_sharded(2, fault_injection={(1, 0): "crash"}, **FAST)
    m = report.metrics
    assert m.completed == 3 and m.failed == 0
    assert m.shard_retries == 1
    assert m.shard_respawns == 1
    assert m.shard_timeouts == 0
    # The retried query's answer is byte-identical to the clean run's --
    # a crash-retry must not perturb the determinism contract.
    assert report.fingerprint_lines() == clean.fingerprint_lines()
    # ... but it is not free: the respawn penalty lands on the timeline.
    assert report.metrics.latencies[1] > clean.metrics.latencies[1]


def test_second_crash_becomes_a_structured_failure_with_deadlines():
    config = ServiceConfig(queue_timeout=0.2)
    report = serve_sharded(
        2, fault_injection={(1, 0): "crash2"}, config=config, **FAST
    )
    m = report.metrics
    assert m.completed == 2 and m.failed == 1
    assert m.shard_retries == 0  # the retry did not succeed
    assert m.shard_respawns == 2  # after the first crash and the second
    assert [r.seq for r in report.results] == [0, 2]  # others unaffected
    (failure,) = m.failures
    assert failure["seq"] == 1
    assert failure["shard"] == 0
    assert failure["kind"] == "crash"
    # Both reasons survive: the original crash and the failed retry.
    assert "worker crashed" in failure["detail"]
    assert "retry also failed" in failure["detail"]
    # Deadline accounting: the record carries the admission deadline and
    # whether the failure's virtual completion blew through it.
    assert failure["deadline"] == pytest.approx(failure["arrival_time"] + 0.2)
    assert failure["virtual_completion"] > failure["arrival_time"]
    assert failure["missed_deadline"] == (
        failure["virtual_completion"] > failure["deadline"]
    )


def test_stuck_shard_times_out_without_wedging_the_gather():
    report = serve_sharded(
        2, fault_injection={(1, 1): "hang"}, shard_timeout_s=3.0, **FAST
    )
    m = report.metrics
    assert m.shard_timeouts == 1
    assert m.shard_respawns == 1
    assert m.shard_retries == 0  # timeouts are never retried
    assert m.completed == 2 and m.failed == 1
    (failure,) = m.failures
    assert failure["kind"] == "timeout"
    assert failure["seq"] == 1 and failure["shard"] == 1
    # The gather did not wedge: the LATER query still completed, served
    # by the respawned worker.
    assert [r.seq for r in report.results] == [0, 2]
    # The timeout penalty is charged on the virtual timeline.
    assert failure["virtual_completion"] - failure["arrival_time"] >= 5.0


def test_faulty_and_clean_runs_drain_cleanly():
    for faults in ({(1, 0): "crash"}, {(1, 0): "crash2"}):
        m = serve_sharded(2, fault_injection=faults, **FAST).metrics
        assert m.completed + m.failed + m.timed_out == m.admitted
        assert m.in_system == m.failed  # failed queries left the system too


@pytest.mark.parametrize(
    "owner, constant, value, raised",
    [
        (ShardConfig, "fact_table", "no_such_table", WorkerCrashed),  # dies before "ready"
        (shard_service, "SPAWN_TIMEOUT_S", 1e-3, WorkerUnresponsive),  # alive, but no "ready" in time
    ],
    ids=["crash", "silent"],
)
def test_a_failed_spawn_handshake_kills_every_started_worker(
    monkeypatch, owner, constant, value, raised
):
    # No worker may outlive a constructor that raised; the autouse
    # fixture in tests/parallel/conftest.py asserts none is left.  The
    # workers fork after the patch, so they see it too.
    monkeypatch.setattr(owner, constant, value)
    config = ShardConfig(n_shards=2, dataset=DatasetSpec("ssb", SF, 42))
    with pytest.raises(raised):
        ShardService(config)
