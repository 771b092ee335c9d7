"""Compute-ahead over shard replicas changes host execution only.

A shard runs on ``R`` identical workers and the front end sends the next
queries' requests ahead while it gathers the current one.  Every report
field -- answers, latencies, queue waits, per-shard service times, the
final simulated time and the whole metric dictionary -- must equal the
one-replica run's, on drop- and deadline-heavy runs too, where queries
are shed after their requests went ahead.  The replica count is forced
by patching the usable-core count (and lifting the two-replica cap)
before the workers fork.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.parallel import WorkerHandle
from repro.server.config import ServiceConfig
from repro.shard import ShardRequest, ShardResponse, serve_sharded
from repro.shard import service as shard_service
from tests.shard.conftest import force_replicas

SF = 0.2
STREAM = dict(duration=2.0, rate=6.0, sf=SF, workload="q32-random", arrival="poisson", seed=3)


@pytest.mark.parametrize(
    "cores, shards, replicas",
    [(1, 1, 1), (1, 2, 1), (2, 1, 2), (3, 2, 1), (4, 2, 2), (64, 1, 2), (64, 8, 2)],
)
def test_the_replica_count_follows_the_cores_up_to_its_cap(monkeypatch, cores, shards, replicas):
    # Computed without starting a worker: a many-core host (or one whose
    # affinity overstates a CPU quota) still runs at most two per shard.
    monkeypatch.setattr(shard_service, "usable_cores", lambda: cores)
    assert shard_service.replicas_per_shard(shards) == replicas


def _view(report) -> dict:
    m = report.metrics
    return {
        "fingerprints": report.fingerprint_lines(),
        "latencies": m.latencies,
        "queue_waits": m.queue_waits,
        "per_shard_svc": m.per_shard_svc,
        "sim_seconds": report.sim_seconds,
        "metrics": m.to_dict(hz=report.machine_hz, window=report.window),
    }


def _serve(monkeypatch, replicas: int, shards: int, **kw):
    force_replicas(monkeypatch, replicas, shards)
    return serve_sharded(shards, **kw)


@pytest.mark.parametrize("partition", ["hash", "range"])
@pytest.mark.parametrize("shards", [1, 2])
def test_every_replica_count_reports_what_one_replica_does(monkeypatch, shards, partition):
    one = _view(_serve(monkeypatch, 1, shards, partition=partition, **STREAM))
    assert one["metrics"]["completed"] > 8
    for replicas in (2, 3):
        assert _view(_serve(monkeypatch, replicas, shards, partition=partition, **STREAM)) == one


def _count_sends(monkeypatch) -> Counter:
    sends: Counter = Counter()
    real = WorkerHandle.send

    def send(self, obj):
        if isinstance(obj, ShardRequest):
            sends[obj.seq, self.args[0]] += 1
        return real(self, obj)

    monkeypatch.setattr(WorkerHandle, "send", send)
    return sends


@pytest.mark.parametrize(
    "config",
    [
        ServiceConfig(queue_capacity=1, max_in_flight=1),
        ServiceConfig(max_in_flight=1, queue_timeout=0.3),
    ],
    ids=["drops", "deadlines"],
)
def test_queries_shed_after_their_requests_went_ahead_change_nothing(monkeypatch, config):
    shed_heavy = dict(STREAM, rate=12.0, config=config)
    one = _view(_serve(monkeypatch, 1, 1, **shed_heavy))
    assert one["metrics"]["dropped"] + one["metrics"]["timed_out"] > 5
    sends = _count_sends(monkeypatch)
    assert _view(_serve(monkeypatch, 3, 1, **shed_heavy)) == one
    # Some requests went ahead for queries that were then shed, and their
    # answers were drained: more requests than answered queries.
    assert sum(sends.values()) > one["metrics"]["completed"]


def test_a_faulted_request_is_never_sent_ahead(monkeypatch):
    # A crash injected on a query that is shed: one replica never sends
    # it; were it sent ahead, draining it would respawn a worker.
    shed_heavy = dict(STREAM, rate=12.0, config=ServiceConfig(queue_capacity=1, max_in_flight=1))
    one = _serve(monkeypatch, 1, 1, **shed_heavy)
    answered = {r.seq for r in one.results}
    shed = next(s for s in range(1, one.metrics.arrived) if s not in answered and s - 1 in answered)
    faults = {(shed, 0): "crash"}
    faulty = _serve(monkeypatch, 3, 1, fault_injection=faults, **shed_heavy)
    assert faulty.metrics.shard_respawns == 0
    assert _view(faulty) == _view(one)


def test_a_fault_free_trace_sends_each_request_exactly_once(monkeypatch, tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text("".join(f"{0.1 * k:.1f}\n" for k in range(12)))
    sends = _count_sends(monkeypatch)
    report = _serve(
        monkeypatch, 2, 2, arrival="trace", trace_path=str(trace), duration=None,
        sf=SF, workload="q32-random",
    )
    assert report.metrics.completed == 12
    assert sends == Counter({(seq, shard): 1 for seq in range(12) for shard in range(2)})


def test_no_replica_ever_owes_more_than_one_answer(monkeypatch):
    owed: Counter = Counter()
    most = []
    real_send, real_recv = WorkerHandle.send, WorkerHandle.recv

    def send(self, obj):
        if isinstance(obj, ShardRequest):
            owed[self] += 1
            most.append(owed[self])
        return real_send(self, obj)

    def recv(self, timeout=None):
        out = real_recv(self, timeout)
        owed[self] -= isinstance(out, ShardResponse)
        return out

    monkeypatch.setattr(WorkerHandle, "send", send)
    monkeypatch.setattr(WorkerHandle, "recv", recv)
    shed_heavy = ServiceConfig(max_in_flight=1, queue_timeout=0.3)
    _serve(monkeypatch, 3, 1, **dict(STREAM, rate=12.0, config=shed_heavy))
    assert most and max(most) == 1
