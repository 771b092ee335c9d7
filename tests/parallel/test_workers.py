"""WorkerHandle: the one worker-process layer, driven directly.

The sweep fabric and the shard tier both build on these failure modes, so
each is pinned here with a tiny entry point from ``_workers.py``.
"""

from __future__ import annotations

import time

import pytest

from repro.parallel import WorkerCrashed, WorkerHandle, WorkerUnresponsive

from tests.parallel._workers import echo_after, exit_at_once, stay_silent


@pytest.fixture
def handles():
    """Handles made by a test; killed whatever the test did to them."""
    made: list[WorkerHandle] = []

    def make(target) -> WorkerHandle:
        handle = WorkerHandle(target, name=f"test-worker-{len(made)}")
        made.append(handle)
        handle.start()
        return handle

    yield make
    for handle in made:
        handle.kill()


def test_a_worker_that_exits_raises_crashed_on_recv(handles):
    handle = handles(exit_at_once)
    with pytest.raises(WorkerCrashed):
        handle.recv(timeout=10)


def test_a_live_silent_worker_raises_unresponsive(handles):
    handle = handles(stay_silent)
    with pytest.raises(WorkerUnresponsive):
        handle.recv(timeout=0.2)
    assert handle.alive


def test_send_to_a_dead_worker_raises_crashed(handles):
    handle = handles(exit_at_once)
    handle.process.join(timeout=10)
    assert not handle.alive
    with pytest.raises(WorkerCrashed):
        handle.send((0, "lost"))


def test_respawn_gives_a_fresh_pipe(handles):
    handle = handles(echo_after)
    handle.send((0.3, "late"))
    with pytest.raises(WorkerUnresponsive):
        handle.recv(timeout=0.05)
    time.sleep(0.6)  # the late reply now sits in the old pipe
    old_pid = handle.pid
    handle.respawn()
    assert handle.pid != old_pid
    handle.send((0, "fresh"))
    assert handle.recv(timeout=10) == "fresh"


def test_a_served_worker_answers_in_order_and_exits_on_none(handles):
    handle = handles(echo_after)
    for value in ("a", "b", "c"):
        handle.send((0, value))
    assert [handle.recv(timeout=10) for _ in range(3)] == ["a", "b", "c"]
    handle.send(None)
    handle.process.join(timeout=10)
    assert handle.process.exitcode == 0


def test_generation_counts_starts(handles):
    handle = handles(echo_after)
    assert handle.generation == 1
    handle.respawn()
    handle.respawn()
    assert handle.generation == 3


def test_kill_is_idempotent(handles):
    handle = handles(stay_silent)
    handle.kill()
    handle.kill()
    assert not handle.alive
    assert handle.pid is None
    WorkerHandle(stay_silent).kill()  # never started: nothing to do
