"""Fabric mechanics: jobs resolution, robustness, ordered progress.

Cell-level determinism (parallel == serial, byte for byte) is covered in
``test_cells.py``; here the work items are tiny synthetic functions so the
failure paths run in milliseconds.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.parallel import CellFailure, ParallelRunner, SweepError, WorkerHandle, resolve_jobs
from repro.parallel.fabric import JOBS_ENV

from tests.parallel._workers import (
    Item,
    always_raise,
    echo,
    exit_in_worker,
    pid_or_exit,
    raise_differently,
    raise_in_worker,
    sleep_then_echo,
)


def _items(n: int, **kwargs) -> list[Item]:
    return [Item(key=f"cell{i}", value=i, **kwargs) for i in range(n)]


# ---------------------------------------------------------------------------
# jobs resolution
# ---------------------------------------------------------------------------


def test_resolve_jobs_explicit_beats_env(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "8")
    assert resolve_jobs(3) == 3


def test_resolve_jobs_env_fallback(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "5")
    assert resolve_jobs(None) == 5


def test_resolve_jobs_default_serial(monkeypatch):
    monkeypatch.delenv(JOBS_ENV, raising=False)
    assert resolve_jobs(None) == 1


def test_resolve_jobs_rejects_garbage(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "many")
    with pytest.raises(ValueError):
        resolve_jobs(None)
    with pytest.raises(ValueError):
        resolve_jobs(0)


# ---------------------------------------------------------------------------
# mapping and merging
# ---------------------------------------------------------------------------


def test_serial_and_pool_agree():
    items = _items(6)
    serial = ParallelRunner(jobs=1).map(echo, items)
    pooled = ParallelRunner(jobs=3).map(echo, items)
    assert serial.results == pooled.results
    assert list(pooled.results) == [i.key for i in items]  # submission order
    assert serial.jobs == 1
    assert pooled.jobs == 3


def test_effective_jobs_capped_by_items():
    out = ParallelRunner(jobs=8).map(echo, _items(2))
    assert out.jobs == 2


def test_duplicate_keys_rejected():
    items = [Item(key="same", value=1), Item(key="same", value=2)]
    with pytest.raises(ValueError, match="duplicate cell keys"):
        ParallelRunner(jobs=1).map(echo, items)


def test_ordered_progress_lines():
    lines: list[str] = []
    items = _items(4)
    ParallelRunner(jobs=2, progress=lines.append).map(echo, items)
    assert [line.split("]")[0] for line in lines] == ["[1/4", "[2/4", "[3/4", "[4/4"]
    assert [line.split("] ")[1].split(":")[0] for line in lines] == [
        i.key for i in items
    ]


# ---------------------------------------------------------------------------
# robustness
# ---------------------------------------------------------------------------


def test_worker_exception_retried_serially():
    items = _items(3, parent_pid=os.getpid())
    out = ParallelRunner(jobs=2).map(raise_in_worker, items)
    assert not out.failures
    assert out.results == {f"cell{i}": i * 2 for i in range(3)}


def test_worker_crash_retried_serially():
    # os._exit in the worker kills it; every lost cell must still be
    # recovered by the one serial retry.
    items = _items(2, parent_pid=os.getpid())
    out = ParallelRunner(jobs=2).map(exit_in_worker, items)
    assert not out.failures
    assert out.results == {"cell0": 0, "cell1": 2}


def test_persistent_failure_is_structured():
    out = ParallelRunner(jobs=2).map(always_raise, _items(2))
    assert not out.results
    assert len(out.failures) == 2
    for failure in out.failures:
        assert isinstance(failure, CellFailure)
        assert failure.kind == "error"
        assert "persistent failure" in failure.message


def test_serial_failure_is_structured():
    out = ParallelRunner(jobs=1).map(always_raise, _items(2))
    assert not out.results
    assert [f.kind for f in out.failures] == ["error", "error"]


def test_failed_retry_keeps_original_worker_reason():
    # The worker raises one error, the serial retry a different one: the
    # structured failure must report BOTH -- losing the worker-side reason
    # would hide the failure that actually happened first.
    items = _items(2, parent_pid=os.getpid())
    out = ParallelRunner(jobs=2).map(raise_differently, items)
    assert not out.results
    assert len(out.failures) == 2
    for i, failure in enumerate(out.failures):
        assert failure.kind == "error"
        assert f"worker-side reason for cell{i}" in failure.message
        assert f"parent-side reason for cell{i}" in failure.message
        assert "retry also failed" in failure.message


def test_timeout_is_structured_not_a_hang():
    # One cell sleeps far longer than the timeout; the sweep must return
    # a "timeout" failure quickly and still deliver the other cell.
    items = [
        Item(key="stuck", sleep_s=60.0),
        Item(key="fine", value=21),
    ]
    t0 = time.perf_counter()
    out = ParallelRunner(jobs=2, timeout=1.0).map(sleep_then_echo, items)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0  # nowhere near the 60s sleep
    assert [f.key for f in out.failures] == ["stuck"]
    assert out.failures[0].kind == "timeout"
    assert out.results == {"fine": 42}


def test_a_crash_costs_one_respawn_not_the_pool():
    # One cell of eight kills its worker: only that cell runs again in
    # the parent; the other seven still run (and answer) in workers.
    parent = os.getpid()
    items = _items(8, parent_pid=parent, sleep_s=0.05)
    items[3] = Item(key="cell3", value=-1, parent_pid=parent)
    out = ParallelRunner(jobs=2).map(pid_or_exit, items)
    assert not out.failures
    assert list(out.results) == [i.key for i in items]
    assert [k for k, pid in out.results.items() if pid == parent] == ["cell3"]


def test_a_hang_times_out_only_the_stuck_cells():
    # Two stuck cells hold both workers; the five healthy cells behind
    # them must not be charged for the wait.  Each cell's budget starts at
    # its dispatch, so exactly the stuck two fail and the rest run on the
    # respawned workers.
    parent = os.getpid()
    items = [Item(key=f"stuck{i}", parent_pid=parent, sleep_s=60.0) for i in range(2)]
    items += [Item(key=f"fine{i}", parent_pid=parent, sleep_s=0.3) for i in range(5)]
    t0 = time.perf_counter()
    out = ParallelRunner(jobs=2, timeout=1.0).map(pid_or_exit, items)
    assert time.perf_counter() - t0 < 30.0
    assert [(f.key, f.kind) for f in out.failures] == [("stuck0", "timeout"), ("stuck1", "timeout")]
    assert list(out.results) == [f"fine{i}" for i in range(5)]
    assert parent not in out.results.values()


@pytest.mark.parametrize("timeout", [0, -1.0, float("nan")])
def test_timeout_must_be_positive(timeout):
    with pytest.raises(ValueError, match="timeout must be > 0"):
        ParallelRunner(jobs=2, timeout=timeout)


def test_the_pool_is_made_of_worker_handles(monkeypatch):
    # One worker-process layer: the pool path starts WorkerHandles, and
    # every cell answers from one of them.
    started: list[int] = []
    start = WorkerHandle.start

    def counting_start(handle):
        start(handle)
        started.append(handle.pid)

    monkeypatch.setattr(WorkerHandle, "start", counting_start)
    out = ParallelRunner(jobs=2).map(pid_or_exit, _items(6, parent_pid=os.getpid()))
    assert len(started) == 2
    assert set(out.results.values()) <= set(started)


def test_run_cells_style_raise_on_failure():
    runner = ParallelRunner(jobs=1)
    out = runner.map(always_raise, _items(1))
    with pytest.raises(SweepError, match="1 cell\\(s\\) failed"):
        raise SweepError(out.failures)
