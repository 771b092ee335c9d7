"""Top-level work items, cell functions and worker entry points for the
fabric and worker-handle tests.

Items and results cross a worker's pipe, so they must pickle; functions
live at module level so they also run where fork is unavailable (there a
worker's entry point and its arguments are pickled by reference).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.parallel.workers import serve


@dataclass(frozen=True)
class Item:
    """A minimal keyed work item.  ``parent_pid`` lets a function behave
    differently in the parent (serial retry) than in a pool worker."""

    key: str
    value: int = 0
    parent_pid: int = 0
    sleep_s: float = 0.0


def echo(item: Item) -> int:
    """Pure function of the item: same answer in any process."""
    return item.value * 2


def raise_in_worker(item: Item) -> int:
    """Crashes only in a pool worker; succeeds when re-run in the parent."""
    if os.getpid() != item.parent_pid:
        raise RuntimeError(f"worker-only failure for {item.key}")
    return item.value * 2


def exit_in_worker(item: Item) -> int:
    """Kills the worker process outright (a crash in the parent's eyes);
    succeeds when re-run in the parent."""
    if os.getpid() != item.parent_pid:
        os._exit(13)
    return item.value * 2


def always_raise(item: Item) -> int:
    """Fails everywhere: pool run and serial retry alike."""
    raise ValueError(f"persistent failure for {item.key}")


def raise_differently(item: Item) -> int:
    """Fails everywhere, with a DIFFERENT reason in the pool worker than in
    the parent's serial retry -- the failure report must keep both."""
    if os.getpid() != item.parent_pid:
        raise RuntimeError(f"worker-side reason for {item.key}")
    raise ValueError(f"parent-side reason for {item.key}")


def sleep_then_echo(item: Item) -> int:
    """Holds its worker for ``sleep_s`` -- the timeout test's stuck cell."""
    time.sleep(item.sleep_s)
    return item.value * 2


def pid_or_exit(item: Item) -> int:
    """The pid of the process that ran the cell; a negative ``value`` kills
    a pool worker outright instead (the parent's serial retry succeeds)."""
    if item.value < 0 and os.getpid() != item.parent_pid:
        os._exit(13)
    time.sleep(item.sleep_s)
    return os.getpid()


# -- WorkerHandle entry points: ``target(conn, *args)`` ----------------------


def exit_at_once(conn) -> None:
    """Dies before reading anything."""
    os._exit(3)


def stay_silent(conn) -> None:
    """Alive, never answers."""
    time.sleep(60)


def echo_after(conn) -> None:
    """Answers each ``(delay_s, value)`` request with ``value`` after
    ``delay_s`` seconds."""

    def answer(request):
        delay_s, value = request
        time.sleep(delay_s)
        return value

    serve(conn, answer)
