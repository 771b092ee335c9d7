"""Worker-process hygiene for the tests that start processes."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_orphaned_workers():
    """Every test leaves no worker process behind: a crash, a timeout, a
    failed spawn handshake and an orderly shutdown all reap theirs."""
    yield
    children = multiprocessing.active_children()
    assert children == [], "leftover children: " + "; ".join(
        f"{c.name} pid={c.pid} is_alive={c.is_alive()} exitcode={c.exitcode}"
        for c in children
    )
