"""Worker-process hygiene for the tests that start processes."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_orphaned_workers():
    """Every test leaves no worker process behind: a crash, a timeout, a
    failed spawn handshake and an orderly shutdown all reap theirs."""
    yield
    assert multiprocessing.active_children() == []
