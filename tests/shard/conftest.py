"""Shard tests share the worker-process hygiene check of tests/parallel."""

from tests.parallel.conftest import no_orphaned_workers  # noqa: F401
