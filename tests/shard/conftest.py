"""Shard tests share the worker-process hygiene check of tests/parallel,
and force the replica count the way a host with more or fewer cores would."""

from repro.shard import service as shard_service
from tests.parallel.conftest import no_orphaned_workers  # noqa: F401


def force_replicas(monkeypatch, replicas: int, n_shards: int) -> None:
    """Every shard service of ``n_shards`` started after this call runs
    ``replicas`` workers per shard: the usable-core count is what sets it.
    The cap is lifted to ``replicas`` too, so counts past it are tested."""
    monkeypatch.setattr(shard_service, "usable_cores", lambda: replicas * n_shards)
    monkeypatch.setattr(shard_service, "MAX_REPLICAS", max(replicas, shard_service.MAX_REPLICAS))
