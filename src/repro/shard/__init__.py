"""repro.shard: a sharded multi-process service tier.

The single-process service (:mod:`repro.server`) scales work *sharing*;
this package scales the **machine**: the fact table is partitioned across
N long-lived worker processes (:mod:`repro.parallel.workers`), each running
its own engine over its own shard, fronted by a scatter/gather executor
behind the one serving core (the same bounded queue, queueing deadlines and
backpressure as the in-process tier) that merges per-shard partial
aggregates (:mod:`repro.query.merge`) into answers that are
**byte-identical for any shard count**.  See ``docs/sharding.md`` for the topology, the determinism
contract, and the failure semantics (crash => one retry; stuck shard =>
kill, no retry; both end in structured failures, never hangs).
"""

from repro.shard.metrics import ShardServiceMetrics
from repro.shard.partition import PARTITION_MODES, assign_shards, partition_table, shard_tables
from repro.shard.service import MergedResult, ShardBacklog, ShardService, serve_sharded
from repro.shard.spec import SHARD_ENGINES, ShardConfig, ShardRequest, ShardResponse
from repro.shard.worker import shard_worker_main

__all__ = [
    "MergedResult",
    "PARTITION_MODES",
    "SHARD_ENGINES",
    "ShardBacklog",
    "ShardConfig",
    "ShardRequest",
    "ShardResponse",
    "ShardService",
    "ShardServiceMetrics",
    "assign_shards",
    "partition_table",
    "serve_sharded",
    "shard_tables",
    "shard_worker_main",
]
