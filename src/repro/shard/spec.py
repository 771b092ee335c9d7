"""Shard-tier configuration and the scatter/gather wire protocol.

Everything a worker needs is plain picklable data, the same discipline as
:class:`~repro.parallel.cells.CellSpec`: the :class:`ShardConfig` describes
the topology (dataset, partitioning, engine; cost constants) and is shipped
once at spawn; each query then scatters as a :class:`ShardRequest` holding
the picklable :class:`~repro.query.star.StarQuerySpec`, and gathers as one
:class:`ShardResponse` per shard holding the partial-aggregate state
(:mod:`repro.query.merge`) plus the shard's *simulated* service time.

Timing model: workers measure in **simulated seconds** (a fresh
discrete-event engine per request, like every other measurement in this
repo); the front end composes those into a deterministic per-shard timeline
(see :mod:`repro.shard.service`).  Only ``shard_timeout_s`` is wall-clock:
it bounds how long the gather will really wait for a stuck worker process.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.config import CJOIN_SP, QPIPE_SP, EngineConfig
from repro.parallel.cells import DatasetSpec
from repro.query.merge import PartialAggState
from repro.query.star import StarQuerySpec
from repro.shard.partition import PARTITION_MODES
from repro.sim.machine import PAPER_MACHINE
from repro.storage.manager import StorageConfig

__all__ = ["SHARD_ENGINES", "ShardConfig", "ShardRequest", "ShardResponse"]

#: Engine configurations a shard worker can run (each shard gets its own
#: full engine instance; CJOIN-SP shares work *within* a shard exactly as
#: the single-process tier does).
SHARD_ENGINES: dict[str, EngineConfig] = {"cjoin-sp": CJOIN_SP, "qpipe-sp": QPIPE_SP}


@dataclass(frozen=True)
class ShardConfig:
    """Topology of one sharded service (picklable; shipped to every worker
    at spawn).  The unannotated class attributes are the tier's constants:
    the fact table, each worker's storage and machine, and the simulated
    costs of the scatter/gather protocol."""

    n_shards: int = 2
    #: fact-row placement, see :mod:`repro.shard.partition`
    partition: str = "hash"
    #: per-shard engine, a key of :data:`SHARD_ENGINES`
    engine: str = "cjoin-sp"
    dataset: DatasetSpec = DatasetSpec("ssb", 1.0, 42)
    #: wall-clock seconds the gather waits per shard before declaring the
    #: worker stuck (kill + respawn, no retry)
    shard_timeout_s: float = 60.0
    #: deterministic fault injection for tests: ``(seq, shard_id) ->``
    #: ``"crash"`` (crash once; the retry succeeds), ``"crash2"`` (crash
    #: on the retry too => structured failure) or ``"hang"`` (stuck until
    #: the wall-clock timeout kills the worker).  The *front end* owns the
    #: schedule -- it decides what fault (if any) rides on each attempt's
    #: :class:`ShardRequest` -- so a respawned worker never re-reads it.
    fault_injection: dict = field(default_factory=dict)

    fact_table = "lineorder"
    storage = StorageConfig()
    machine = PAPER_MACHINE
    #: simulated cost of scattering one plan spec to one shard
    scatter_cost_s = 1e-4
    #: simulated cost of merging one shard's partial state at the gather
    gather_cost_s = 5e-5
    #: simulated charge on a shard whose crashed query was retried (models
    #: respawn + replay; keeps the timeline deterministic under injection)
    respawn_penalty_s = 0.05
    #: simulated charge on a shard whose query timed out (the work is lost)
    timeout_penalty_s = 5.0

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.partition not in PARTITION_MODES:
            raise ValueError(
                f"unknown partition mode {self.partition!r} "
                f"(choose from: {', '.join(PARTITION_MODES)})"
            )
        if self.engine not in SHARD_ENGINES:
            raise ValueError(
                f"unknown shard engine {self.engine!r} "
                f"(choose from: {', '.join(SHARD_ENGINES)})"
            )
        if not self.shard_timeout_s > 0:
            raise ValueError("shard_timeout_s must be positive")

    @property
    def engine_config(self) -> EngineConfig:
        return SHARD_ENGINES[self.engine]

    @property
    def partition_salt(self) -> int:
        """Placement salt, derived from the dataset seed so the parent and
        every worker agree on it without coordination."""
        return self.dataset.seed


@dataclass(frozen=True)
class ShardRequest:
    """One scattered query: evaluate ``spec``'s joins over your shard and
    reply with the partial aggregate."""

    seq: int
    spec: StarQuerySpec
    #: test-only injected fault for THIS attempt: None | "crash" | "hang"
    fault: str | None = None


@dataclass(frozen=True)
class ShardResponse:
    """One shard's answer to a :class:`ShardRequest`: the partial
    aggregate and the simulated service time, nothing host-side but the
    arrangement-hit count (the partition's size travels once, in the
    spawn handshake)."""

    seq: int
    shard_id: int
    #: partial-aggregate state (exact-arithmetic; see repro.query.merge)
    state: PartialAggState
    #: simulated seconds the shard's engine took on its join-only plan
    svc_seconds: float
    #: shared-arrangement cache hits this request scored in the worker
    #: (host-side attribution: the fork-COW prewarmed arrangements make
    #: reuse the steady state)
    arrange_hits: int = 0
    #: set instead of ``state`` when plan build/execution raised: the
    #: structured failure travels the pipe, it never kills the worker
    error: str | None = None
