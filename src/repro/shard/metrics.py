"""Shard-tier metrics: the service SLO view plus per-shard attribution.

:class:`ShardServiceMetrics` extends the server tier's
:class:`~repro.server.metrics.ServiceMetrics` (same latency / queue-wait /
admission counters, from the same serving core) with what only a
sharded deployment can report:

* per-shard service-time percentiles (the same canonical
  :func:`~repro.sim.metrics.percentile_block` every other report uses);
* **straggler attribution** -- for each gathered query, which shard's
  partial arrived last (set the critical path).  A healthy hash partition
  spreads this evenly; a skewed one concentrates it;
* scatter/gather overhead totals (simulated seconds spent on dispatch and
  merge rather than shard work);
* failure accounting: worker crashes, respawns, retried queries, stuck-
  shard timeouts, and the structured per-query failure records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.server.metrics import ServiceMetrics
from repro.sim.metrics import percentile_block

__all__ = ["ShardServiceMetrics"]


@dataclass
class ShardServiceMetrics(ServiceMetrics):
    """Metrics for one :class:`~repro.shard.service.ShardService` run."""

    n_shards: int = 0
    #: simulated service seconds per shard, one sample per gathered query
    per_shard_svc: dict[int, list[float]] = field(default_factory=dict)
    #: queries for which this shard's partial completed last
    straggler_counts: dict[int, int] = field(default_factory=dict)
    #: simulated seconds spent scattering plan specs / merging partials
    scatter_overhead_s: float = 0.0
    gather_overhead_s: float = 0.0
    #: peak per-shard backlog (simulated seconds of queued shard work)
    #: observed at any dispatch -- the shard tier's pressure gauge
    peak_shard_backlog_s: float = 0.0
    #: per-shard partition-build accounting from the spawn handshake --
    #: rows, pages and *shipped* bytes (zero-copy range views of packed
    #: buffers ship nothing; hash gathers ship full buffers; see
    #: :func:`repro.shard.partition.partition_shipping`)
    partition_shipping: dict[int, dict[str, int]] = field(default_factory=dict)
    #: simulated seconds of start-up scatter charged onto shard backlogs
    #: (per-page placement + per-shipped-byte copy via the cost model)
    prewarm_scatter_s: float = 0.0
    #: simulated seconds of start-up arrangement builds charged onto EVERY
    #: shard's backlog (dimension indexes built once pre-fork, shared
    #: fork-COW; reusing queries pay only their probe cost)
    prewarm_arrange_s: float = 0.0
    #: shared-arrangement cache hits per shard, summed over gathered
    #: queries (host-side attribution from :class:`ShardResponse`)
    arrange_hits: dict[int, int] = field(default_factory=dict)
    #: queries retried after a worker crash (and then gathered normally)
    shard_retries: int = 0
    #: worker processes (re)spawned after a crash or a timeout kill
    shard_respawns: int = 0
    #: stuck-shard timeouts (each kills + respawns the worker, no retry)
    shard_timeouts: int = 0
    #: structured failure records: seq, shard, kind, detail, deadline view
    failures: list[dict[str, Any]] = field(default_factory=list)

    # -- recording ------------------------------------------------------
    def record_shard_service(self, shard_id: int, svc_seconds: float) -> None:
        self.per_shard_svc.setdefault(shard_id, []).append(svc_seconds)

    def record_straggler(self, shard_id: int) -> None:
        self.straggler_counts[shard_id] = self.straggler_counts.get(shard_id, 0) + 1

    def record_overhead(self, scatter_s: float, gather_s: float) -> None:
        self.scatter_overhead_s += scatter_s
        self.gather_overhead_s += gather_s

    def record_partition_shipping(
        self, shard_id: int, shipping: dict[str, int], prewarm_s: float
    ) -> None:
        self.partition_shipping[shard_id] = dict(shipping)
        self.prewarm_scatter_s += prewarm_s

    def record_arrange_hits(self, shard_id: int, hits: int) -> None:
        if hits:
            self.arrange_hits[shard_id] = self.arrange_hits.get(shard_id, 0) + hits

    def record_pressure(self, backlog_s: float) -> None:
        if backlog_s > self.peak_shard_backlog_s:
            self.peak_shard_backlog_s = backlog_s

    def record_failure(self, record: dict[str, Any]) -> None:
        self.failures.append(record)

    # -- derived --------------------------------------------------------
    @property
    def failed(self) -> int:
        """Queries that ended in a structured failure instead of a
        result: one record each."""
        return len(self.failures)

    def per_shard_percentiles(self) -> dict[str, dict[str, float]]:
        """``{"shard0": {count, p50, p95, p99}, ...}`` of simulated service
        seconds -- the balance view (skew shows up as unequal p99s)."""
        return {
            f"shard{i}": percentile_block(self.per_shard_svc.get(i, []), include_count=True)
            for i in range(self.n_shards)
        }

    # -- export ---------------------------------------------------------
    def render_rows(self, window: float) -> list[list[Any]]:
        rows = super().render_rows(window)
        rows += [
            ["failed (structured)", self.failed],
            ["scatter overhead (s)", f"{self.scatter_overhead_s:.4f}"],
            ["gather overhead (s)", f"{self.gather_overhead_s:.4f}"],
            [
                "partition shipped (bytes)",
                sum(s["shipped_bytes"] for s in self.partition_shipping.values()),
            ],
            ["prewarm scatter (s)", f"{self.prewarm_scatter_s:.4f}"],
            ["prewarm arrange (s)", f"{self.prewarm_arrange_s:.4f}"],
            ["arrangement hits", sum(self.arrange_hits.values())],
            ["peak shard backlog (s)", f"{self.peak_shard_backlog_s:.3f}"],
            [
                "retries / respawns / timeouts",
                f"{self.shard_retries} / {self.shard_respawns} / {self.shard_timeouts}",
            ],
        ]
        for name, block in self.per_shard_percentiles().items():
            rows.append([f"{name} svc p95 (s)", f"{block['p95']:.3f} (n={block['count']:.0f})"])
        for name, n in sorted(self.straggler_counts.items()):
            rows.append([f"straggler shard{name}", n])
        return rows

    def to_dict(self, hz: float | None = None, window: float | None = None) -> dict[str, Any]:
        out = super().to_dict(hz=hz, window=window)
        out["shards"] = {
            "n_shards": self.n_shards,
            "service_seconds": self.per_shard_percentiles(),
            "stragglers": {f"shard{i}": n for i, n in sorted(self.straggler_counts.items())},
            "scatter_overhead_s": self.scatter_overhead_s,
            "gather_overhead_s": self.gather_overhead_s,
            "partition_shipping": {
                f"shard{i}": dict(s) for i, s in sorted(self.partition_shipping.items())
            },
            "prewarm_scatter_s": self.prewarm_scatter_s,
            "prewarm_arrange_s": self.prewarm_arrange_s,
            "arrange_hits": {f"shard{i}": n for i, n in sorted(self.arrange_hits.items())},
            "peak_backlog_s": self.peak_shard_backlog_s,
            "retries": self.shard_retries,
            "respawns": self.shard_respawns,
            "timeouts": self.shard_timeouts,
            "failed": self.failed,
            "failures": list(self.failures),
        }
        return out
