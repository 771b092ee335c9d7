"""Service-level metrics: the SLO view of a simulation run.

:class:`ServiceMetrics` extends the simulator's
:class:`~repro.sim.metrics.Metrics` (it *replaces* ``sim.metrics``, so CPU
breakdown and sharing events keep accumulating in the same object) with the
measurements a serving system reports against its SLOs:

* end-to-end latency percentiles (p50/p95/p99), measured from **arrival**
  -- queue wait included, which is what a client experiences;
* queue-wait percentiles and depth-at-admission;
* throughput (completed queries per second over the serving window);
* admission counters: arrived / admitted / dropped (queue full) /
  timed out (shed after exceeding the queueing deadline) / completed;
* per-route counts, so routing policies can be compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.sim.metrics import REPORT_PERCENTILES, Metrics, percentile_block

__all__ = ["REPORT_PERCENTILES", "ServiceMetrics"]


@dataclass
class ServiceMetrics(Metrics):
    """Metrics for one :class:`~repro.server.service.QueryService` run."""

    #: end-to-end latencies (completion - arrival), one per completed query
    latencies: list[float] = field(default_factory=list)
    #: time spent in the admission queue, one per dispatched query
    queue_waits: list[float] = field(default_factory=list)
    arrived: int = 0
    admitted: int = 0
    dropped: int = 0
    timed_out: int = 0
    #: completed queries per routing decision (e.g. "query-centric", "gqp")
    routed: dict[str, int] = field(default_factory=dict)
    #: queries routed query-centric by the cache discount (a likely result-
    #: cache hit bypasses the routing policy: it will replay, not recompute)
    cache_routed: int = 0
    #: end-to-end latency split: queries served from the result cache vs
    #: computed -- the "hit-served" latency view of the cache's benefit
    cache_hit_latencies: list[float] = field(default_factory=list)
    cache_miss_latencies: list[float] = field(default_factory=list)
    #: ResultCache.stats() snapshot, filled in after the run by serve()
    cache_stats: dict[str, Any] = field(default_factory=dict)

    # -- recording ------------------------------------------------------
    def record_arrival(self) -> None:
        self.arrived += 1

    def record_admit(self) -> None:
        self.admitted += 1

    def record_drop(self) -> None:
        self.dropped += 1

    def record_timeout(self, queue_wait: float) -> None:
        self.timed_out += 1
        self.queue_waits.append(queue_wait)

    def record_dispatch(self, queue_wait: float, route: str) -> None:
        self.queue_waits.append(queue_wait)
        self.routed[route] = self.routed.get(route, 0) + 1

    def record_cache_route(self) -> None:
        self.cache_routed += 1

    def record_completion(self, latency: float, cache_served: bool = False) -> None:
        self.latencies.append(latency)
        if cache_served:
            self.cache_hit_latencies.append(latency)
        else:
            self.cache_miss_latencies.append(latency)

    # -- derived --------------------------------------------------------
    @property
    def completed(self) -> int:
        """Completed queries: one latency each."""
        return len(self.latencies)

    @property
    def in_system(self) -> int:
        """Admitted queries not yet completed or shed (0 after a clean
        drain)."""
        return self.admitted - self.completed - self.timed_out

    def latency_percentiles(self) -> dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` over completed queries
        (zeros when nothing completed -- an idle report stays well-formed)."""
        return percentile_block(self.latencies)

    def queue_wait_percentiles(self) -> dict[str, float]:
        return percentile_block(self.queue_waits)

    def cache_latency_split(self) -> dict[str, dict[str, float]]:
        """Hit-served vs computed latency percentiles (with counts)."""
        return {
            "hit_served": percentile_block(self.cache_hit_latencies, include_count=True),
            "computed": percentile_block(self.cache_miss_latencies, include_count=True),
        }

    def throughput(self, window: float) -> float:
        """Completed queries per second over ``window`` seconds."""
        return self.completed / window if window > 0 else 0.0

    # -- export ---------------------------------------------------------
    def render_rows(self, window: float) -> list[list[Any]]:
        """``[label, value]`` rows of the text report (subclasses append
        theirs, as :meth:`to_dict` chains)."""
        lat = self.latency_percentiles()
        qw = self.queue_wait_percentiles()
        rows: list[list[Any]] = [
            ["arrived", self.arrived],
            ["admitted", self.admitted],
            ["dropped (queue full)", self.dropped],
            ["timed out (shed)", self.timed_out],
            ["completed", self.completed],
            ["throughput (q/s)", f"{self.throughput(window):.3f}"],
            ["latency p50 (s)", f"{lat['p50']:.3f}"],
            ["latency p95 (s)", f"{lat['p95']:.3f}"],
            ["latency p99 (s)", f"{lat['p99']:.3f}"],
            ["queue wait p95 (s)", f"{qw['p95']:.3f}"],
        ]
        for route, n in sorted(self.routed.items()):
            rows.append([f"routed {route}", n])
        if self.cache_stats:
            split = self.cache_latency_split()
            rows.append(["cache hits / misses", f"{self.cache_stats['hits']} / {self.cache_stats['misses']}"])
            rows.append(["cache resident (bytes)", f"{self.cache_stats['resident_bytes']:.0f}"])
            rows.append(["cache evictions", self.cache_stats["evictions"]])
            rows.append(["cache routing discounts", self.cache_routed])
            rows.append(["hit-served p95 (s)", f"{split['hit_served']['p95']:.3f}"])
            rows.append(["computed p95 (s)", f"{split['computed']['p95']:.3f}"])
        return rows

    def to_dict(self, hz: float | None = None, window: float | None = None) -> dict[str, Any]:
        """Everything :meth:`Metrics.to_dict` reports, plus the service
        level: percentiles, counters, throughput (when ``window`` given)."""
        out = super().to_dict(hz)
        out.update(
            {
                "latency": self.latency_percentiles(),
                "queue_wait": self.queue_wait_percentiles(),
                "arrived": self.arrived,
                "admitted": self.admitted,
                "dropped": self.dropped,
                "timed_out": self.timed_out,
                "completed": self.completed,
                "routed": dict(self.routed),
            }
        )
        if self.cache_stats or self.cache_routed or self.cache_hit_latencies:
            cache = dict(self.cache_stats)
            cache["routed_discount"] = self.cache_routed
            cache["latency"] = self.cache_latency_split()
            out["result_cache"] = cache
        if self.latencies:
            out["latency"]["mean"] = sum(self.latencies) / len(self.latencies)
            out["latency"]["max"] = max(self.latencies)
        if window is not None:
            out["window_seconds"] = window
            out["throughput_qps"] = self.throughput(window)
        return out
