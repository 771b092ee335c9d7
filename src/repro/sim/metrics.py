"""Metrics collected during a simulation run.

These mirror the measurements reported in the paper's evaluation tables:

* CPU time broken down by category (Hashing / Joins / Aggregation / Scans /
  Locks / Misc), summed over all cores -- the paper gathered these with
  Intel VTune; we account them at the cost-model charge sites (the
  simulator meters every part of a CPU command when it is dispatched);
* average cores used and average read rate over the activity period.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

#: Canonical breakdown categories, in the paper's Figure 11 legend order.
CATEGORIES = ("hashing", "joins", "aggregation", "scans", "locks", "misc")

#: The percentiles every report carries, in SLO-dashboard order.  One
#: definition for the whole package: the service layer, the JSON exporters
#: and the shard tier all serialize the same block shape.
REPORT_PERCENTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile of ``values`` at fraction ``p``.

    The canonical percentile implementation for the whole package (the
    batch runner and the service layer both report through it)."""
    if not values:
        raise ValueError("empty values")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    xs = sorted(values)
    k = (len(xs) - 1) * p
    f = math.floor(k)
    c = min(f + 1, len(xs) - 1)
    return xs[f] + (xs[c] - xs[f]) * (k - f)


def percentile_block(
    values: list[float],
    percentiles: tuple[tuple[str, float], ...] = REPORT_PERCENTILES,
    include_count: bool = False,
) -> dict[str, float]:
    """The canonical ``{"p50": ..., "p95": ..., "p99": ...}`` report block.

    Every percentile block the package serializes -- service latency and
    queue-wait reports, per-run response-time exports, the shard tier's
    per-shard views -- comes from this one helper, so they all agree on
    names, order and the all-zeros shape for empty inputs (an idle report
    stays well-formed)."""
    out: dict[str, float] = {}
    if include_count:
        out["count"] = float(len(values))
    for name, p in percentiles:
        out[name] = percentile(values, p) if values else 0.0
    return out


@dataclass
class Metrics:
    """Accumulated counters for one simulation run."""

    #: cycles charged per breakdown category
    cpu_cycles_by_category: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: number of sharing events recorded per label (e.g. "join-depth-1")
    sharing_events: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: arbitrary named durations (e.g. CJOIN admission time)
    durations: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: arbitrary named counts (e.g. buffer pool hits/misses)
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def charge_cpu(self, cycles: float, category: str) -> None:
        """Record ``cycles`` against ``category``."""
        self.cpu_cycles_by_category[category] += cycles

    def record_sharing(self, label: str, n: int = 1) -> None:
        """Count a simultaneous-pipelining attach (host gained a satellite)."""
        self.sharing_events[label] += n

    def add_duration(self, label: str, seconds: float) -> None:
        self.durations[label] += seconds

    def bump(self, label: str, n: int = 1) -> None:
        self.counts[label] += n

    # ------------------------------------------------------------------
    def to_dict(self, hz: float | None = None) -> dict[str, Any]:
        """A plain-dict (JSON-safe) view of the accumulated counters.

        Subclasses (e.g. the service layer's ``ServiceMetrics``) extend the
        returned dict with their own measurements; ``bench.export``
        serializes whatever this returns."""
        out: dict[str, Any] = {
            "cpu_cycles_by_category": dict(self.cpu_cycles_by_category),
            "sharing_events": dict(self.sharing_events),
            "durations": dict(self.durations),
            "counts": dict(self.counts),
        }
        if hz is not None:
            out["cpu_seconds_by_category"] = self.cpu_seconds_by_category(hz)
            out["total_cpu_seconds"] = self.total_cpu_seconds(hz)
        return out

    # ------------------------------------------------------------------
    def cpu_seconds_by_category(self, hz: float) -> dict[str, float]:
        """Convert the per-category cycle counts to seconds of one core at
        ``hz`` -- directly comparable to the paper's stacked CPU-time bars."""
        return {cat: self.cpu_cycles_by_category.get(cat, 0.0) / hz for cat in CATEGORIES}

    def total_cpu_seconds(self, hz: float) -> float:
        return sum(self.cpu_cycles_by_category.values()) / hz
