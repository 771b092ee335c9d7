"""Service-layer configuration knobs.

:class:`ServiceConfig` gathers everything the admission gate and the
dispatcher consult: queue bound, in-flight cap (backpressure) and the
per-query queueing deadline.  The routing policy is configured separately
(:mod:`repro.server.router`) so the same service config can be swept across
policies in benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ServiceConfig:
    """Admission and dispatch knobs for one :class:`~repro.server.service.QueryService`."""

    #: maximum queries waiting in the admission queue; arrivals beyond it
    #: are dropped (counted, never errored -- load is shed gracefully).
    queue_capacity: int = 64
    #: maximum queries concurrently submitted to the engines; the
    #: dispatcher exerts backpressure (holds the queue) at this bound.
    #: ``None`` means the engines absorb everything the queue releases.
    max_in_flight: int | None = None
    #: per-query queueing deadline in simulated seconds: a query that has
    #: waited longer than this when the dispatcher reaches it is shed
    #: (counted as timed out) instead of executed.  ``None`` disables.
    queue_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1 or None")
        # ``not x > 0`` rather than ``x <= 0``: NaN is rejected too.
        if self.queue_timeout is not None and not self.queue_timeout > 0:
            raise ValueError("queue_timeout must be positive or None")
