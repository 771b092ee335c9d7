"""Routing policies: query-centric SP vs the shared GQP, per query.

The paper's conclusion (§7) -- query-centric operators with SP at low
concurrency, GQP(+SP) at high concurrency -- is a *policy*, consulted only
by ``QueryService._execute`` (after explicit plans and the result-cache
discount have gone query-centric):

* :class:`StaticThresholdPolicy` -- the simplest form, a static in-flight
  threshold at the machine's saturation point: the Hybrid configuration.
* :class:`AdaptivePolicy` -- a feedback controller over the *observed*
  service state: in-flight concurrency **plus admission-queue depth**
  (queued work is imminent concurrency the static rule cannot see), biased
  by **plan similarity** (signature-component overlap with the recent
  window -- the same signatures the WoP machinery shares on: similar plans
  make the GQP pay off earlier), with hysteresis so the route does not
  flap around the switch point.

Policies are pure deciders: the service owns the engines and the state.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.query.star import StarQuerySpec
    from repro.sim.machine import MachineSpec

#: Route labels (also the keys of ``ServiceMetrics.routed``).
QUERY_CENTRIC = "query-centric"
GQP = "gqp"


def saturation_threshold(machine: "MachineSpec") -> int:
    """The paper's default switch point -- "the point when resources become
    saturated": enough in-flight queries to cover the machine's cores (one
    query-centric plan busies roughly two cores)."""
    return max(machine.cores // 2, 1)


class RoutingPolicy:
    """Base class: decide a route from the spec and the observed state."""

    name = "policy"

    def choose(self, spec: "StarQuerySpec | None", in_flight: int, queue_depth: int) -> str:
        """Return :data:`QUERY_CENTRIC` or :data:`GQP` for this query.

        ``spec`` is ``None`` for explicit (non-star) plans, which only the
        query-centric path can evaluate -- callers route those before
        consulting the policy."""
        raise NotImplementedError  # pragma: no cover


class StaticThresholdPolicy(RoutingPolicy):
    """The Hybrid rule: GQP at/above a fixed in-flight count."""

    name = "static"

    def __init__(self, machine: "MachineSpec", threshold: int | None = None):
        self.threshold = threshold if threshold is not None else saturation_threshold(machine)

    def choose(self, spec: "StarQuerySpec | None", in_flight: int, queue_depth: int) -> str:
        return GQP if in_flight >= self.threshold else QUERY_CENTRIC


def spec_features(spec: "StarQuerySpec") -> frozenset:
    """The signature components a spec can share work on: its fact table,
    each dimension sub-plan, the aggregate list and the grouping -- the
    granularity at which stages detect identical in-flight sub-plans."""
    parts = [("fact", spec.fact_table, spec.fact_predicate.signature if spec.fact_predicate else None)]
    parts.extend(("dim", d.signature) for d in spec.dims)
    parts.append(("agg", spec.group_by, tuple(a.signature for a in spec.aggregates)))
    return frozenset(parts)


class AdaptivePolicy(RoutingPolicy):
    """Feedback routing on *sustained* pressure, biased by plan similarity.

    The static rule keys on instantaneous in-flight count, which is a
    noisy proxy for saturation: Poisson bunching trips it at arrival
    rates the query-centric path still absorbs comfortably (routing those
    queries into the GQP costs them its batching latency for nothing),
    while a queue building up behind a full engine is invisible to it.
    This policy instead tracks an exponentially-weighted moving average of
    **pressure** -- in-flight concurrency plus (weighted) admission-queue
    depth, the queued work being imminent concurrency -- and routes to the
    GQP only when that average says the overload is sustained:

    * **enter** GQP when the pressure EWMA reaches the (similarity-
      discounted) threshold, or immediately when instantaneous pressure
      reaches ``SURGE_FACTOR`` times it (a queue explosion should not wait
      for the average to catch up);
    * **exit** GQP only when the EWMA falls below ``EXIT_RATIO`` of the
      threshold -- hysteresis, so the route does not flap (and restart
      cold shared operators) around the switch point;
    * **similarity** -- mean signature-component overlap (Jaccard) between
      this query and the last ``WINDOW`` routed queries, over the same
      signatures the WoP machinery shares on -- discounts the threshold by
      up to ``SIMILARITY_DISCOUNT``: similar plans make the GQP pay off at
      lower concurrency.

    Only the threshold is a setting (``repro serve --threshold``); the
    controller's shape is the class constants below.
    """

    name = "adaptive"
    #: routed queries the similarity score looks back over
    WINDOW = 32
    #: largest threshold discount, for a query identical to the whole window
    SIMILARITY_DISCOUNT = 0.25
    #: weight of one queued query in the pressure (in-flight counts 1)
    QUEUE_WEIGHT = 0.5
    #: smoothing factor of the pressure EWMA
    ALPHA = 0.2
    #: instantaneous pressure, in thresholds, that enters GQP at once
    SURGE_FACTOR = 2.0
    #: EWMA, in thresholds, below which the GQP route is left
    EXIT_RATIO = 0.7

    def __init__(self, machine: "MachineSpec", threshold: int | None = None):
        self.base_threshold = threshold if threshold is not None else saturation_threshold(machine)
        self.pressure_ewma = 0.0
        self._samples = 0
        self._recent: deque[frozenset] = deque(maxlen=self.WINDOW)
        self._gqp_mode = False
        #: decision log: (pressure, ewma, similarity, route) per choice,
        #: for ablations and tests
        self.decisions: list[tuple[float, float, float, str]] = []

    # ------------------------------------------------------------------
    def similarity(self, features: frozenset) -> float:
        """Mean Jaccard overlap with the recent routing window (0 when the
        window is empty)."""
        if not self._recent or not features:
            return 0.0
        total = 0.0
        for other in self._recent:
            union = len(features | other)
            total += len(features & other) / union if union else 0.0
        return total / len(self._recent)

    def choose(self, spec: "StarQuerySpec | None", in_flight: int, queue_depth: int) -> str:
        features = spec_features(spec) if spec is not None else frozenset()
        sim_score = self.similarity(features)
        if features:
            self._recent.append(features)
        pressure = in_flight + self.QUEUE_WEIGHT * queue_depth
        self._samples += 1
        self.pressure_ewma += self.ALPHA * (pressure - self.pressure_ewma)
        # Bias-corrected average: without the correction the EWMA starts at
        # zero and a sudden arrival wave is routed query-centric for ~1/ALPHA
        # queries while the average catches up.
        ewma = self.pressure_ewma / (1.0 - (1.0 - self.ALPHA) ** self._samples)
        threshold = max(self.base_threshold * (1.0 - self.SIMILARITY_DISCOUNT * sim_score), 1.0)
        if self._gqp_mode:
            gqp = ewma >= self.EXIT_RATIO * threshold
        else:
            gqp = ewma >= threshold or pressure >= self.SURGE_FACTOR * threshold
        self._gqp_mode = gqp
        route = GQP if gqp else QUERY_CENTRIC
        self.decisions.append((pressure, ewma, sim_score, route))
        return route


#: name -> one-line description, for ``python -m repro list``.
POLICIES = {
    "static": "fixed in-flight threshold at machine saturation (the Hybrid config)",
    "adaptive": "feedback on in-flight + queue depth, similarity-biased, hysteresis",
}


def make_policy(
    name: str, machine: "MachineSpec", threshold: int | None = None
) -> RoutingPolicy:
    """Build a routing policy by name (the CLI/benchmark entry point)."""
    if name == "static":
        return StaticThresholdPolicy(machine, threshold)
    if name == "adaptive":
        return AdaptivePolicy(machine, threshold)
    raise ValueError(f"unknown policy {name!r} (choose from: {', '.join(POLICIES)})")
