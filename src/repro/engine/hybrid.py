"""The paper's conclusion as a policy: dynamic sharing selection.

    "In conclusion, analytical query engines should dynamically choose
    between query-centric operators with SP for low concurrency and GQP
    with shared operators enhanced by SP for high concurrency."

:class:`HybridEngine` implements exactly that: one simulator hosts *both* a
QPipe-SP engine and a CJOIN-SP engine (they share the storage manager, so
circular scans and caches are common), and each incoming star query is
routed by a concurrency threshold -- below it, the query-centric plan with
SP; at or above it, the shared-operator GQP with SP.  Table 1's "shared
scans always" comes for free: both engines run with ``sp_scan``.

The default threshold follows the paper's simple heuristic -- "the point
when resources become saturated" -- i.e. enough in-flight queries to cover
the machine's cores.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.config import CJOIN_SP, QPIPE_SP
from repro.engine.qpipe import QPipeEngine, QueryHandle
from repro.query.plan import PlanNode
from repro.query.star import StarQuerySpec
from repro.sim.costmodel import DEFAULT_COST_MODEL, CostModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.machine import MachineSpec
    from repro.storage.manager import StorageManager


def saturation_threshold(machine: "MachineSpec") -> int:
    """The paper's default switch point -- "the point when resources become
    saturated": enough in-flight queries to cover the machine's cores (one
    query-centric plan busies roughly two cores).  Shared by
    :class:`HybridEngine` and the service layer's routing policies
    (:mod:`repro.server.router`)."""
    return max(machine.cores // 2, 1)


class HybridEngine:
    """Routes star queries between QPipe-SP and CJOIN-SP by load."""

    name = "Hybrid"

    def __init__(
        self,
        sim: "Simulator",
        storage: "StorageManager",
        cost: CostModel = DEFAULT_COST_MODEL,
        threshold: int | None = None,
        qc_config=QPIPE_SP,
        gqp_config=CJOIN_SP,
    ):
        self.sim = sim
        self.storage = storage
        #: in-flight queries at/above which new arrivals go to the GQP;
        #: default: the machine saturates (one plan busies ~2 cores).
        self.threshold = threshold if threshold is not None else saturation_threshold(sim.machine)
        #: the two routed configurations; overridable so sweeps can vary
        #: e.g. the CJOIN thread layout or query folding.
        self.query_centric = QPipeEngine(sim, storage, qc_config, cost)
        self.gqp = QPipeEngine(sim, storage, gqp_config, cost)
        self._in_flight = 0
        #: "cache-discount" (counted on top of "query-centric") appears
        #: only once a result-cache hit actually bends a routing decision
        self.routed: dict[str, int] = {"query-centric": 0, "gqp": 0}
        self.handles: list[QueryHandle] = []

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return self._in_flight

    def submit(self, spec: StarQuerySpec, label: str | None = None) -> QueryHandle:
        """Route a star query by current concurrency and submit.

        Cache-aware discount: when the query-centric plan's root (or the
        aggregate under its sort) is already materialized in the shared
        result cache, the query is routed query-centric even at saturation
        -- it will replay cached pages at memory-read cost instead of
        paying GQP admission, so it adds almost no load."""
        if self._in_flight >= self.threshold:
            plan = self._cached_query_centric_plan(spec)
            if plan is not None:
                self.routed["query-centric"] += 1
                self.routed["cache-discount"] = self.routed.get("cache-discount", 0) + 1
                self.sim.metrics.bump("hybrid_cache_discount")
                return self._track(
                    self.query_centric.submit_plan(plan, label=label or spec.label, spec=spec)
                )
            engine = self.gqp
            self.routed["gqp"] += 1
        else:
            engine = self.query_centric
            self.routed["query-centric"] += 1
        return self._track(engine.submit(spec, label=label))

    def _cached_query_centric_plan(self, spec: StarQuerySpec) -> "PlanNode | None":
        from repro.cache import cached_query_centric_plan

        return cached_query_centric_plan(
            self.storage, spec, self.query_centric.config.query_folding
        )

    def submit_plan(self, plan, label: str = "", spec: StarQuerySpec | None = None) -> QueryHandle:
        """Non-star plans (e.g. TPC-H Q1) always run query-centric: the GQP
        only evaluates star-query joins."""
        self.routed["query-centric"] += 1
        return self._track(self.query_centric.submit_plan(plan, label=label, spec=spec))

    def _track(self, handle: QueryHandle) -> QueryHandle:
        self.handles.append(handle)
        self._in_flight += 1
        self.sim.spawn(
            self._watch(handle),
            name=f"hybrid-watch-q{handle.query.query_id}",
            daemon=True,
        )
        return handle

    def _watch(self, handle: QueryHandle):
        yield from handle.wait()
        self._in_flight -= 1

    # ------------------------------------------------------------------
    def sharing_summary(self) -> dict[str, int]:
        return dict(self.sim.metrics.sharing_events)
