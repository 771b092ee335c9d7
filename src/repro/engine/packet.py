"""Packets: one unit of work per operator per query.

A packet owns an output exchange.  A packet that attached as a *satellite*
owns none -- its consumers read the host's exchange instead (pull-based SP),
or receive copies pushed by the host (push-based SP; the copy mechanics live
inside :class:`~repro.engine.exchange.FifoExchange`)."""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Optional

from repro.engine.wop import WindowOfOpportunity

if TYPE_CHECKING:  # pragma: no cover
    from repro.query.plan import PlanNode, ScanNode
    from repro.query.star import Query

_packet_ids = itertools.count()


class Packet:
    """One operator instance dispatched to a stage."""

    __slots__ = (
        "packet_id",
        "node",
        "query",
        "stage_name",
        "wop",
        "exchange",
        "host",
        "satellites",
        "started_emitting",
        "finished",
    )

    def __init__(self, node: "PlanNode", query: "Query", stage_name: str, wop: WindowOfOpportunity):
        self.packet_id = next(_packet_ids)
        self.node = node
        self.query = query
        self.stage_name = stage_name
        self.wop = wop
        self.exchange: Any | None = None
        self.host: Optional["Packet"] = None
        self.satellites: list["Packet"] = []
        self.started_emitting = False
        self.finished = False

    # ------------------------------------------------------------------
    @property
    def signature(self) -> tuple:
        return self.node.signature

    def can_attach(self) -> bool:
        """Is a newly arriving identical packet inside this host's WoP?"""
        if self.finished:
            return False
        if self.wop is WindowOfOpportunity.STEP:
            return not self.started_emitting
        if self.wop is WindowOfOpportunity.LINEAR:
            return True
        return False

    def effective_exchange(self) -> Any:
        """The exchange consumers should read: the host's when satellite."""
        packet = self
        while packet.host is not None:
            packet = packet.host
        if packet.exchange is None:
            raise RuntimeError(f"packet {packet.packet_id} has no exchange yet")
        return packet.exchange

    def connect(self, budget: int | None = None) -> Any:
        """Open a reader on this packet's (effective) output."""
        return self.effective_exchange().open_reader(budget)

    def attach_satellite(self, satellite: "Packet") -> None:
        satellite.host = self
        self.satellites.append(satellite)

    def mark_started(self) -> None:
        self.started_emitting = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        role = "satellite" if self.host is not None else "host"
        return f"<Packet #{self.packet_id} {self.stage_name} q{self.query.query_id} {role}>"
