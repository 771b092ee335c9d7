"""The sort stage (linear WoP in the paper; no SP, as in all its experiments).

Fully blocking: collect, sort, emit.  Multi-key ordering with mixed
ascending/descending directions is implemented as successive stable sorts
from the least-significant key to the most-significant."""

from __future__ import annotations

from typing import Any, Iterator

from repro.engine.exchange import END
from repro.engine.packet import Packet
from repro.engine.stage import Stage
from repro.engine.stages.inputs import FilteredInput
from repro.query.plan import SortNode
from repro.storage.page import Batch


class SortStage(Stage):
    """The sort stage (see module docstring for WoP notes)."""
    def __init__(self, engine):
        super().__init__(engine, "sort")

    def run(self, packet: Packet, child_input: FilteredInput) -> None:
        self.spawn_worker(packet, self._work(packet, child_input))

    def _work(self, packet: Packet, child_input: FilteredInput) -> Iterator[Any]:
        node: SortNode = packet.node
        cost = self.engine.cost
        exchange = packet.exchange
        yield cost.dispatch_charge

        schema = child_input.schema
        rows: list[tuple] = []
        weight = 1.0
        while True:
            batch = yield from child_input.read()
            if batch is END:
                break
            if batch.rows:
                rows.extend(batch.rows)
                weight = batch.weight

        if rows:
            yield cost.sort(len(rows), weight)
            for col, ascending in reversed(node.keys):
                i = schema.index(col)
                rows.sort(key=lambda r, i=i: r[i], reverse=not ascending)
        packet.mark_started()
        self.unregister(packet)
        if rows:
            yield from exchange.emit(Batch(rows, weight))
        exchange.close()
        packet.finished = True
