"""The sort stage (linear WoP in the paper; no SP, as in all its experiments).

Fully blocking: collect, sort, emit.  Multi-key ordering with mixed
ascending/descending directions is implemented as successive stable sorts
from the least-significant key to the most-significant."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.engine.exchange import END
from repro.engine.packet import Packet
from repro.engine.stage import Stage
from repro.engine.stages.inputs import FilteredInput
from repro.query.plan import SortNode
from repro.storage.page import ColumnBatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.schema import Schema


def order_by(
    cols: Sequence[Sequence[Any]],
    n: int,
    keys: tuple[tuple[str, bool], ...],
    schema: "Schema",
    weight: float,
) -> ColumnBatch:
    """The ``n`` rows of ``cols`` in ``keys`` order, as a selection over the
    same columns: successive stable sorts of the row positions, least
    significant key first (the same permutation sorting the row tuples
    themselves would give)."""
    order = list(range(n))
    for col, ascending in reversed(keys):
        order.sort(key=cols[schema.index(col)].__getitem__, reverse=not ascending)
    return ColumnBatch(tuple(cols), order, weight)


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
        cols: list[list] = [[] for _ in schema.columns]
        n = 0
        weight = 1.0
        while True:
            batch = yield from child_input.read()
            if batch is END:
                break
            if len(batch):
                for i, col in enumerate(cols):
                    col.extend(batch.column(i))
                n += len(batch)
                weight = batch.weight

        if n:
            yield cost.sort(n, weight)
        packet.mark_started()
        self.unregister(packet)
        if n:
            yield from exchange.emit(order_by(cols, n, node.keys, schema, weight))
        exchange.close()
        packet.finished = True
