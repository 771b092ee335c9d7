"""The aggregation stage (hash group-by; step WoP in the paper, no SP here,
as in all its experiments).

Blocking operator: all results are emitted after the input drains.

The module also holds the one aggregation kernel, :class:`GroupTable`:
this stage, CJOIN's shared aggregation and the Volcano baseline all fold
batches through it and emit its columns.  The reference evaluator
(:mod:`repro.baselines.reference`) keeps its own, independent loop."""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterator

from repro.engine.exchange import END
from repro.engine.packet import Packet
from repro.engine.stage import Stage
from repro.engine.stages.inputs import FilteredInput
from repro.query.expr import value_column
from repro.query.plan import AggregateNode, AggSpec
from repro.storage.page import ColumnBatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.schema import Schema


class GroupTable:
    """One aggregation's hash group table: the one aggregation kernel.

    Every engine folds batches through it -- this stage, CJOIN's shared
    aggregation and the Volcano baseline.  :meth:`add` folds one weighted
    batch into the groups; :meth:`result` emits them as columns.

    A group is one list of ``2 * len(specs)`` slots: spec ``i``'s sum (or
    min/max extremum) at ``2 * i`` and its count at ``2 * i + 1``.  No
    other code reads that layout."""

    __slots__ = (
        "specs", "group_idx", "schema", "groups", "_fns", "_funcs", "_template", "_one_sum"
    )

    def __init__(self, specs: tuple[AggSpec, ...], group_idx: tuple[int, ...], schema: "Schema"):
        self.specs = specs
        self.group_idx = group_idx
        self.schema = schema
        #: key tuple -> slot list, in first-occurrence order.
        self.groups: dict[tuple, list] = {}
        # Row closures of the input expressions (``None`` for a bare
        # ``count``), compiled once against the input schema.
        self._fns = [a.expr.compile(schema) if a.expr is not None else None for a in specs]
        self._funcs = [a.func for a in specs]
        template: list[Any] = []
        for func in self._funcs:
            template += (None, 0) if func in ("min", "max") else (0.0, 0)
        self._template = template
        # The workload's common shape: one weighted sum/avg per group.
        self._one_sum = len(specs) == 1 and bool(group_idx) and specs[0].func in ("sum", "avg")

    def add(self, batch: ColumnBatch) -> None:
        """Fold one weighted batch into the groups.

        Group-key and value columns are gathered late-materialized (an
        expression without a column form falls back to its row closure
        over the materialized rows, with identical values).  The fold runs
        in batch order, per group, one spec at a time, ``w`` real rows
        behind each generated row (additive aggregates scale by the
        weight)."""
        n, w = len(batch), batch.weight
        col_of = batch.column
        group_idx = self.group_idx
        if len(group_idx) > 1:
            keys = list(zip(*(col_of(i) for i in group_idx)))
        elif group_idx:
            keys = [(v,) for v in col_of(group_idx[0])]
        else:
            keys = None
        vcols: list = []
        rows = None
        for spec, fn in zip(self.specs, self._fns):
            if spec.expr is None or spec.func == "count":
                vcols.append(None)
                continue
            vc = value_column(spec.expr, self.schema, col_of, n)
            if vc is None:
                # No column form for this expression shape: the row closure
                # over materialized rows (values are identical).
                if rows is None:
                    rows = batch.rows
                vc = [fn(r) for r in rows]
            vcols.append(vc)
        groups = self.groups
        get_group = groups.get
        if self._one_sum:
            vc = vcols[0]
            for key, v in zip(keys, vc):
                g = get_group(key)
                if g is None:
                    g = groups[key] = [0.0, 0]
                g[0] += v * w
                g[1] += w
            return
        funcs = self._funcs
        template = self._template
        for p in range(n):
            key = keys[p] if keys is not None else ()
            g = get_group(key)
            if g is None:
                g = groups[key] = template[:]
            for i, func in enumerate(funcs):
                j = 2 * i
                if func == "count":
                    g[j + 1] += w
                    continue
                v = vcols[i][p]
                if func in ("sum", "avg"):
                    g[j] += v * w
                    g[j + 1] += w
                elif func == "min":
                    g[j] = v if g[j] is None else min(g[j], v)
                else:
                    g[j] = v if g[j] is None else max(g[j], v)

    def result(self) -> ColumnBatch:
        """The finalized groups as one batch of weight 1, in
        first-occurrence order: the group-key columns, then one column per
        spec (``count`` its count, ``avg`` its sum over its count or 0.0
        for an empty count, the others their slot)."""
        keys, slots = self.groups.keys(), self.groups.values()
        cols = [list(map(itemgetter(k), keys)) for k in range(len(self.group_idx))]
        for i, func in enumerate(self._funcs):
            s, c = 2 * i, 2 * i + 1
            if func == "avg":
                cols.append([g[s] / g[c] if g[c] else 0.0 for g in slots])
            else:
                cols.append(list(map(itemgetter(c if func == "count" else s), slots)))
        return ColumnBatch(tuple(cols), None, 1.0)


class AggregateStage(Stage):
    """The hash group-by aggregation stage (step WoP)."""
    def __init__(self, engine):
        super().__init__(engine, "aggregate")

    def run(self, packet: Packet, child_input: FilteredInput) -> None:
        self.spawn_worker(packet, self._work(packet, child_input))

    def _work(self, packet: Packet, child_input: FilteredInput) -> Iterator[Any]:
        node: AggregateNode = packet.node
        cost = self.engine.cost
        exchange = packet.exchange
        yield cost.dispatch_charge

        schema = child_input.schema
        table = GroupTable(node.aggregates, schema.indices(node.group_by), schema)

        while True:
            # The input hands back its per-batch charge so it rides in
            # front of our aggregation charge (see join._work).
            batch, fc = yield from child_input.read_fused()
            if batch is END:
                break
            n, w = len(batch), batch.weight
            if not n:
                if fc is not None:
                    yield child_input.fuse_next_lock(fc)
                continue
            hash_cmd = cost.group_hash(n, w)
            agg_cmd = cost.aggregate(n, w, functions=len(node.aggregates))
            if fc is not None:
                cmd = cost.fused(fc, hash_cmd, agg_cmd)
            else:
                cmd = cost.fused(hash_cmd, agg_cmd)
            # Accumulation is pure computation; nothing is emitted until
            # END, so the next read's lock charge rides along.
            yield child_input.fuse_next_lock(cmd)
            table.add(batch)

        out = table.result()
        packet.mark_started()
        self.unregister(packet)
        if len(out):
            yield from exchange.emit(out)
        exchange.close()
        packet.finished = True
