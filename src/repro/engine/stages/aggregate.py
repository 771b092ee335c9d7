"""The aggregation stage (hash group-by; step WoP in the paper, no SP here,
as in all its experiments).

Blocking operator: all results are emitted after the input drains.

The module also holds the one aggregation kernel (:func:`accumulate` +
:func:`finalize`): this stage, CJOIN's shared aggregation and the Volcano
baseline all fold batches through it.  The reference evaluator
(:mod:`repro.baselines.reference`) keeps its own, independent loop."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.engine.exchange import END
from repro.engine.packet import Packet
from repro.engine.stage import Stage
from repro.engine.stages.inputs import FilteredInput
from repro.query.expr import column_indices, value_column
from repro.query.plan import AggregateNode, AggSpec
from repro.storage.page import ColumnBatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.schema import Schema


def compile_values(specs: tuple[AggSpec, ...], schema: "Schema") -> list:
    """The row closures of ``specs``' input expressions (``None`` for a
    bare ``count``), compiled once per aggregation against its input."""
    return [a.expr.compile(schema) if a.expr is not None else None for a in specs]


def accumulate(
    batch: ColumnBatch,
    group_idx: tuple[int, ...],
    specs: tuple[AggSpec, ...],
    fns: list,
    schema: "Schema",
    groups: dict,
) -> None:
    """Fold one weighted batch into ``groups`` (key tuple -> slot list):
    the one aggregation kernel of every engine.

    A group is one list of ``2 * len(specs)`` slots: spec ``i``'s sum (or
    min/max extremum) at ``2 * i`` and its count at ``2 * i + 1``.  Group-key
    and value columns are gathered late-materialized (an expression
    without a column form falls back to its row closure over the
    materialized rows, with identical values).  The fold runs in batch
    order, per group, one spec at a time, ``w`` real rows behind each
    generated row (additive aggregates scale by the weight)."""
    n, w = len(batch), batch.weight
    col_of = batch.column
    if len(group_idx) > 1:
        keys = list(zip(*(col_of(i) for i in group_idx)))
    elif group_idx:
        keys = [(v,) for v in col_of(group_idx[0])]
    else:
        keys = None
    vcols: list = []
    rows = None
    for spec, fn in zip(specs, fns):
        if spec.expr is None or spec.func == "count":
            vcols.append(None)
            continue
        vc = value_column(spec.expr, schema, col_of, n)
        if vc is None:
            # No column form for this expression shape: the row closure
            # over materialized rows (values are identical).
            if rows is None:
                rows = batch.rows
            vc = [fn(r) for r in rows]
        vcols.append(vc)
    get_group = groups.get
    if len(specs) == 1 and keys is not None and specs[0].func in ("sum", "avg"):
        # The workload's common shape: one weighted sum/avg per group.
        vc = vcols[0]
        for key, v in zip(keys, vc):
            g = get_group(key)
            if g is None:
                g = groups[key] = [0.0, 0]
            g[0] += v * w
            g[1] += w
        return
    funcs = [spec.func for spec in specs]
    template: list[Any] = []
    for func in funcs:
        template += (None, 0) if func in ("min", "max") else (0.0, 0)
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


def _final(func: str, value: Any, count: Any) -> Any:
    if func == "count":
        return count
    if func == "avg":
        return value / count if count else 0.0
    return value  # sum, min, max


def finalize(specs: tuple[AggSpec, ...], groups: dict) -> list[tuple]:
    """One output row per group, in first-occurrence order: the group key
    followed by one finalized value per spec."""
    funcs = [spec.func for spec in specs]
    return [
        key + tuple(_final(func, g[2 * i], g[2 * i + 1]) for i, func in enumerate(funcs))
        for key, g in groups.items()
    ]


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
        specs = node.aggregates
        nspecs = len(specs)
        group_idx = column_indices(schema, node.group_by)
        fns = compile_values(specs, schema)
        groups: dict[tuple, list] = {}

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
            agg_cmd = cost.aggregate(n, w, functions=nspecs)
            if fc is not None:
                cmd = cost.fused(fc, hash_cmd, agg_cmd)
            else:
                cmd = cost.fused(hash_cmd, agg_cmd)
            # Accumulation is pure computation; nothing is emitted until
            # END, so the next read's lock charge rides along.
            yield child_input.fuse_next_lock(cmd)
            accumulate(batch, group_idx, specs, fns, schema, groups)

        out_rows = finalize(specs, groups)
        packet.mark_started()
        self.unregister(packet)
        if out_rows:
            yield from exchange.emit(ColumnBatch.from_rows(out_rows, 1.0))
        exchange.close()
        packet.finished = True
