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
from repro.query.expr import column_indices, row_key_fn, value_column
from repro.query.plan import AggregateNode, AggSpec
from repro.storage.page import Batch, ColumnBatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.schema import Schema


class _Accumulator:
    """Accumulators for one group (one slot per aggregate spec)."""

    __slots__ = ("sums", "counts", "mins", "maxs")

    def __init__(self, n: int):
        self.sums = [0.0] * n
        self.counts = [0] * n
        self.mins: list[Any] = [None] * n
        self.maxs: list[Any] = [None] * n


def compile_values(specs: tuple[AggSpec, ...], schema: "Schema") -> list:
    """The row closures of ``specs``' input expressions (``None`` for a
    bare ``count``), compiled once per aggregation against its input."""
    return [a.expr.compile(schema) if a.expr is not None else None for a in specs]


def accumulate(
    batch: Batch | ColumnBatch,
    group_idx: tuple[int, ...],
    specs: tuple[AggSpec, ...],
    fns: list,
    schema: "Schema",
    groups: dict,
) -> None:
    """Fold one weighted batch into ``groups`` (key tuple ->
    :class:`_Accumulator`): the one aggregation kernel of every engine.

    Only the column gather depends on the layout.  A :class:`ColumnBatch`
    gathers its group-key and value columns late-materialized (an
    expression without a column form falls back to its row closure over
    the materialized rows); a row :class:`Batch` maps the key extractor and
    the closures over its rows.  The fold is shared: batch order, per
    group, one slot per spec, ``w`` real rows behind each generated row
    (additive aggregates scale by the weight), so every float is
    bit-identical whichever layout arrives."""
    n, w = len(batch), batch.weight
    if isinstance(batch, ColumnBatch):
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
                # No column form for this expression shape: the row
                # closure over materialized rows (values are identical).
                if rows is None:
                    rows = batch.rows
                vc = [fn(r) for r in rows]
            vcols.append(vc)
    else:
        rows = batch.rows
        keys = list(map(row_key_fn(group_idx), rows)) if group_idx else None
        vcols = [
            None if spec.expr is None or spec.func == "count" else [fn(r) for r in rows]
            for spec, fn in zip(specs, fns)
        ]
    nspecs = len(specs)
    get_group = groups.get
    if nspecs == 1 and keys is not None and specs[0].func in ("sum", "avg"):
        # The workload's common shape: one weighted sum/avg per group.
        vc = vcols[0]
        for key, v in zip(keys, vc):
            acc = get_group(key)
            if acc is None:
                acc = groups[key] = _Accumulator(1)
            acc.sums[0] += v * w
            acc.counts[0] += w
        return
    for p in range(n):
        key = keys[p] if keys is not None else ()
        acc = get_group(key)
        if acc is None:
            acc = groups[key] = _Accumulator(nspecs)
        for i in range(nspecs):
            spec = specs[i]
            if spec.func == "count":
                acc.counts[i] += w
                continue
            v = vcols[i][p]
            if spec.func in ("sum", "avg"):
                acc.sums[i] += v * w
                acc.counts[i] += w
            elif spec.func == "min":
                acc.mins[i] = v if acc.mins[i] is None else min(acc.mins[i], v)
            else:
                acc.maxs[i] = v if acc.maxs[i] is None else max(acc.maxs[i], v)


def _final(spec: AggSpec, acc: _Accumulator, i: int) -> Any:
    if spec.func == "sum":
        return acc.sums[i]
    if spec.func == "count":
        return acc.counts[i]
    if spec.func == "avg":
        return acc.sums[i] / acc.counts[i] if acc.counts[i] else 0.0
    if spec.func == "min":
        return acc.mins[i]
    return acc.maxs[i]


def finalize(specs: tuple[AggSpec, ...], groups: dict) -> list[tuple]:
    """One output row per group, in first-occurrence order: the group key
    followed by one finalized value per spec."""
    nspecs = len(specs)
    return [
        key + tuple(_final(specs[i], acc, i) for i in range(nspecs))
        for key, acc in groups.items()
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
        groups: dict[tuple, _Accumulator] = {}

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
            yield from exchange.emit(Batch(out_rows, weight=1.0))
        exchange.close()
        packet.finished = True
