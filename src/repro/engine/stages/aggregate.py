"""The aggregation stage (hash group-by; step WoP in the paper, no SP here,
as in all its experiments).

Blocking operator: all results are emitted after the input drains.

The module also holds the one aggregation kernel, :class:`GroupTable`:
this stage, CJOIN's shared aggregation, the Volcano baseline and the
shard tier's workers all fold batches through it, and the shard gather
merges the workers' tables with :func:`merge_groups`.  The kernel sums
exactly and rounds once, so an answer does not depend on the order its
rows arrive in, on batch boundaries or on how the fact table was split:
every path returns the same bits.  The reference evaluator
(:mod:`repro.baselines.reference`) keeps its own, independent loop."""

from __future__ import annotations

from math import inf, isfinite
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.engine.exchange import END
from repro.engine.packet import Packet
from repro.engine.stage import Stage
from repro.engine.stages.inputs import FilteredInput
from repro.query.expr import value_column
from repro.query.plan import AggregateNode, AggSpec
from repro.storage.page import ColumnBatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.schema import Schema

#: An exact sum counts units of 2**-1074, the smallest subnormal, so every
#: finite float is a whole number of them.
_SCALE = 1074


class ExactSum(int):
    """A slot's sum held exactly, in 2**-1074 units (a subclass only so that
    a slot can tell it from an ``int`` count)."""

    __slots__ = ()


def _units(v: Any) -> int:
    if v.__class__ is ExactSum:
        return v
    n, d = v.as_integer_ratio()  # d: a power of two, at most 2**1074
    return n << (_SCALE + 1 - d.bit_length())


def _plus(a: Any, b: Any) -> Any:
    """The exact sum of two additive slot values (``a`` is ``None`` before
    its first addend).  Two ``int`` counts add as ints; a NaN or an
    infinity keeps the float path, the IEEE sum of the non-finite values
    alone (so order-independent too); anything else is an ExactSum."""
    if a is None:
        return b
    if a.__class__ is int and b.__class__ is int:
        return a + b
    if a.__class__ is float and not isfinite(a):
        return a + b if b.__class__ is float and not isfinite(b) else a
    if b.__class__ is float and not isfinite(b):
        return b
    return ExactSum(_units(a) + _units(b))


def _ratio(n: int, d: int) -> float:
    """``n / d`` for ``d > 0``, rounded once (int true division rounds
    correctly); an infinity past the largest float."""
    try:
        return n / d
    except OverflowError:
        return inf if n > 0 else -inf


def _value(v: Any) -> Any:
    return _ratio(v, 1 << _SCALE) if v.__class__ is ExactSum else v


def _mean(s: Any, c: Any) -> float:
    if not c:
        return 0.0
    return _ratio(s, _units(c)) if s.__class__ is ExactSum else s / _value(c)


class GroupTable:
    """One aggregation's hash group table: the one aggregation kernel.

    Every engine folds batches through it -- this stage, CJOIN's shared
    aggregation, the Volcano baseline and the shard workers.
    :meth:`add` folds one weighted batch into the groups; :meth:`result`
    emits them as columns.

    The answer is exact: ``sum`` is the correctly rounded sum of its rows'
    float products ``v * w`` (``w`` real rows behind each generated row),
    ``count`` the sum of the weights, ``avg`` the exact sum over the exact
    count, each rounded once in :meth:`result`.  So row order, batch
    boundaries and merges cannot change a bit.

    A group is one list of ``2 * len(specs)`` slots: spec ``i``'s sum (or
    min/max extremum) at ``2 * i`` and its count (``count`` and ``avg``
    only) at ``2 * i + 1``, ``None`` until used.  An additive slot holds
    its first addend as the plain float (or ``int`` count) it is and
    becomes an :class:`ExactSum` only at its second, so a group seen once
    costs what a float sum does.  No other code reads that layout;
    :attr:`groups` is the table's exact state, which :func:`merge_groups`
    merges."""

    __slots__ = ("specs", "group_idx", "schema", "groups", "_fns", "_funcs", "_one_sum")

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
        # The workload's common shape: one weighted sum per group.
        self._one_sum = len(specs) == 1 and bool(group_idx) and specs[0].func == "sum"

    def add(self, batch: ColumnBatch) -> None:
        """Fold one weighted batch into the groups.

        Group-key and value columns are gathered late-materialized (an
        expression without a column form falls back to its row closure
        over the materialized rows, with identical values).  Each row adds
        the float ``0.0 + v * w`` to its group's sums and ``w`` to its
        counts (additive aggregates scale by the weight)."""
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
            for key, v in zip(keys, vcols[0]):
                g = get_group(key)
                if g is None:
                    groups[key] = [0.0 + v * w, None]
                else:
                    g[0] = _plus(g[0], 0.0 + v * w)
            return
        funcs = self._funcs
        empty = [None] * (2 * len(funcs))
        for p in range(n):
            key = keys[p] if keys is not None else ()
            g = get_group(key)
            if g is None:
                g = groups[key] = empty[:]
            for i, func in enumerate(funcs):
                j = 2 * i
                if func == "min" or func == "max":
                    v, have = vcols[i][p], g[j]
                    g[j] = v if have is None else min(have, v) if func == "min" else max(have, v)
                    continue
                if func != "count":
                    g[j] = _plus(g[j], 0.0 + vcols[i][p] * w)
                if func != "sum":
                    g[j + 1] = _plus(g[j + 1], w)

    def result(self) -> ColumnBatch:
        """The finalized groups as one batch of weight 1, in
        first-occurrence order (see :func:`finalize_groups`)."""
        return finalize_groups(self.specs, len(self.group_idx), self.groups)


def finalize_groups(specs: Sequence[AggSpec], n_keys: int, groups: dict[tuple, list]) -> ColumnBatch:
    """A table's (or a merged) state as one batch of weight 1: the
    ``n_keys`` group-key columns, then one column per spec (``count`` its
    count, ``avg`` its sum over its count or 0.0 for an empty count, the
    others their slot), each exact value rounded once."""
    keys, slots = groups.keys(), groups.values()
    cols = [list(map(itemgetter(k), keys)) for k in range(n_keys)]
    for i, spec in enumerate(specs):
        s, c = 2 * i, 2 * i + 1
        if spec.func == "avg":
            cols.append([_mean(g[s], g[c]) for g in slots])
        elif spec.func in ("sum", "count"):
            cols.append(list(map(_value, map(itemgetter(c if spec.func == "count" else s), slots))))
        else:
            cols.append(list(map(itemgetter(s), slots)))
    return ColumnBatch(tuple(cols), None, 1.0)


def merge_groups(specs: Sequence[AggSpec], states: Sequence[dict[tuple, list]]) -> dict[tuple, list]:
    """Several tables' :attr:`GroupTable.groups` merged into one state,
    exactly: the merge is associative and commutative, and the merged
    state is the one a single table folding every row would hold."""
    merged: dict[tuple, list] = {}
    for groups in states:
        for key, slots in groups.items():
            have = merged.get(key)
            if have is None:
                merged[key] = slots[:]
                continue
            for i, spec in enumerate(specs):
                j = 2 * i
                if spec.func in ("min", "max"):
                    have[j] = (min if spec.func == "min" else max)(have[j], slots[j])
                    continue
                if spec.func != "count":
                    have[j] = _plus(have[j], slots[j])
                if spec.func != "sum":
                    have[j + 1] = _plus(have[j + 1], slots[j + 1])
    return merged


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
