"""The hash-join stage (query-centric joins, step WoP).

One worker per host packet: build a hash table from the (filtered) build
input, then stream the probe input.  Cost charges split per the paper's
breakdown: ``hash()``/``equal()`` cycles under "hashing", build/probe
bookkeeping and output materialization under "joins".

Both hot loops run vectorized (one comprehension per batch, key indices
hoisted out of the loop) and the per-batch cycle charges are fused into a
single simulator command (see :meth:`repro.sim.costmodel.CostModel.fused`)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.engine.exchange import END
from repro.engine.packet import Packet
from repro.engine.stage import Stage
from repro.engine.stages.inputs import FilteredInput
from repro.storage.arrangements import ARRANGEMENTS, Arrangement
from repro.storage.page import ColumnBatch


def single_match_table(table: dict[Any, list[tuple]]) -> dict[Any, tuple] | None:
    """When every build key maps to exactly one row (dimension tables keyed
    by primary key -- the star-schema common case), flatten the hash table
    to key -> row so probes run as C-level dict lookups.  Returns None when
    any key has multiple matches (the general loop handles those)."""
    if any(len(ms) != 1 for ms in table.values()):
        return None
    return {k: ms[0] for k, ms in table.items()}


def probe(
    batch: ColumnBatch,
    probe_key: int,
    get,
    weight: float,
    single: dict[Any, tuple] | None = None,
) -> ColumnBatch:
    """Hash-probe one batch against a build table: ``get`` is the
    multi-match table's ``dict.get`` (key -> build rows), ``single`` the
    flat key -> row table when every key has at most one match (one dict
    lookup per probe row, same rows in the same order).  Match order is
    probe order, then build-insertion order.

    The output stays late-materialized: a new selection vector over the
    *same* base columns plus a tail of matched build rows -- no wide
    output tuples -- and with ``single`` the whole probe is one C-level
    ``map(dict.get)`` pass over the key column plus ``is not None``
    comprehensions.  Keys are read through the batch's selection (a full
    view iterates its base vector's boxed values); nothing is memoized on
    the column."""
    keys = batch.column(probe_key)
    src = batch.sel
    tails = batch.tail
    if single is not None:
        ms = list(map(single.get, keys))
        if tails is None:
            if src is None:
                out_sel = [j for j, m in enumerate(ms) if m is not None]
            else:
                out_sel = [j for j, m in zip(src, ms) if m is not None]
            out_tail = [m for m in ms if m is not None]
        else:
            out_sel = [j for j, m in zip(src, ms) if m is not None]
            out_tail = [t + m for t, m in zip(tails, ms) if m is not None]
        return ColumnBatch(batch.cols, out_sel, weight, out_tail)
    out_sel = []
    out_tail = []
    add_sel = out_sel.append
    add_tail = out_tail.append
    if tails is None:
        positions = range(len(keys)) if src is None else src
        for j, k in zip(positions, keys):
            ms = get(k)
            if ms is not None:
                for m in ms:
                    add_sel(j)
                    add_tail(m)
    else:
        for j, k, t in zip(src, keys, tails):
            ms = get(k)
            if ms is not None:
                for m in ms:
                    add_sel(j)
                    add_tail(t + m)
    return ColumnBatch(batch.cols, out_sel, weight, out_tail)


if TYPE_CHECKING:  # pragma: no cover
    from repro.query.plan import HashJoinNode


class HashJoinStage(Stage):
    """The query-centric hash-join stage (step WoP)."""
    def __init__(self, engine):
        super().__init__(engine, "join")

    def run(
        self,
        packet: Packet,
        probe_input: FilteredInput,
        build_input: FilteredInput,
        shared: tuple[Arrangement, Any] | None = None,
    ) -> None:
        """``shared`` (engine-resolved, see ``QPipeEngine._shared_build``)
        carries a pinned arrangement plus the build-side predicate: the
        build input is then drained with identical charges but no private
        dict is populated, and probes hit the storage manager's memoized
        selection for that predicate, keyed by the build key."""
        self.spawn_worker(packet, self._work(packet, probe_input, build_input, shared))

    def _work(
        self,
        packet: Packet,
        probe_input: FilteredInput,
        build_input: FilteredInput,
        shared: tuple[Arrangement, Any] | None = None,
    ) -> Iterator[Any]:
        node: "HashJoinNode" = packet.node
        cost = self.engine.cost
        exchange = packet.exchange
        yield cost.dispatch_charge

        # ---- build phase --------------------------------------------
        # Key index resolved once per packet, not per batch.
        build_key = build_input.schema.index(node.build_key)
        table: dict[Any, list[tuple]] = {}
        setdefault = table.setdefault
        while True:
            # The input hands back its per-batch charge so it rides in
            # front of our hashing/build charge -- one command per batch
            # for the whole read->filter->build chain.
            batch, fc = yield from build_input.read_fused()
            if batch is END:
                break
            n, w = len(batch), batch.weight
            if not n:
                if fc is not None:
                    yield build_input.fuse_next_lock(fc)
                continue
            # Only pure computation follows until the next read, so the
            # next read's lock charge rides at the tail of this command.
            if fc is not None:
                cmd = cost.fused(fc, cost.hashing(n, w), cost.build(n, w))
            else:
                cmd = cost.fused(cost.hashing(n, w), cost.build(n, w))
            yield build_input.fuse_next_lock(cmd)
            if shared is None:
                # Private build: the rows become the probe output's tail
                # payloads (dims are small post-filter).  With a shared
                # arrangement the input is drained and charged identically
                # (the *work* of reading and hashing is still this
                # query's), but the dict the probes hit is the memoized
                # selection's -- equal to the directly built one (unique
                # base keys), so sharing never moves a simulated tick.
                for r in batch.rows:
                    setdefault(r[build_key], []).append(r)

        # ---- probe phase --------------------------------------------
        probe_key = probe_input.schema.index(node.probe_key)
        get = table.get
        if shared is not None:
            arr, predicate = shared
            single = self.engine.storage.selections.select(
                arr.table, predicate, self.engine.config.query_folding
            ).by_key(arr.key_column)
        else:
            single = single_match_table(table)
        while True:
            batch, fc = yield from probe_input.read_fused()
            if batch is END:
                break
            n, w = len(batch), batch.weight
            if not n:
                if fc is not None:
                    yield probe_input.fuse_next_lock(fc)
                continue
            out = probe(batch, probe_key, get, w, single)
            nout = len(out)
            cmds = [fc] if fc is not None else []
            cmds.append(cost.hashing(n, w, equals=nout))
            cmds.append(cost.probe(n, w))
            if nout:
                cmds.append(cost.emit_join(nout, w))
            fused_cmd = cost.fused(*cmds)
            if not nout:
                # No emission before the next read, so its lock charge
                # can ride at the tail (an emit in between would hold
                # the input SPL's lock across the emit -- illegal).
                fused_cmd = probe_input.fuse_next_lock(fused_cmd)
            yield fused_cmd
            if nout:
                if not packet.started_emitting:
                    packet.mark_started()
                    self.unregister(packet)  # step WoP closes
                yield from exchange.emit(out)

        exchange.close()
        packet.finished = True
        self.unregister(packet)
        if shared is not None:
            ARRANGEMENTS.release(shared[0])
