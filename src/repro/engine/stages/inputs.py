"""Consumer-side input wrapper: read + fused selection.

Selections never get their own packets (see :mod:`repro.query.plan`); the
consuming operator reads its input through a :class:`FilteredInput`, which
charges the consumer's per-tuple read cost and -- when the input was wrapped
in SelectNodes -- evaluates the fused predicate, charging per predicate
term.  Keeping predicate evaluation on the *consumer* side is what lets a
raw circular scan be shared by queries with different predicates.

Selection runs through the one selection kernel
(:func:`repro.query.expr.compile_selection`, applied by
:func:`~repro.query.expr.select_batch`) -- one call per batch -- and the
read + predicate cycle charges are fused into a
single simulator command (one pool entry of their summed cycles, each part
metered into its own category), handed back from the cost model's fused
memo."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.engine.exchange import END
from repro.query.expr import Expr, compile_selection, select_batch

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class FilteredInput:
    """A reader plus an optional fused predicate."""

    def __init__(
        self,
        sim: "Simulator",
        reader: Any,
        predicate: Expr | None,
        schema,
    ):
        self.reader = reader
        self.cost = sim.cost
        self.schema = schema
        self.terms = predicate.terms if predicate is not None else 0
        # An SPL reader hands us its per-page read charge to fuse in front
        # of whatever we yield next (everything between is pure
        # computation).
        self._deferred_charge = None
        self._lock_prepay = None
        if hasattr(reader, "defer_read_charge"):
            self._deferred_charge = reader.defer_read_charge()
            self._lock_prepay = reader.prepay_lock_charge()
        self._select = (
            compile_selection(predicate, schema) if predicate is not None else None
        )

    def read(self) -> Iterator[Any]:
        """Next (filtered) batch, or END; yields the per-batch charge."""
        batch, cmd = yield from self.read_fused()
        if cmd is not None:
            yield cmd
        return batch

    def read_fused(self) -> Iterator[Any]:
        """The next (filtered) batch with its per-batch charge handed back
        as ``(batch, cmd)`` instead of yielded.  The caller must fuse
        ``cmd`` (when not None) in front of the very next CPU command it
        yields, before reading again -- everything in between must be pure
        computation.  ``(END, None)`` closes the stream; END never carries
        a charge."""
        batch = yield from self.reader.read()
        if batch is END:
            return END, None
        rc = self._deferred_charge
        n = len(batch)
        if n == 0:
            return batch, rc
        cost = self.cost
        read_cmd = cost.read(n, batch.weight)
        if self._select is None:
            return batch, (cost.fused(rc, read_cmd) if rc is not None else read_cmd)
        pred_cmd = cost.predicate(n, batch.weight, max(self.terms, 1))
        out = select_batch(self._select, batch)
        if rc is not None:
            return out, cost.fused(rc, read_cmd, pred_cmd)
        return out, cost.fused(read_cmd, pred_cmd)

    def fuse_next_lock(self, cmd):
        """Fuse the *next* read's SPL lock charge as the last part of
        ``cmd`` (see ``SplConsumer.prepay_lock_charge``).  Only legal when
        nothing but pure computation happens between yielding the returned
        command and the next ``read_fused`` call -- in particular, no
        intervening emit.  Returns ``cmd`` unchanged when prepaying is
        unavailable."""
        lp = self._lock_prepay
        if lp is None or cmd is None:
            return cmd
        self.reader.lock_prepaid = True
        return self.cost.fused(cmd, lp)
