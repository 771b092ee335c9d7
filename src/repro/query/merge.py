"""Partial-aggregate merge operators for scatter/gather execution.

The shard tier (:mod:`repro.shard`) splits a star query's fact table across
N workers; each worker evaluates the query's selections and joins on its
own engine and folds the joined rows through the one aggregation kernel,
:class:`~repro.engine.stages.aggregate.GroupTable`, whose exact state is
the shard's **partial aggregate**.  The gather stage merges the N partials
and finalizes exactly one answer.  Two properties make that sound:

* **Decomposability** -- every supported aggregate merges from per-shard
  partials: ``sum``/``count`` add, ``min``/``max`` compare, and ``avg``
  carries (sum, count) and divides only at finalize time.
* **Exactness** -- the kernel sums exactly and rounds once, so the merge
  is associative and commutative and the merged answer is *independent of
  how rows were partitioned*: the N-shard answer is byte-identical to the
  1-shard answer and to the in-process engines' for any N and any
  partitioning.

Finalized rows are emitted in a **canonical order** (:func:`canonical_rows`),
so gather output never depends on group-table insertion order or shard
count; the in-process service orders its answers the same way before it
fingerprints them.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.stages.aggregate import finalize_groups, merge_groups
from repro.query.plan import AggSpec

__all__ = [
    "PartialAggState",
    "canonical_rows",
    "finalize_rows",
    "merge_states",
]

#: One shard's partial aggregate: a ``GroupTable``'s ``groups`` (group key
#: -> slot list; plain picklable data -- the shard tier's wire format).
PartialAggState = dict[tuple, list]


def merge_states(
    aggregates: Sequence[AggSpec], states: Sequence[PartialAggState]
) -> PartialAggState:
    """Merge per-shard partial states (associative and commutative; the
    gather stage still applies it in shard order for reproducible logs)."""
    return merge_groups(aggregates, states)


def canonical_rows(
    rows: Sequence[tuple],
    group_by: Sequence[str],
    aggregates: Sequence[AggSpec],
    order_by: Sequence[tuple[str, bool]],
) -> list[tuple]:
    """An aggregate query's answer rows (group-by columns first, then one
    column per aggregate) in canonical order: sorted by their group key
    (total within a query: group keys are unique), then by the query's
    ``ORDER BY`` as successive stable sorts, like the sort stage."""
    out = sorted(rows, key=lambda r: r[: len(group_by)])
    if order_by:
        names = list(group_by) + [a.name for a in aggregates]
        for col, ascending in reversed(tuple(order_by)):
            i = names.index(col)
            out.sort(key=lambda r, i=i: r[i], reverse=not ascending)
    return out


def finalize_rows(
    group_by: Sequence[str],
    aggregates: Sequence[AggSpec],
    order_by: Sequence[tuple[str, bool]],
    state: PartialAggState,
) -> list[tuple]:
    """Finalize a merged state into canonical result rows.

    Output schema matches the in-engine :class:`AggregateNode`: group-by
    columns first, then one column per aggregate."""
    rows = finalize_groups(aggregates, len(group_by), state).rows
    return canonical_rows(rows, group_by, aggregates, order_by)
