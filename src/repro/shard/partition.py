"""Fact-table partitioning for the shard tier.

Star schemas shard the classic way: the **fact table is partitioned**, the
(small) **dimensions are replicated** to every shard.  Joins then never
cross shards -- each worker evaluates the full join tree over its fact
slice -- and the union of per-shard join outputs equals the unsharded join
output, row for row.  Two placement modes:

* ``hash`` -- row ``i`` goes to ``crc32((salt, i)) % n``: spreads any
  generation-order locality evenly, the default.
* ``range`` -- contiguous blocks of near-equal size (shard ``k`` gets rows
  ``[k*ceil, ...)``): preserves page locality, the layout a clustered
  fact table would have.

Both are **true partitions** -- every row is assigned to exactly one shard
for any shard count (the property test in ``tests/shard`` proves it) --
and both are pure functions of ``(n_rows, n_shards, salt)``, so the parent
and every worker independently compute identical placements from the
dataset spec alone; no row data ever crosses a pipe.
"""

from __future__ import annotations

import functools
import zlib

from repro.storage import packed as packedmod
from repro.storage.table import Table

__all__ = [
    "PARTITION_MODES",
    "assign_shards",
    "partition_shipping",
    "partition_table",
    "shard_rows",
    "shard_tables",
]

#: CLI-selectable placement modes.
PARTITION_MODES = ("hash", "range")


def assign_shards(n_rows: int, n_shards: int, mode: str = "hash", salt: int = 0) -> list[int]:
    """The shard id of each row index (a pure, process-stable function)."""
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if mode == "hash":
        # CRC32 like make_rng's salt fold: stable across processes and
        # Python versions, unlike hash().
        return [
            zlib.crc32(repr((salt, i)).encode()) % n_shards for i in range(n_rows)
        ]
    if mode == "range":
        block = -(-n_rows // n_shards) if n_rows else 1  # ceil division
        return [min(i // block, n_shards - 1) for i in range(n_rows)]
    raise ValueError(f"unknown partition mode {mode!r} (choose from: {', '.join(PARTITION_MODES)})")


@functools.cache
def shard_rows(n_rows: int, n_shards: int, mode: str, salt: int) -> list:
    """Each shard's rows of the table: a ``range`` per shard in ``range``
    mode, an ascending index list per shard in ``hash`` mode.  Memoized:
    :class:`~repro.shard.service.ShardService` computes the placement once
    before its workers fork, and each worker's :func:`shard_tables`
    inherits it instead of hashing every row again; the service clears the
    memo once every worker has handshaken.  Read-only."""
    if mode == "range":
        block = -(-n_rows // n_shards) if n_rows else 1
        bounds = [min(k * block, n_rows) for k in range(n_shards)] + [n_rows]
        return [range(bounds[k], bounds[k + 1]) for k in range(n_shards)]
    if mode == "hash":
        index: list[list[int]] = [[] for _ in range(n_shards)]
        for i, shard in enumerate(assign_shards(n_rows, n_shards, mode, salt)):
            index[shard].append(i)
        return index
    raise ValueError(
        f"unknown partition mode {mode!r} (choose from: {', '.join(PARTITION_MODES)})"
    )


def _shard_table(table: Table, rows) -> Table:
    """The rows of ``table`` at ``rows`` (see :func:`shard_rows`) as a
    table of their own: a range *slices* each column vector (a typed
    array's slice is a view), an index list *gathers* through it --
    :func:`~repro.storage.packed.gather_column` keeps packed layouts
    packed (dictionary columns gather their byte codes, sharing the value
    table; typed arrays gather into typed arrays)."""
    if type(rows) is range:
        cols = tuple(col[rows.start : rows.stop] for col in table.columns())
    else:
        cols = tuple(packedmod.gather_column(col, rows) for col in table.columns())
    return Table.from_columns(
        table.name,
        table.schema,
        cols,
        row_weight=table.row_weight,
        tuples_per_page=table.tuples_per_page,
    )


def partition_table(
    table: Table, n_shards: int, mode: str = "hash", salt: int = 0
) -> list[Table]:
    """Split ``table`` into ``n_shards`` tables (same name, schema, row
    weight and page granularity; possibly empty -- a shard with no fact
    rows is legal and handled by the worker).

    Shards are built column-wise from the parent table's column vectors
    and row tuples are never materialized: ``range`` mode slices each
    vector, ``hash`` mode gathers through a per-shard index list.  Both
    feed :meth:`Table.from_columns`, whose pages carry the same row
    counts, weights and byte accounting as the row constructor's, so
    simulated charges do not depend on how a shard was built."""
    return [
        _shard_table(table, rows)
        for rows in shard_rows(table.num_rows, n_shards, mode, salt)
    ]


def partition_shipping(shard: Table) -> dict[str, int]:
    """What building this shard's fact partition actually *shipped*:
    ``{"rows", "pages", "shipped_bytes"}``.

    Packed buffers make byte counts real, so the accounting inspects the
    shard's live column representations instead of assuming a layout:

    * ``PackedNumeric`` backed by a ``memoryview`` -- a zero-copy range
      slice into the parent's buffer: **0 bytes shipped**;
    * ``PackedNumeric`` owning its array -- a hash gather: the full
      buffer was copied;
    * ``DictColumn`` -- the code bytes were copied (slice or gather),
      the dictionary value table stays shared: ``len(codes)`` bytes;
    * boxed column vectors -- one machine-word reference per cell.

    The scatter-cost model charges these bytes (plus a per-page term) on
    each shard's backlog horizon at service start-up; see
    :class:`repro.shard.service.ShardService`."""
    word = 8  # CPython reference width on every supported platform
    shipped = 0
    for col in shard.columns():
        t = type(col)
        if t is packedmod.PackedNumeric:
            if type(col.data) is not memoryview:
                shipped += col.nbytes
        elif t is packedmod.DictColumn:
            shipped += len(col.codes)
        else:
            shipped += word * len(col)
    return {
        "rows": shard.num_rows,
        "pages": shard.num_pages,
        "shipped_bytes": shipped,
    }


def shard_tables(
    tables: dict[str, Table],
    fact_table: str,
    shard_id: int,
    n_shards: int,
    mode: str = "hash",
    salt: int = 0,
) -> dict[str, Table]:
    """One shard's view of the database: its fact partition plus every
    dimension replicated (shared by reference -- tables are immutable).
    Builds this shard's partition alone; it equals
    ``partition_table(...)[shard_id]``."""
    if fact_table not in tables:
        raise ValueError(f"unknown fact table {fact_table!r}")
    if not 0 <= shard_id < n_shards:
        raise ValueError(f"shard_id {shard_id} out of range for {n_shards} shards")
    out = dict(tables)
    fact = tables[fact_table]
    out[fact_table] = _shard_table(fact, shard_rows(fact.num_rows, n_shards, mode, salt)[shard_id])
    return out
