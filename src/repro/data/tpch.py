"""TPC-H ``lineitem`` generator (only the columns TPC-H Q1 touches).

The paper's Figure 6 (push- vs pull-based SP) runs identical TPC-H Q1
queries over an SF=1 memory-resident database.  Q1 is a scan + predicate +
eight-way aggregation over ``lineitem``; no other TPC-H table is needed by
the paper's evaluation.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import add, mul, truediv

from repro.data.rng import draw_columns, make_rng
from repro.storage.schema import Column, Schema
from repro.storage.table import Table

LINEITEM_SCHEMA = Schema(
    [
        Column("l_orderkey"),
        Column("l_quantity"),
        Column("l_extendedprice", "float"),
        Column("l_discount", "float"),
        Column("l_tax", "float"),
        Column("l_returnflag", "str"),
        Column("l_linestatus", "str"),
        Column("l_shipdate"),  # yyyymmdd int
    ],
    row_bytes=120.0,
)

RETURN_FLAGS = ("A", "N", "R")
LINE_STATUSES = ("F", "O")

#: Q1's date constant: l_shipdate <= 1998-12-01 - 90 days ~= 1998-09-02.
Q1_SHIPDATE_CUTOFF = 19980902


@dataclass(frozen=True)
class TpchDataset:
    """A generated TPC-H database (lineitem only)."""

    sf: float
    seed: int
    lineitem: Table

    @property
    def tables(self) -> dict[str, Table]:
        return {"lineitem": self.lineitem}


def generate_tpch(sf: float = 1.0, seed: int = 42) -> TpchDataset:
    """Generate (and memoize) lineitem at scale factor ``sf``.

    Real cardinality 6,000,000 x SF; generated min(6000 x SF, 60000) rows
    with a matching row weight (same scale substitution as SSB)."""
    return _generate_tpch(sf, seed)


@lru_cache(maxsize=8)
def _generate_tpch(sf: float, seed: int) -> TpchDataset:
    if sf <= 0:
        raise ValueError("scale factor must be positive")
    gen = int(min(max(6_000 * sf, 6_000), 60_000))
    weight = 6_000_000 * sf / gen
    # Drawn straight into column vectors (no row tuples), in the
    # generator's fixed order: date, price, then the rest left to right.
    year, month, day, cents, quantity, disc, tax, flag, status = draw_columns(
        make_rng(seed, "lineitem"),
        (
            (1992, 1999),
            (1, 13),
            (1, 29),
            (90_000, 1_100_000),
            (1, 51),
            (0, 11),
            (0, 9),
            (0, len(RETURN_FLAGS)),
            (0, len(LINE_STATUSES)),
        ),
        gen,
    )
    # yyyymmdd = year * 10000 + month * 100 + day
    shipdate = map(
        add, map(add, map(mul, year, repeat(10_000)), map(mul, month, repeat(100))), day
    )
    columns = [
        array("q", range(1, gen + 1)),
        quantity,
        array("d", map(truediv, cents, repeat(100.0))),
        array("d", map(truediv, disc, repeat(100.0))),
        array("d", map(truediv, tax, repeat(100.0))),
        list(map(RETURN_FLAGS.__getitem__, flag)),
        list(map(LINE_STATUSES.__getitem__, status)),
        array("q", shipdate),
    ]
    lineitem = Table.from_columns("lineitem", LINEITEM_SCHEMA, columns, row_weight=weight)
    return TpchDataset(sf=sf, seed=seed, lineitem=lineitem)
