"""The complete Star Schema Benchmark query suite (all thirteen queries).

The paper's evaluation instantiates Q1.1, Q2.1 and Q3.2; a usable SSB
engine needs the four full flights (O'Neil et al., 2009):

* **Flight 1** (Q1.1-Q1.3): revenue gained from discount bands -- one date
  join plus fact-table predicates, single aggregate, no group-by.
* **Flight 2** (Q2.1-Q2.3): revenue by year and brand for narrowing part
  filters (category -> brand range -> single brand) and a supplier region.
* **Flight 3** (Q3.1-Q3.4): revenue by customer/supplier geography over a
  year range, at narrowing granularity (region -> nation -> city -> month).
* **Flight 4** (Q4.1-Q4.3): profit (revenue - supply cost) drill-downs over
  all four dimensions.

Each builder returns a :class:`~repro.query.star.StarQuerySpec`, so every
query runs unchanged on the query-centric engines *and* the CJOIN GQP.
"""

from __future__ import annotations

from repro.data.ssb import nation_cities
from repro.query.expr import And, Arith, Between, Cmp, Col, InSet, Or
from repro.query.plan import AggSpec, DimJoinSpec
from repro.query.star import StarQuerySpec

__all__ = [
    "q11", "q12", "q13",
    "q21", "q22", "q23",
    "q31", "q32", "q33", "q34",
    "q41", "q42", "q43",
    "ALL_SSB_QUERIES", "default_instance",
]

# Flight 1 and the paper's three templates live in ssb_queries; re-exported
# here so the suite is complete from one module.
from repro.query.ssb_queries import q11, q21, q32  # noqa: E402


def _date_dim(predicate=None, payload=("d_year",)) -> DimJoinSpec:
    return DimJoinSpec("date", "lo_orderdate", "d_datekey", predicate, payload)


def _revenue() -> tuple[AggSpec, ...]:
    return (AggSpec("sum", Col("lo_revenue"), "revenue"),)


def _profit() -> tuple[AggSpec, ...]:
    return (
        AggSpec(
            "sum",
            Arith("-", Col("lo_revenue"), Col("lo_supplycost")),
            "profit",
        ),
    )


# ---------------------------------------------------------------------------
# Flight 1: discount-band revenue (fact predicates; single sum)
# ---------------------------------------------------------------------------


def q12(yearmonthnum: int = 199401) -> StarQuerySpec:
    """Q1.2: one month, discount 4-6, quantity 26-35."""
    return StarQuerySpec(
        fact_table="lineorder",
        dims=(_date_dim(Cmp("=", "d_yearmonthnum", yearmonthnum), payload=()),),
        group_by=(),
        aggregates=(
            AggSpec("sum", Arith("*", Col("lo_extendedprice"), Col("lo_discount")), "revenue"),
        ),
        fact_predicate=And(
            Between("lo_discount", 4.0, 6.0), Between("lo_quantity", 26, 35)
        ),
        label="Q1.2",
    )


def q13(weeknum: int = 6, year: int = 1994) -> StarQuerySpec:
    """Q1.3: one week of one year, discount 5-7, quantity 26-35."""
    return StarQuerySpec(
        fact_table="lineorder",
        dims=(
            _date_dim(
                And(Cmp("=", "d_weeknuminyear", weeknum), Cmp("=", "d_year", year)),
                payload=(),
            ),
        ),
        group_by=(),
        aggregates=(
            AggSpec("sum", Arith("*", Col("lo_extendedprice"), Col("lo_discount")), "revenue"),
        ),
        fact_predicate=And(
            Between("lo_discount", 5.0, 7.0), Between("lo_quantity", 26, 35)
        ),
        label="Q1.3",
    )


# ---------------------------------------------------------------------------
# Flight 2: revenue by year and brand
# ---------------------------------------------------------------------------


def _q2_template(part_predicate, region: str, label: str) -> StarQuerySpec:
    return StarQuerySpec(
        fact_table="lineorder",
        dims=(
            DimJoinSpec("part", "lo_partkey", "p_partkey", part_predicate, ("p_brand1",)),
            DimJoinSpec(
                "supplier", "lo_suppkey", "s_suppkey", Cmp("=", "s_region", region), ()
            ),
            _date_dim(),
        ),
        group_by=("d_year", "p_brand1"),
        aggregates=_revenue(),
        order_by=(("d_year", True), ("p_brand1", True)),
        label=label,
    )


def q22(brand_low: str = "MFGR#2221", brand_high: str = "MFGR#2228", region: str = "ASIA") -> StarQuerySpec:
    """Q2.2: a lexicographic brand range in one supplier region."""
    return _q2_template(
        And(Cmp(">=", "p_brand1", brand_low), Cmp("<=", "p_brand1", brand_high)),
        region,
        "Q2.2",
    )


def q23(brand: str = "MFGR#2239", region: str = "EUROPE") -> StarQuerySpec:
    """Q2.3: a single brand in one supplier region."""
    return _q2_template(Cmp("=", "p_brand1", brand), region, "Q2.3")


# ---------------------------------------------------------------------------
# Flight 3: revenue by customer/supplier geography
# ---------------------------------------------------------------------------


def q31(region: str = "ASIA", year_low: int = 1992, year_high: int = 1997) -> StarQuerySpec:
    """Q3.1: customer and supplier nations within one region."""
    return StarQuerySpec(
        fact_table="lineorder",
        dims=(
            DimJoinSpec(
                "supplier", "lo_suppkey", "s_suppkey", Cmp("=", "s_region", region), ("s_nation",)
            ),
            DimJoinSpec(
                "customer", "lo_custkey", "c_custkey", Cmp("=", "c_region", region), ("c_nation",)
            ),
            _date_dim(Between("d_year", year_low, year_high)),
        ),
        group_by=("c_nation", "s_nation", "d_year"),
        aggregates=_revenue(),
        order_by=(("d_year", True), ("revenue", False)),
        label="Q3.1",
    )


def q33(
    city_a: str | None = None,
    city_b: str | None = None,
    year_low: int = 1992,
    year_high: int = 1997,
) -> StarQuerySpec:
    """Q3.3: two specific cities on both sides."""
    cities = nation_cities("UNITED KINGDOM")
    city_a = city_a or cities[1]
    city_b = city_b or cities[5]
    pair = InSet("c_city", [city_a, city_b])
    pair_s = InSet("s_city", [city_a, city_b])
    return StarQuerySpec(
        fact_table="lineorder",
        dims=(
            DimJoinSpec("supplier", "lo_suppkey", "s_suppkey", pair_s, ("s_city",)),
            DimJoinSpec("customer", "lo_custkey", "c_custkey", pair, ("c_city",)),
            _date_dim(Between("d_year", year_low, year_high)),
        ),
        group_by=("c_city", "s_city", "d_year"),
        aggregates=_revenue(),
        order_by=(("d_year", True), ("revenue", False)),
        label="Q3.3",
    )


def q34(yearmonthnum: int = 199712) -> StarQuerySpec:
    """Q3.4: the two-city pair during a single month."""
    cities = nation_cities("UNITED KINGDOM")
    pair = InSet("c_city", [cities[1], cities[5]])
    pair_s = InSet("s_city", [cities[1], cities[5]])
    return StarQuerySpec(
        fact_table="lineorder",
        dims=(
            DimJoinSpec("supplier", "lo_suppkey", "s_suppkey", pair_s, ("s_city",)),
            DimJoinSpec("customer", "lo_custkey", "c_custkey", pair, ("c_city",)),
            _date_dim(Cmp("=", "d_yearmonthnum", yearmonthnum), payload=("d_year",)),
        ),
        group_by=("c_city", "s_city", "d_year"),
        aggregates=_revenue(),
        order_by=(("d_year", True), ("revenue", False)),
        label="Q3.4",
    )


# ---------------------------------------------------------------------------
# Flight 4: profit drill-downs over all four dimensions
# ---------------------------------------------------------------------------


def q41(customer_region: str = "AMERICA", supplier_region: str = "AMERICA") -> StarQuerySpec:
    """Q4.1: profit by year and customer nation, mfgr 1 or 2 parts."""
    return StarQuerySpec(
        fact_table="lineorder",
        dims=(
            DimJoinSpec(
                "customer",
                "lo_custkey",
                "c_custkey",
                Cmp("=", "c_region", customer_region),
                ("c_nation",),
            ),
            DimJoinSpec(
                "supplier",
                "lo_suppkey",
                "s_suppkey",
                Cmp("=", "s_region", supplier_region),
                (),
            ),
            DimJoinSpec(
                "part",
                "lo_partkey",
                "p_partkey",
                Or(Cmp("=", "p_mfgr", "MFGR#1"), Cmp("=", "p_mfgr", "MFGR#2")),
                (),
            ),
            _date_dim(),
        ),
        group_by=("d_year", "c_nation"),
        aggregates=_profit(),
        order_by=(("d_year", True), ("c_nation", True)),
        label="Q4.1",
    )


def q42(
    customer_region: str = "AMERICA",
    supplier_region: str = "AMERICA",
    years: tuple[int, int] = (1997, 1998),
) -> StarQuerySpec:
    """Q4.2: profit by year, supplier nation and part category."""
    return StarQuerySpec(
        fact_table="lineorder",
        dims=(
            DimJoinSpec(
                "customer",
                "lo_custkey",
                "c_custkey",
                Cmp("=", "c_region", customer_region),
                (),
            ),
            DimJoinSpec(
                "supplier",
                "lo_suppkey",
                "s_suppkey",
                Cmp("=", "s_region", supplier_region),
                ("s_nation",),
            ),
            DimJoinSpec(
                "part",
                "lo_partkey",
                "p_partkey",
                Or(Cmp("=", "p_mfgr", "MFGR#1"), Cmp("=", "p_mfgr", "MFGR#2")),
                ("p_category",),
            ),
            _date_dim(InSet("d_year", list(years))),
        ),
        group_by=("d_year", "s_nation", "p_category"),
        aggregates=_profit(),
        order_by=(("d_year", True), ("s_nation", True), ("p_category", True)),
        label="Q4.2",
    )


def q43(
    supplier_nation: str = "UNITED STATES",
    category: str = "MFGR#14",
    years: tuple[int, int] = (1997, 1998),
) -> StarQuerySpec:
    """Q4.3: profit by year, supplier city and brand, one nation/category."""
    return StarQuerySpec(
        fact_table="lineorder",
        dims=(
            DimJoinSpec(
                "supplier",
                "lo_suppkey",
                "s_suppkey",
                Cmp("=", "s_nation", supplier_nation),
                ("s_city",),
            ),
            DimJoinSpec(
                "part",
                "lo_partkey",
                "p_partkey",
                Cmp("=", "p_category", category),
                ("p_brand1",),
            ),
            _date_dim(InSet("d_year", list(years))),
        ),
        group_by=("d_year", "s_city", "p_brand1"),
        aggregates=_profit(),
        order_by=(("d_year", True), ("s_city", True), ("p_brand1", True)),
        label="Q4.3",
    )


#: name -> zero-argument default instance builder, all thirteen queries.
ALL_SSB_QUERIES = {
    "Q1.1": lambda: q11(1993, 1.0, 3.0, 25),
    "Q1.2": q12,
    "Q1.3": q13,
    "Q2.1": lambda: q21("MFGR#12", "AMERICA"),
    "Q2.2": q22,
    "Q2.3": q23,
    "Q3.1": q31,
    "Q3.2": lambda: q32("UNITED STATES", "CHINA", 1992, 1997),
    "Q3.3": q33,
    "Q3.4": q34,
    "Q4.1": q41,
    "Q4.2": q42,
    "Q4.3": q43,
}


def default_instance(name: str) -> StarQuerySpec:
    """The default instance of SSB query ``name`` (e.g. ``"Q2.2"``)."""
    try:
        return ALL_SSB_QUERIES[name]()
    except KeyError:
        raise KeyError(f"unknown SSB query {name!r}; have {sorted(ALL_SSB_QUERIES)}") from None
