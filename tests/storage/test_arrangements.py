"""Property + lifecycle suite for the shared build side: the dimension-
selection memo (:mod:`repro.storage.selections`) and the per-(table, key)
arrangement facts (:mod:`repro.storage.arrangements`).

Three layers of guarantees:

* **Selection equivalence** (hypothesis, over generated predicates and
  tables in every layout): a selection's rows are exactly what filtering
  the table keeps, in table order, however it was served (exact, derived
  from a subsuming sibling, computed); its ``by_key`` view equals the
  single-match table a private hash-join build produces; ``keys`` is the
  key column of those rows.
* **One memo, bounded**: a containment chain requested in any order gives
  identical selections, derivations pick the smallest provider, fold off
  never derives, the per-table cap holds under a stream of new predicates
  through both engines, and a predicate first seen by QPipe is an exact
  hit for CJOIN.
* **Lifecycle**: refcounts pin holders, ``StorageManager.notify_update``
  drops the memo's table and the cached arrangements while holders keep
  their snapshot, the next request recomputes, and a regenerated table
  under the same name evicts the stale arrangement.
"""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import evaluate_plan
from repro.data import generate_ssb
from repro.engine import CJOIN_SP, QPIPE_SP, QPipeEngine
from repro.engine.stages.join import single_match_table
from repro.query import expr
from repro.query.expr import Between, Cmp, Col, InSet
from repro.query.plan import AggSpec, DimJoinSpec
from repro.query.star import StarQuerySpec
from repro.query.subsume import and_of
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.engine import Simulator
from repro.sim.machine import MachineSpec
from repro.storage.arrangements import ARRANGEMENTS, Arrangement, ArrangementCache
from repro.storage.manager import StorageConfig, StorageManager
from repro.storage.packed import DICT_MAX_CARD, DictColumn, PackedNumeric
from repro.storage.schema import Column, Schema
from repro.storage.selections import MAX_ENTRIES_PER_TABLE, SelectionMemo
from repro.storage.table import Table
from tests.boxed import boxed_table

SCHEMA = Schema([Column("k"), Column("v"), Column("w")], row_bytes=24)

#: Possibly-duplicated keys: exercises the non-unique path.
rows_strategy = st.lists(
    st.tuples(st.integers(0, 15), st.integers(-5, 5), st.integers(0, 3)),
    max_size=120,
)


def unique_rows(keys_base: int, vals: list[int]) -> list[tuple]:
    """Rows with a guaranteed-unique key column (dimension shape)."""
    return [(keys_base + j, v, j % 4) for j, v in enumerate(vals)]


def build_table(rows, packed: bool, tpp: int = 7) -> Table:
    build = Table if packed else boxed_table
    return build("dim", SCHEMA, rows, tuples_per_page=tpp)


def _leaves(values):
    cols = st.sampled_from(["v", "w"])
    return st.one_of(
        st.builds(Cmp, st.sampled_from(["<", "<=", "=", "!=", ">=", ">"]), cols, values),
        st.builds(lambda c, lo, span: Between(c, lo, lo + span), cols, values, st.integers(0, 6)),
        st.builds(lambda c, vs: InSet(c, tuple(vs)), cols, st.lists(values, min_size=1, max_size=4)),
    )


def predicates(values=st.integers(-6, 6)):
    """Conjunctions of 1-3 leaves over the non-key columns, or no predicate."""
    return st.one_of(st.none(), st.lists(_leaves(values), min_size=1, max_size=3).map(and_of))


def naive(table: Table, predicate) -> list[tuple]:
    if predicate is None:
        return list(table.iter_rows())
    keep = predicate.compile(table.schema)
    return [r for r in table.iter_rows() if keep(r)]


def private_build(rows: list[tuple]) -> dict:
    """What ``HashJoinStage._work`` builds from a drained build input."""
    table: dict = {}
    for r in rows:
        table.setdefault(r[0], []).append(r)
    return table


# ----------------------------------------------------------------------
# Selection equivalence: memo == naive filter == private build.
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(rows=rows_strategy, packed=st.booleans(), tpp=st.integers(1, 17))
def test_unique_equals_naive(rows, packed, tpp):
    arr = Arrangement(build_table(rows, packed, tpp), "k")
    assert arr.unique == (len({r[0] for r in rows}) == len(rows))


@settings(max_examples=80, deadline=None)
@given(
    vals=st.lists(st.integers(-5, 5), max_size=80),
    packed=st.booleans(),
    preds=st.lists(predicates(), min_size=1, max_size=5),
    fold=st.booleans(),
)
def test_single_view_equals_fresh_single_match_table(vals, packed, preds, fold):
    table = build_table(unique_rows(100, vals), packed)
    memo = SelectionMemo()
    for pred in preds:
        selection = memo.select(table, pred, fold)
        expected = naive(table, pred)
        # Table order whoever asked first, however it was served.
        assert selection.rows == expected
        assert selection.by_key("k") == single_match_table(private_build(expected))
        # Memoized: an equal predicate (Expr hashes structurally) is an
        # exact hit on the same rows and the same keyed view.
        again = memo.select(table, pred, fold)
        assert again.served == "exact"
        assert again.rows is selection.rows
        assert again.by_key("k") is selection.by_key("k")


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.tuples(st.just(1), st.integers(0, 3), st.just(0)), min_size=2, max_size=20))
def test_single_view_refuses_non_unique_keys(rows):
    table = build_table(rows, packed=False)
    assert not Arrangement(table, "k").unique
    with pytest.raises(ValueError):
        SelectionMemo().select(table, None, True).by_key("k")


@settings(max_examples=40, deadline=None)
@given(vals=st.lists(st.integers(-5, 5), max_size=60), pred=predicates(), packed=st.booleans())
def test_keys_for_matches_selected_and_memoizes(vals, pred, packed):
    table = build_table(unique_rows(0, vals), packed)
    memo = SelectionMemo()
    selection = memo.select(table, pred, True)
    keys = selection.keys("k")
    assert keys == [r[0] for r in naive(table, pred)]
    assert memo.select(table, pred, True).keys("k") is keys
    assert selection.keys("w") == [r[2] for r in selection.rows]


@settings(max_examples=40, deadline=None)
@given(pred=predicates(st.integers(-3, DICT_MAX_CARD + 3)), fold=st.booleans())
def test_dictionary_fallback_boundary_probes_exactly(pred, fold):
    """DICT_MAX_CARD+1 distinct values push a packed column past dictionary
    encoding into typed arrays -- selections must agree on both sides of
    the boundary and with the boxed layout."""
    n = DICT_MAX_CARD + 1  # 257: typed-array (array('q')) territory
    for rows in (unique_rows(1000, list(range(n))), unique_rows(0, list(range(n - 2)))):
        expected = [r for r in rows if pred is None or pred.compile(SCHEMA)(r)]
        for packed in (False, True):
            t = build_table(rows, packed, tpp=64)
            if packed:
                assert any(type(c) in (DictColumn, PackedNumeric) for c in t.columns())
            assert Arrangement(t, "k").unique
            memo = SelectionMemo()
            memo.select(t, Cmp(">=", "v", -1), fold)  # a subsuming sibling
            selection = memo.select(t, pred, fold)
            assert selection.rows == expected
            assert selection.by_key("k") == {r[0]: r for r in expected}


# ----------------------------------------------------------------------
# One memo: order independence, smallest provider, fold off, the bound.
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    vals=st.lists(st.integers(-5, 5), min_size=1, max_size=80),
    lo=st.integers(-6, 2),
    spans=st.tuples(st.integers(0, 3), st.integers(1, 3), st.integers(0, 3)),
    packed=st.booleans(),
)
def test_containment_chain_in_every_order_gives_identical_selections(vals, lo, spans, packed):
    table = build_table(unique_rows(0, vals), packed)
    c = Between("v", lo, lo + spans[0])
    b = Between("v", lo - spans[1], lo + spans[0] + spans[1])
    a = Between("v", lo - spans[1] - spans[2], lo + spans[0] + spans[1] + spans[2] + 1)
    chain = (a, b, c)  # a contains b contains c
    expected = {p: naive(table, p) for p in chain}
    for order in permutations(chain):
        memo = SelectionMemo()
        seen: list = []
        for p in order:
            selection = memo.select(table, p, True)
            assert selection.rows == expected[p]
            wider = [q for q in seen if chain.index(q) < chain.index(p)]
            assert selection.served == ("derived" if wider else "computed")
            seen.append(p)
        assert memo.stats()["entries"] == len(set(chain))


def test_derivation_reads_the_smallest_subsuming_entry(monkeypatch):
    table = build_table(unique_rows(0, list(range(-5, 6)) * 4), packed=True)
    filtered: list[int] = []  # size of every source the memo filters
    real = expr.compile_positions

    def recording_positions(predicate, schema):
        select = real(predicate, schema)

        def recording(cols, at):
            filtered.append(len(cols[0]) if at is None else len(at))
            return select(cols, at)

        return recording

    monkeypatch.setattr(expr, "compile_positions", recording_positions)
    memo = SelectionMemo()
    for insert_order in ([(-4, 4), (-1, 1)], [(-1, 1), (-4, 4)]):
        memo.drop_table("dim")
        sizes = {b: len(memo.select(table, Between("v", *b), False).rows) for b in insert_order}
        point = memo.select(table, Cmp("=", "v", 0), True)
        assert point.served == "derived" and len(point.rows) == 4
        assert filtered[-1] == sizes[(-1, 1)] < sizes[(-4, 4)] < len(table)


@settings(max_examples=40, deadline=None)
@given(vals=st.lists(st.integers(-5, 5), max_size=60), preds=st.lists(predicates(), max_size=6))
def test_fold_off_never_derives(vals, preds):
    table = build_table(unique_rows(0, vals), packed=True)
    memo = SelectionMemo()
    memo.select(table, Cmp(">=", "v", -99), False)  # subsumes everything below
    for pred in preds:
        assert memo.select(table, pred, False).served in ("exact", "computed")
        assert memo.select(table, pred, False).rows == naive(table, pred)
    assert memo.derived == 0


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(0.2, seed=31)


def date_star(lo: int, hi: int) -> StarQuerySpec:
    return StarQuerySpec(
        fact_table="lineorder",
        dims=(
            DimJoinSpec(
                "date", "lo_orderdate", "d_datekey", Between("d_datekey", lo, hi), payload=("d_year",)
            ),
        ),
        group_by=("d_year",),
        aggregates=(AggSpec("sum", Col("lo_revenue"), "revenue"),),
    )


def norm(rows):
    return sorted(tuple(round(v, 6) if isinstance(v, float) else v for v in row) for row in rows)


@pytest.mark.parametrize("config", [CJOIN_SP, QPIPE_SP], ids=["cjoin-sp", "qpipe-sp"])
def test_memo_stays_under_its_cap_and_answers_stay_exact(ssb, config):
    """More distinct date ranges than the cap, nested so that derivations
    and evictions interleave: the memo never outgrows the cap and every
    query still answers what the reference evaluator answers."""
    sim = Simulator(MachineSpec())
    storage = StorageManager(sim, DEFAULT_COST_MODEL, ssb.tables, StorageConfig())
    engine = QPipeEngine(sim, storage, config)
    memo = storage.selections
    sizes: list[int] = []
    select = memo.select

    def checked_select(*args):
        selection = select(*args)
        sizes.append(sum(len(entries) for entries in memo._tables.values()))
        return selection

    memo.select = checked_select
    n = MAX_ENTRIES_PER_TABLE + 12
    specs = [date_star(19920101 + 100 * (i % 40) + i, 19981231 - 100 * (i % 30)) for i in range(n)]
    assert len({s.dims[0].predicate for s in specs}) == n
    for spec in specs:
        # One at a time: a query in flight would fold later arrivals into
        # its own join (WoP), and they would never reach the memo.
        handle = engine.submit(spec)
        sim.run()
        assert norm(handle.results) == norm(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))
    assert max(sizes) == MAX_ENTRIES_PER_TABLE
    assert memo.evictions == n - MAX_ENTRIES_PER_TABLE
    assert memo.derived > 0


# ----------------------------------------------------------------------
# Lifecycle: refcounts, invalidation, rebuilds.
# ----------------------------------------------------------------------
def test_acquire_hit_and_refcounts():
    cache = ArrangementCache()
    t = build_table(unique_rows(0, [1, 2, 3]), packed=False)
    a1 = cache.acquire(t, "k")
    a2 = cache.acquire(t, "k")
    assert a1 is a2 and a1.refcount == 2
    assert cache.stats() == {
        "hits": 1, "builds": 1, "evictions": 0, "invalidations": 0, "entries": 1,
    }
    cache.release(a1)
    cache.release(a2)
    assert a1.refcount == 0 and cache.pinned() == 0
    # Released but still cached: the next acquire is another hit.
    assert cache.acquire(t, "k") is a1 and cache.hits == 2


def test_invalidate_drops_entry_but_holders_keep_snapshot():
    cache = ArrangementCache()
    t = build_table(unique_rows(0, [4, 5, 6]), packed=False)
    held = cache.acquire(t, "k")
    dropped = cache.invalidate_table("dim")
    assert dropped == 1 and cache.get("dim", "k") is None
    assert cache.evictions == 1 and cache.invalidations == 1
    # The concurrent holder finishes on what it pinned, untouched.
    assert held.refcount == 1 and held.unique and held.table is t
    cache.release(held)
    # The next query rebuilds against the (new) table.
    rebuilt = cache.acquire(t, "k")
    assert rebuilt is not held and cache.builds == 2


def test_stale_table_identity_evicts_and_rebuilds():
    cache = ArrangementCache()
    old = build_table(unique_rows(0, [1]), packed=False)
    new = build_table(unique_rows(0, [1]), packed=True)  # regenerated layout
    a_old = cache.acquire(old, "k")
    cache.release(a_old)
    a_new = cache.acquire(new, "k")
    assert a_new is not a_old and a_new.table is new
    assert cache.evictions == 1 and cache.builds == 2 and cache.hits == 0


def test_notify_update_invalidates_arrangements():
    """The storage manager's update hook reaches the process-wide cache
    and its own selection memo (and keeps its return-value contract:
    result-cache drops only); a held selection survives the update while
    the next request recomputes."""
    sim = Simulator(MachineSpec(cores=2, hz=2e9))
    t = build_table(unique_rows(0, [7, 8]), packed=False)
    other = boxed_table("other", SCHEMA, unique_rows(0, [1]))
    storage = StorageManager(
        sim, DEFAULT_COST_MODEL, {"dim": t, "other": other}, StorageConfig(resident="memory")
    )
    before = ARRANGEMENTS.stats()
    held = ARRANGEMENTS.acquire(t, "k")
    pred = Cmp(">", "v", 7)
    selection = storage.selections.select(t, pred, True)
    untouched = storage.selections.select(other, None, True)
    view = selection.by_key("k")
    assert ARRANGEMENTS.get("dim", "k") is held
    assert storage.notify_update("dim") == 0  # no result cache configured
    assert ARRANGEMENTS.get("dim", "k") is None
    after = ARRANGEMENTS.stats()
    assert after["invalidations"] - before["invalidations"] == 1
    assert held.refcount == 1  # holder unaffected
    ARRANGEMENTS.release(held)
    # The held snapshot is intact; the memo recomputes the updated table
    # and keeps serving the untouched one.
    assert selection.rows == [(1, 8, 1)] and selection.by_key("k") is view
    fresh = storage.selections.select(t, pred, True)
    assert fresh.served == "computed" and fresh.rows == selection.rows
    assert fresh.rows is not selection.rows
    assert storage.selections.select(other, None, True).rows is untouched.rows
