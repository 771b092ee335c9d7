"""The generated data is pinned, and a run reads it as columns only.

* **Digest** -- a sha256 over every column of seven generated databases:
  each benchmark workload's (SSB at SF 1.5, 5, 10 and 30, seed 42), SSB
  at SF 1 under seed 7, and TPC-H at SF 1 and 10.  Every digest is the
  one the per-row ``randrange`` generators produced (and for SSB SF 1
  seed 7, SSB SF 30 and TPC-H SF 1, the row-built generators before
  them), so the draw order and every value (type and sign included, via
  ``repr``) are held.
* **No row view** -- after a CJOIN-SP batch and a QPipe-SP batch over
  every SSB query, no page of any table has materialized row tuples:
  rows are a view for the reference evaluator only.
* **One batch type** -- across QPipe-SP, CJOIN-SP, the Volcano baseline
  and a served run with result-cache replay and query folding, every batch
  emitted into an exchange (and every relation the baseline returns) is a
  ``ColumnBatch``, and no packed column holds a decoded copy of itself.
"""

import hashlib
from collections import Counter

import pytest

from repro.baselines.volcano import VolcanoEngine
from repro.bench.runner import POSTGRES, run_batch
from repro.bench.workload import QueryJob
from repro.data import generate_ssb
from repro.data.tpch import generate_tpch
from repro.engine import CJOIN_SP, QPIPE_SP
from repro.engine.exchange import FifoExchange
from repro.engine.spl import SharedPagesList
from repro.query.ssb_suite import ALL_SSB_QUERIES, default_instance
from repro.server.arrivals import make_arrivals
from repro.server.config import ServiceConfig
from repro.server.router import make_policy
from repro.server.service import QueryService, job_factory
from repro.sim.machine import PAPER_MACHINE
from repro.storage.manager import StorageConfig
from repro.storage.packed import DictColumn, PackedNumeric
from repro.storage.table import Table


def digest(tables: dict[str, Table]) -> str:
    h = hashlib.sha256()
    for name in sorted(tables):
        t = tables[name]
        h.update(repr((name, t.row_weight, t.num_rows, t.tuples_per_page)).encode())
        for cd, col in zip(t.schema.columns, t.columns()):
            h.update(repr((cd.name, tuple(col))).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "generate, args, expected",
    [
        (generate_ssb, (1, 7), "883181e6d8ec4d70524300e9609402e62431aacfbead463429150a4295a87680"),
        (generate_ssb, (30, 42), "b20e33cecdf565f25d38369d6a4bb2533b2843eeff6882d7b4ef8cbbbed2c2b6"),
        (generate_tpch, (1, 42), "aeda3b5df9bca4b4822d0aa3d89a5e933e09f2908b34a367890ce5617cbdc8e7"),
        # The other benchmark workloads' databases (batch-gqp's is SF 30).
        (generate_ssb, (1.5, 42), "60a4d60403920c390721b8ea4129187b0b9ceb3a2d3c31606ff474e20f2b2423"),
        (generate_ssb, (5, 42), "985da9991b05921c3519b9d1c87385cca0ec498eabc97fcfbcaa053a121a71dc"),
        (generate_ssb, (10, 42), "a3ee4432b916f79bad122633db0e73f5f49dc46b1c0c0ea1c74fac317b1094b8"),
        (generate_tpch, (10, 42), "b1d6f30eb1aa8d09abcc78f1fff543116b99b6112d6c6004d595037911e6f4d5"),
    ],
)
def test_generated_columns_are_pinned(generate, args, expected):
    assert digest(generate(*args).tables) == expected


def test_a_run_materializes_no_page_rows():
    # Fresh pages over the SF-1 columns: no other test's reference pass
    # can have filled their row caches.
    tables = {
        name: Table.from_columns(t.name, t.schema, t.columns(), t.row_weight, t.tuples_per_page)
        for name, t in generate_ssb(1, 42).tables.items()
    }
    jobs = [QueryJob(spec=default_instance(name)) for name in sorted(ALL_SSB_QUERIES)]
    for config in (CJOIN_SP, QPIPE_SP):
        result = run_batch(tables, config, jobs)
        assert len(result.response_times) == len(jobs)
    assert not [(t.name, p.index) for t in tables.values() for p in t.pages if p._rows is not None]


def fresh_tables(sf: int, seed: int) -> dict[str, Table]:
    """The generated columns under fresh pages: no other test's run can
    have touched their page objects."""
    return {
        name: Table.from_columns(t.name, t.schema, t.columns(), t.row_weight, t.tuples_per_page)
        for name, t in generate_ssb(sf, seed).tables.items()
    }


def test_every_exchanged_batch_is_a_column_batch(monkeypatch):
    emitted: Counter = Counter()
    for exchange in (FifoExchange, SharedPagesList):

        def spy(self, batch, lead=None, _emit=exchange.emit):
            emitted[type(batch).__name__] += 1
            return _emit(self, batch, lead)

        monkeypatch.setattr(exchange, "emit", spy)
    relations: Counter = Counter()
    volcano_eval = VolcanoEngine._eval

    def eval_spy(self, node):
        result = yield from volcano_eval(self, node)
        relations[type(result).__name__] += 1
        return result

    monkeypatch.setattr(VolcanoEngine, "_eval", eval_spy)

    tables = fresh_tables(1, 42)
    jobs = [QueryJob(spec=default_instance(name)) for name in sorted(ALL_SSB_QUERIES)]
    for config in (QPIPE_SP, CJOIN_SP, POSTGRES):
        assert len(run_batch(tables, config, jobs).response_times) == len(jobs)
    assert relations == {"ColumnBatch": len(jobs)}

    # A served stream of overlapping Q3.2 ranges: both engines, cache
    # replay (exact and folded) and host folds all emit.
    service = QueryService(
        tables,
        make_policy("static", PAPER_MACHINE),
        config=ServiceConfig(),
        storage_config=StorageConfig(resident="memory", result_cache_bytes=8 << 20),
    )
    service.run(job_factory("folding:0.9", 2), make_arrivals("poisson", 8.0, 2), 4.0)
    assert set(service.metrics.routed) == {"query-centric", "gqp"}
    cache = service.storage.result_cache.stats()
    assert cache["hits"] and cache["fold_hits"]
    assert any(k.startswith("fold_attach:") for k in service.sim.metrics.counts)
    assert set(emitted) == {"ColumnBatch"}

    columns = [c for t in tables.values() for p in t.pages for c in p.to_batch().cols]
    packed = [c for c in columns if type(c) in (DictColumn, PackedNumeric)]
    assert packed
    memos = [
        (type(c).__name__, slot)
        for c in packed
        for slot in type(c).__slots__
        if isinstance(getattr(c, slot, None), list)
    ]
    assert not memos
