"""The generated data is pinned, and a run reads it as columns only.

* **Digest** -- a sha256 over every column of three generated databases.
  The generators build column vectors directly (no row tuples); these
  digests are the ones the row-built generators produced, so the draw
  order and every value (type and sign included, via ``repr``) are held.
* **No row view** -- after a CJOIN-SP batch and a QPipe-SP batch over
  every SSB query, no page of any table has materialized row tuples:
  rows are a view for the reference evaluator only.
"""

import hashlib

import pytest

from repro.bench.runner import run_batch
from repro.bench.workload import QueryJob
from repro.data import generate_ssb
from repro.data.tpch import generate_tpch
from repro.engine import CJOIN_SP, QPIPE_SP
from repro.query.ssb_suite import ALL_SSB_QUERIES, default_instance
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
