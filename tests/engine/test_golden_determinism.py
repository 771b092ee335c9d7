"""Golden determinism: simulated behavior is pinned, tick for tick.

A committed snapshot (``golden_metrics.json``) holds, for a seeded SSB
workload on every engine configuration, the complete ``Metrics.to_dict()``
view, the final simulated clock and every per-query response time, compared
*bitwise* (``==`` on floats, no tolerance).  It is the sole tick-level
reference: any change to simulated behavior -- intended or not -- shows up
as a diff of that file, which must then be regenerated deliberately
(``python tests/engine/test_golden_determinism.py``) and reviewed.

Query folding deliberately changes simulated timing, so the snapshot is
taken fold-off and the fold tests below assert what folding must preserve:
bit-identical query *results*."""

import json
import pathlib
from dataclasses import replace

import pytest

from repro.data import generate_ssb
from repro.engine import CJOIN, CJOIN_SP, QPIPE_SP, QPipeEngine
from repro.baselines import VolcanoEngine
from repro.query.ssb_queries import random_q32
from repro.data.rng import make_rng
from repro.sim import Simulator
from repro.sim.machine import MachineSpec
from repro.storage import StorageConfig, StorageManager
from repro.sim.costmodel import DEFAULT_COST_MODEL

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_metrics.json")

MACHINE = MachineSpec(cores=8, hz=1.86e9)
CONFIGS = {
    "QPipe-SP": QPIPE_SP,
    "CJOIN": CJOIN,
    "CJOIN-SP": CJOIN_SP,
    "Postgres": "postgres",
}


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(0.5, seed=21)


def _make_engine(sim, storage, config_key: str, fold: bool):
    config = CONFIGS[config_key]
    if config == "postgres":
        return VolcanoEngine(sim, storage)
    return QPipeEngine(sim, storage, replace(config, query_folding=fold))


def run_mix(ssb, config_key: str) -> dict:
    """One seeded 6-query Q3.2 mix on the reference (fold-off) timing
    plane; returns a JSON-safe measurement dict."""
    sim = Simulator(MACHINE)
    storage = StorageManager(
        sim, DEFAULT_COST_MODEL, ssb.tables, StorageConfig(resident="memory")
    )
    engine = _make_engine(sim, storage, config_key, fold=False)
    rng = make_rng(77, "golden", config_key)
    handles = [engine.submit(random_q32(rng)) for _ in range(6)]
    sim.run()
    times = sorted(h.response_time for h in handles)
    n = len(times)
    return {
        "sim_now": sim.now,
        "response_times": [h.response_time for h in handles],
        "p50": times[int(0.50 * (n - 1))],
        "p95": times[int(0.95 * (n - 1))],
        "p99": times[int(0.99 * (n - 1))],
        "metrics": sim.metrics.to_dict(),
    }


# ---------------------------------------------------------------------------
# Query folding (subsumption lattice)
# ---------------------------------------------------------------------------
# Folding deliberately CHANGES simulated timing -- a folded satellite reads
# the host's stream instead of running its own sub-plan -- so the invariant
# here is that query *results* are bit-identical fold-on vs fold-off, while
# fold-OFF metrics stay pinned by the committed snapshot.


def _result_fingerprint(rows) -> str:
    import hashlib

    h = hashlib.sha256()
    for r in rows:
        h.update(repr(r).encode())
        h.update(b"\n")
    return h.hexdigest()


def _fold_mix_jobs():
    """An overlap-heavy Q3.2 mix: two broad templates, each followed by
    strictly narrower instances a fold can serve, plus random ad-hoc
    queries (arrival order broad-first so hosts exist when the narrow
    satellites are admitted)."""
    from repro.query.ssb_queries import q32

    rng = make_rng(31, "golden-fold")
    jobs = [
        q32("CHINA", "FRANCE", 1992, 1997),
        q32("CHINA", "FRANCE", 1993, 1996),
        q32("CHINA", "FRANCE", 1994, 1995),
        q32("INDIA", "RUSSIA", 1992, 1997),
        q32("INDIA", "RUSSIA", 1995, 1997),
        random_q32(rng),
        random_q32(rng),
        q32("CHINA", "FRANCE", 1993, 1993),
    ]
    return jobs


def _run_fold_mix(ssb, config_key: str, fold: bool):
    """Run the overlap mix with a small submit stagger; returns per-query
    result fingerprints plus the fold counters that fired."""
    from repro.sim.commands import SLEEP
    from repro.storage.manager import StorageConfig as SC

    sim = Simulator(MACHINE)
    storage = StorageManager(
        sim,
        DEFAULT_COST_MODEL,
        ssb.tables,
        SC(resident="memory", result_cache_bytes=32.0),
    )
    engine = _make_engine(sim, storage, config_key, fold)
    jobs = _fold_mix_jobs()
    handles = []

    def submitter():
        for i, spec in enumerate(jobs):
            handles.append(engine.submit(spec))
            if i + 1 < len(jobs):
                yield SLEEP(0.001)

    sim.spawn(submitter(), "submitter")
    sim.run()
    folds = {
        k: v for k, v in sim.metrics.counts.items() if k.startswith("fold_")
    }
    return [_result_fingerprint(h.results) for h in handles], folds


@pytest.mark.parametrize("config_key", list(CONFIGS), ids=list(CONFIGS))
def test_query_folding_results_bit_identical(ssb, config_key):
    """Folded execution must be invisible in query *results*: every
    query's rows fingerprint identically fold-on vs fold-off (the residual
    filter / roll-up is exact and order-preserving, and integer-valued SSB
    measures make re-summed aggregates exact)."""
    off, _ = _run_fold_mix(ssb, config_key, fold=False)
    on, _ = _run_fold_mix(ssb, config_key, fold=True)
    assert on == off


def test_query_folding_fires_on_overlap(ssb):
    """The overlap mix must actually exercise the fold path (otherwise the
    bit-identity test above proves nothing)."""
    _, off_folds = _run_fold_mix(ssb, "QPipe-SP", fold=False)
    _, on_folds = _run_fold_mix(ssb, "QPipe-SP", fold=True)
    assert not off_folds, f"fold counters must stay zero fold-off: {off_folds}"
    assert sum(on_folds.values()) > 0, "no fold fired on the overlap mix"


@pytest.mark.parametrize("mode", ["hash", "range"])
def test_shard_fingerprints_identical_fold_vs_naive(ssb, mode, monkeypatch):
    """A shard engine (one query per fresh simulator) must produce
    identical partial-aggregate state and identical simulated service time
    with ``query_folding`` on or off, for either placement mode."""
    from repro.parallel.cells import DatasetSpec
    from repro.query.ssb_queries import q32
    from repro.shard.partition import shard_tables
    from repro.shard.spec import SHARD_ENGINES, ShardConfig
    from repro.shard.worker import execute_shard_query

    spec = q32("CHINA", "FRANCE", 1993, 1996)
    config = ShardConfig(n_shards=2, dataset=DatasetSpec("ssb", 0.5, 21))
    outcomes = []
    for fold in (False, True):
        monkeypatch.setitem(
            SHARD_ENGINES, config.engine, replace(CJOIN_SP, query_folding=fold)
        )
        per_shard = []
        for shard in range(2):
            view = shard_tables(ssb.tables, "lineorder", shard, 2, mode, 21)
            per_shard.append(execute_shard_query(view, spec, config))
        outcomes.append(per_shard)
    assert outcomes[0] == outcomes[1]  # bitwise: == on floats


def _jsonify(measured: dict) -> dict:
    """Round-trip through JSON so committed and in-memory forms compare
    equal (JSON has no tuples / int-vs-float distinctions to preserve)."""
    return json.loads(json.dumps(measured, sort_keys=True))


def test_matches_committed_golden_snapshot(ssb):
    assert GOLDEN_PATH.exists(), (
        "golden_metrics.json missing; regenerate with "
        "'PYTHONPATH=src python tests/engine/test_golden_determinism.py'"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    measured = {
        key: _jsonify(run_mix(ssb, key)) for key in CONFIGS
    }
    assert measured == golden


if __name__ == "__main__":  # regenerate the snapshot
    data = generate_ssb(0.5, seed=21)
    snapshot = {
        key: _jsonify(run_mix(data, key)) for key in CONFIGS
    }
    GOLDEN_PATH.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
