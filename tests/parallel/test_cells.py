"""Cell-level determinism: the fabric's core guarantee.

``jobs=N`` must reproduce ``jobs=1`` byte for byte, and a cell's result
must not depend on where in the sweep it ran.  These tests execute real
(small) simulations, so they are the slowest in the fabric suite.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.bench.experiments import fig10_concurrency
from repro.bench.export import experiment_to_json
from repro.bench.workload import (
    q32_limited_plans_workload,
    q32_random_workload,
    q32_selectivity_workload,
    ssb_mix_workload,
)
from repro.data import generate_ssb
from repro.engine.config import CJOIN_SP
from repro.parallel import (
    CellSpec,
    DatasetSpec,
    WorkloadSpec,
    run_cells,
)


def _specs(n_cells: int = 3) -> list[CellSpec]:
    """A small real sweep: one cell per concurrency level."""
    return [
        CellSpec(
            key=f"n{n}",
            config=CJOIN_SP,
            dataset=DatasetSpec("ssb", sf=0.5, seed=42),
            workload=WorkloadSpec("q32-random", n=n, seed=42),
        )
        for n in (1, 2, 4)[:n_cells]
    ]


def _fingerprint(outcome, keys):
    return {
        key: (
            outcome.cell(key).response_times,
            outcome.cell(key).sim_seconds,
            outcome.cell(key).cpu_breakdown,
        )
        for key in keys
    }


def test_parallel_equals_serial_fig10_slice():
    """Tentpole acceptance check, in miniature: the same figure sweep at
    ``jobs=1`` and ``jobs=4`` serializes to identical bytes."""
    kwargs = dict(concurrency=(1, 2), sf=0.5, resident=("memory",))
    serial = fig10_concurrency(jobs=1, **kwargs)
    parallel = fig10_concurrency(jobs=4, **kwargs)
    assert experiment_to_json(serial) == experiment_to_json(parallel)
    # Host attribution differs (workers, wall clock) but is excluded from
    # the default artifact; the effective worker counts are still recorded.
    assert serial.timings["jobs"] == 1
    assert parallel.timings["jobs"] > 1


def test_cell_order_permutation_is_a_noop():
    """Seed-derivation audit regression: permuting cell submission order
    must not change any cell's result -- no RNG stream is shared between
    cells."""
    forward = run_cells(_specs(), jobs=1)
    backward = run_cells(list(reversed(_specs())), jobs=1)
    keys = [s.key for s in _specs()]
    assert _fingerprint(forward, keys) == _fingerprint(backward, keys)
    # ... and ordering only affects the merge order, not the contents.
    assert list(forward.results) == keys
    assert list(backward.results) == list(reversed(keys))


def test_workload_specs_match_generators():
    """WorkloadSpec.build regenerates exactly what the serial loops built
    by calling the generators directly."""
    ds = generate_ssb(0.5, 42)
    cases = [
        (WorkloadSpec("q32-random", n=6, seed=7), q32_random_workload(6, 7)),
        (
            WorkloadSpec("q32-plans", n=6, seed=7, n_plans=2),
            q32_limited_plans_workload(6, 2, 7),
        ),
        (
            WorkloadSpec("q32-selectivity", n=4, seed=7, selectivity=0.05),
            q32_selectivity_workload(4, 0.05, 7),
        ),
        (WorkloadSpec("ssb-mix", n=5, seed=7), ssb_mix_workload(5, 7)),
    ]
    for spec, expected in cases:
        assert spec.build(ds) == expected


def test_fold_context_at_enumeration_reaches_worker():
    """The fold setting rides in the cell's ``EngineConfig`` and nowhere
    else: a fold-off cell gives the identical ``RunResult`` in the parent
    (``jobs=1``) and in a pool worker (``jobs=2``), and a different
    simulated time from its fold-on twin once a fold fires."""

    def spec(fold: bool) -> CellSpec:
        return CellSpec(
            key=f"fold={fold}",
            config=replace(CJOIN_SP, query_folding=fold),
            dataset=DatasetSpec("ssb", sf=0.5, seed=42),
            workload=WorkloadSpec("q32-random", n=16, seed=42),
        )

    on, off = spec(True), spec(False)
    serial = run_cells([on, off], jobs=1)
    parallel = run_cells([on, off], jobs=2)
    assert serial.cell(off.key) == parallel.cell(off.key)
    assert serial.cell(on.key) == parallel.cell(on.key)
    assert any(k.startswith("fold_attach") for k in serial.cell(on.key).counts)
    assert not [k for k in serial.cell(off.key).counts if "fold" in k]
    assert serial.cell(on.key).sim_seconds != serial.cell(off.key).sim_seconds


def test_bad_specs_rejected():
    with pytest.raises(ValueError, match="dataset kind"):
        DatasetSpec("parquet")
    with pytest.raises(ValueError, match="workload kind"):
        WorkloadSpec("nosuch")
    with pytest.raises(ValueError, match="cell mode"):
        CellSpec(
            key="x",
            config=CJOIN_SP,
            dataset=DatasetSpec("ssb", sf=0.5),
            workload=WorkloadSpec("q32-random", n=1),
            mode="open",
        )
    with pytest.raises(ValueError, match="n_clients"):
        CellSpec(
            key="x",
            config=CJOIN_SP,
            dataset=DatasetSpec("ssb", sf=0.5),
            workload=WorkloadSpec("mix-factory"),
            mode="closed",
        )
