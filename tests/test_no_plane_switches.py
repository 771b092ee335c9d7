"""Guard: a run's simulated result is a function of (config, seed, data).

Pins ROADMAP item 2's exit condition -- no execution-plane value reaches
the engines from the environment or from module state, there is one
selection kernel, one page layout, one dimension-selection memo, one
router, one aggregation kernel, one fluid pool and one worker-process
layer -- so a later change cannot quietly re-add a second way of doing the
same thing."""

import ast
import dataclasses
import inspect
import pathlib
import re

import pytest

import repro
from repro import storage
from repro.bench.runner import HYBRID
from repro.engine.config import EngineConfig
from repro.parallel import CellSpec, DatasetSpec, WorkloadSpec
from repro.query import expr
from repro.sim import Simulator
from repro.storage.schema import Column, Schema
from repro.storage.table import Table
from tests.boxed import boxed_layout

SRC = pathlib.Path(repro.__file__).parent

#: operational settings (worker count, progress lines, cell timeout): they
#: change how a sweep is *run*, never what it computes
ALLOWED_ENV = {"REPRO_JOBS", "REPRO_PROGRESS", "REPRO_CELL_TIMEOUT"}


def test_no_execution_plane_switches():
    env_names = {
        (path.relative_to(SRC).as_posix(), name)
        for path in SRC.rglob("*.py")
        for name in re.findall(r"REPRO_[A-Z_]+", path.read_text())
        if name not in ALLOWED_ENV
    }
    assert not env_names
    assert not (SRC / "sim" / "fastpath.py").exists()
    # A ``None`` default is how "ask a process-wide default" crept in.
    deferred = [f.name for f in dataclasses.fields(EngineConfig) if f.default is None]
    assert not deferred


def test_one_selection_kernel_one_page_layout():
    # Predicate nodes describe themselves (``leaf`` / ``compile``); the
    # bitmap / positions / row forms are derived in compile_selection.
    per_node = [
        (name, method)
        for name, cls in inspect.getmembers(expr, inspect.isclass)
        for method in ("compile_batch", "compile_cols", "compile_mask")
        if hasattr(cls, method)
    ]
    assert not per_node
    # However a table is built, its pages store column vectors and derive
    # rows from them.
    schema = Schema([Column("k"), Column("tag", "str")])
    rows = [(i, "ab"[i % 2]) for i in range(150)]
    cols = [list(c) for c in zip(*rows)]
    with boxed_layout():
        boxed = (Table("t", schema, rows), Table.from_columns("t", schema, cols))
    for table in (Table("t", schema, rows), Table.from_columns("t", schema, cols), *boxed):
        assert table.num_pages == 3
        for page in table.pages:
            assert "columns" in page.__slots__ and len(page.columns) == 2
            assert page._rows is None  # rows are derived on demand
        assert list(table.iter_rows()) == rows
    for table in boxed:
        assert all(type(c) is list for page in table.pages for c in page.columns)


def test_one_dimension_selection_memo():
    # "Rows of dimension T passing predicate P" has one memo (the storage
    # manager's SelectionMemo), one subsumption walk, one invalidation
    # path; the per-predicate forks must not come back under their names.
    sources = {p.relative_to(SRC).as_posix(): p.read_text() for p in SRC.rglob("*.py")}
    gone = (
        "_dim_sel_cache",
        "_single_memo",
        "_keys_memo",
        "_range_memo",
        "range_positions",
        "offer_single_view",
        "split_range",
        "invalidation_listeners",
    )
    leftovers = [(path, name) for path, text in sources.items() for name in gone if name in text]
    assert not leftovers
    walkers = [
        path
        for path, text in sources.items()
        if path != "query/subsume.py" and re.search(r"\bpredicate_subsumes\(", text)
    ]
    assert walkers == ["storage/selections.py"]
    # What the frozen benchmark adapter reads (it aborts otherwise).
    assert "ARRANGEMENTS" in storage.__all__
    assert set(storage.ARRANGEMENTS.stats()) >= {"builds", "hits"}


def test_one_router():
    # The Hybrid configuration is QueryService under the static policy:
    # a route -- the cache discount, then the policy -- is decided in
    # server/service.py and nowhere else.
    assert not (SRC / "engine" / "hybrid.py").exists()
    deciders = []
    for path in SRC.rglob("*.py"):
        rel = path.relative_to(SRC).as_posix()
        if rel == "server/service.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("cached_query_centric_plan", "choose"):
                deciders.append((rel, node.lineno, name))
    assert not deciders
    # Closed-loop Hybrid has no runner: no second place to route from.
    with pytest.raises(ValueError, match="Hybrid"):
        CellSpec(
            key="x",
            config=HYBRID,
            dataset=DatasetSpec("ssb", sf=0.2),
            workload=WorkloadSpec("mix-factory"),
            mode="closed",
            n_clients=1,
            duration=1.0,
        )


def test_one_aggregation_kernel():
    # Every engine folds weighted rows into group accumulators through
    # engine/stages/aggregate.py; the reference evaluator shares no code
    # with any engine, so only the package export may import it.
    importers, accumulators = [], []
    for path in SRC.rglob("*.py"):
        rel = path.relative_to(SRC).as_posix()
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if "repro.baselines.reference" in names and rel != "baselines/__init__.py":
                importers.append((rel, node.lineno))
        if "_Accumulator" in text and rel != "engine/stages/aggregate.py":
            accumulators.append(rel)
    assert not importers
    assert not accumulators


def test_one_fluid_pool():
    # The CPU and the disk are one pool class with two rate functions;
    # the simulator inlines the pool arithmetic, and the reference model
    # it is held to lives in tests/sim/refpool.py.
    sim = Simulator()
    assert sim._pools == (sim.cpu, sim.disk)
    assert type(sim.cpu) is type(sim.disk)
    reference = []
    for path in (SRC / "sim").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in (
                "add",
                "next_completion",
                "pop_completed",
            ):
                reference.append((path.relative_to(SRC).as_posix(), node.name))
    assert not reference


def test_one_worker_process_layer():
    # Sweep cells and shard workers both run on repro/parallel/workers.py's
    # WorkerHandle; no module brings back an executor pool.
    importers = []
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[0] == "concurrent" for name in names):
                importers.append((path.relative_to(SRC).as_posix(), node.lineno))
    assert not importers
