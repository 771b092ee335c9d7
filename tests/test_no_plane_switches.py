"""Guard: a run's simulated result is a function of (config, seed, data).

Pins ROADMAP item 2's exit condition -- no execution-plane value reaches
the engines from the environment or from module state, there is one
selection kernel, one page layout, one batch type, one dimension-selection
memo, one router, one sharing decision over one provider set, one
aggregation kernel, one fluid
pool, one worker-process layer, one cost-model owner and one holder per
run counter -- so a later change cannot quietly re-add a second way of
doing the same thing."""

import ast
import dataclasses
import inspect
import pathlib
import re

import pytest

import repro
from repro import storage
from repro.bench.runner import HYBRID
from repro.bench.workload import QueryJob
from repro.cache import ResultCache
from repro.data import generate_ssb
from repro.engine import QPipeEngine
from repro.engine.config import EngineConfig
from repro.engine.exchange import FifoExchange
from repro.engine.qpipe import QueryHandle
from repro.engine.spl import SharedPagesList
from repro.parallel import CellSpec, DatasetSpec, WorkloadSpec
from repro.query import expr
from repro.query.ssb_queries import q32
from repro.query.subsume import FoldIndex, ProviderSet
from repro.server import QueryService, ServiceConfig, StaticThresholdPolicy, TraceArrivals
from repro.server.metrics import ServiceMetrics
from repro.server.router import GQP, QUERY_CENTRIC
from repro.shard.metrics import ShardServiceMetrics
from repro.sim import CostModel, Simulator
from repro.sim.machine import PAPER_MACHINE
from repro.sim.sync import Lock
from repro.storage import StorageConfig, StorageManager
from repro.storage.packed import DictColumn
from repro.storage.page import ColumnBatch, ColumnPage
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
    # bitmap / positions / oracle forms are derived in compile_selection,
    # the one public selection compile function.
    per_node = [
        (name, method)
        for name, cls in inspect.getmembers(expr, inspect.isclass)
        for method in ("compile_batch", "compile_cols", "compile_mask")
        if hasattr(cls, method)
    ]
    assert not per_node
    compilers = [
        name
        for name, fn in inspect.getmembers(expr, inspect.isfunction)
        if fn.__module__ == expr.__name__ and name.startswith("compile")
    ]
    assert compilers == ["compile_selection"]
    # However a table is built, its pages are one form: a row range of the
    # table's own column tuple, read at table positions.  A page stores no
    # vector and slices none, and no column slice remembers where it came
    # from.
    assert not hasattr(ColumnPage, "columns") and not hasattr(ColumnBatch, "take_mask")
    assert not {"base", "start"} & set(DictColumn.__slots__)
    schema = Schema([Column("k"), Column("tag", "str")])
    rows = [(i, "ab"[i % 2]) for i in range(150)]
    cols = [list(c) for c in zip(*rows)]
    with boxed_layout():
        boxed = (Table("t", schema, rows), Table.from_columns("t", schema, cols))
    for table in (Table("t", schema, rows), Table.from_columns("t", schema, cols), *boxed):
        assert table.num_pages == 3
        for page in table.pages:
            assert type(page) is ColumnPage and page.vectors is table.columns()
            batch = page.to_batch()
            assert batch.cols is table.columns() and batch.sel == range(page.start, page.stop)
            assert page._rows is None  # rows are derived on demand
        assert [(p.start, p.stop) for p in table.pages] == [(0, 64), (64, 128), (128, 150)]
        assert list(table.iter_rows()) == rows
    for table in boxed:
        assert all(type(c) is list for c in table.columns())


def test_one_batch_type():
    # Every operator emits ColumnBatch: no second batch class, no branch
    # on the batch layout, and no decoded copy memoized on a column.
    classes, branches, memos = [], [], []
    for path in SRC.rglob("*.py"):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and "Batch" in node.name:
                classes.append((rel, node.name))
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "isinstance" and "ColumnBatch" in ast.unparse(node.args[1]):
                    branches.append((rel, node.lineno))
                if name in ("Batch", "as_list"):
                    branches.append((rel, node.lineno))
            if isinstance(node, ast.Constant):
                ident = node.value  # a ``__slots__`` entry
            else:  # an attribute, a name, an import, a definition
                ident = next(
                    (getattr(node, f) for f in ("attr", "id", "name") if hasattr(node, f)), None
                )
            if ident in ("_list", "as_list"):
                memos.append((rel, node.lineno))
    assert classes == [("storage/page.py", "ColumnBatch")]
    assert not branches
    assert not memos


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


def test_one_sharing_decision():
    # Whether a packet is served by a cache entry or a live host, exactly
    # or through a fold, is decided in Stage.decide; the router asks the
    # provider set the same lookup.  No other caller, and none of the
    # cascade's per-mechanism searches may come back.
    allowed = {
        ("engine/stage.py", "decide"),
        ("cache/result_cache.py", "cached_query_centric_plan"),
    }
    gone = (
        "_try_fold_host",
        "_try_fold_cached",
        "probe_subsuming",
        "has_subsuming",
        "contains_any",
        "FoldPlanner",
    )
    callers, leftovers = [], []
    for path in SRC.rglob("*.py"):
        rel = path.relative_to(SRC).as_posix()
        text = path.read_text()
        leftovers += [(rel, name) for name in gone if name in text]
        tree = ast.parse(text)
        spans = [
            (f.lineno, f.end_lineno)
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and (rel, f.name) in allowed
        ]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "lookup" and not any(a <= node.lineno <= b for a, b in spans):
                callers.append((rel, node.lineno))
    assert not callers
    assert not leftovers


def test_one_provider_set(monkeypatch):
    # Every WoP host of every stage of both engines and every result-cache
    # entry sit in the storage manager's one ProviderSet: a run builds one
    # FoldIndex, no stage keeps a registry or an index of its own, and the
    # cache has no index or lookup beside the set's.
    built = []
    init = FoldIndex.__init__
    monkeypatch.setattr(FoldIndex, "__init__", lambda index: built.append(index) or init(index))
    ssb = generate_ssb(0.5, seed=23)
    broad, narrow = q32("CHINA", "FRANCE", 1992, 1997), q32("CHINA", "FRANCE", 1993, 1995)
    specs = [broad, narrow, q32("JAPAN", "BRAZIL", 1992, 1995), narrow, broad]
    service = QueryService(
        ssb.tables,
        StaticThresholdPolicy(PAPER_MACHINE, threshold=1),
        ServiceConfig(queue_capacity=len(specs)),
        storage_config=StorageConfig(resident="memory", result_cache_bytes=32 << 20),
    )
    arrivals = TraceArrivals([0.0, 0.0, 0.0, 100.0, 100.0])
    service.run(lambda k: QueryJob(spec=specs[k]), arrivals, None)
    assert service.query_centric.config.query_folding and service.gqp.config.query_folding
    counts = service.sim.metrics.counts
    assert counts.get("result_cache_fold_hits", 0) + counts.get("result_cache_hits", 0) > 0
    assert len(built) == 1
    stages = [service.gqp.cjoin_stage]
    for engine in (service.query_centric, service.gqp):
        stages += [engine.scan_stage, engine.join_stage, engine.agg_stage, engine.sort_stage]
    for stage in stages:
        assert stage.providers is service.storage.providers
        assert not hasattr(stage, "_fold_index") and not hasattr(stage, "_registry")
        assert not any(isinstance(value, FoldIndex) for value in vars(stage).values())
    cache = service.storage.result_cache
    assert not hasattr(cache, "_fold_index") and not hasattr(cache, "lookup")
    sites = []
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "FoldIndex":
                sites.append((path.relative_to(SRC).as_posix(), node.lineno))
    assert len(sites) == 1, sites


def test_one_aggregation_kernel():
    # Every engine folds weighted rows into groups through
    # engine/stages/aggregate.py's GroupTable, where a group is one slot
    # list (no accumulator class) and the result is built as columns (no
    # module-level finalize, no row-to-column transpose); the reference
    # evaluator shares no code with any engine, so only the package export
    # may import it.
    importers, accumulators, transposes = [], [], []
    for path in SRC.rglob("*.py"):
        rel = path.relative_to(SRC).as_posix()
        text = path.read_text()
        tree = ast.parse(text)
        if rel == "engine/stages/aggregate.py":
            kernel = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
            assert "GroupTable" in kernel
            assert not kernel & {"accumulate", "compile_values", "finalize", "_final"}
        if "from_rows" in text:
            transposes.append(rel)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if "repro.baselines.reference" in names and rel != "baselines/__init__.py":
                importers.append((rel, node.lineno))
        if "_Accumulator" in text:
            accumulators.append(rel)
    assert not importers
    assert not accumulators
    assert not transposes


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


def _parameters(tree: ast.Module):
    """``(qualified function name, parameter)`` for every parameter of every
    function in ``tree``."""
    stack = [(node, "") for node in tree.body]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, ast.ClassDef):
            stack.extend((child, f"{prefix}{node.name}.") for child in node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + node.name
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if arg is not None:
                    yield name, arg
            stack.extend((child, f"{name}.") for child in node.body)


def test_one_cost_model_owner():
    # Simulator(machine, cost) owns a run's one cost model and every layer
    # reads sim.cost: no other constructor or function takes one.  The one
    # exception is StorageManager's positional ``cost``, a checked alias
    # kept for the frozen benchmark adapter's call; ROADMAP item 8(d)
    # deletes it together with that call.
    allowed = {
        ("sim/engine.py", "Simulator.__init__"),
        ("storage/manager.py", "StorageManager.__init__"),
    }
    takers, named = [], []
    for path in SRC.rglob("*.py"):
        rel = path.relative_to(SRC).as_posix()
        text = path.read_text()
        tree = ast.parse(text)
        for name, arg in _parameters(tree):
            annotation = ast.unparse(arg.annotation) if arg.annotation is not None else ""
            if (arg.arg == "cost" or "CostModel" in annotation) and (rel, name) not in allowed:
                takers.append((rel, name, arg.arg))
        count = text.count("DEFAULT_COST_MODEL")
        if rel == "__init__.py":  # the package docstring's usage example
            count -= (ast.get_docstring(tree) or "").count("DEFAULT_COST_MODEL")
        if count and rel not in ("sim/costmodel.py", "sim/engine.py"):
            named.append(rel)
    assert not takers
    assert not named


def test_storage_cost_alias_is_the_simulators_model():
    sim = Simulator()
    StorageManager(sim, CostModel(), {})  # equal to sim.cost: accepted
    with pytest.raises(ValueError, match="sim.cost"):
        StorageManager(sim, dataclasses.replace(sim.cost, scan_tuple=1.0), {})
    recalibrated = Simulator(cost=dataclasses.replace(sim.cost, scan_tuple=1.0))
    storage = StorageManager(recalibrated, recalibrated.cost, {})
    assert storage.bufferpool._page_charge is recalibrated.cost.bufferpool_lookup_charge
    assert QPipeEngine(recalibrated, storage).cost is recalibrated.cost


def test_one_holder_per_count():
    # Every run counter lives in sim.metrics alone: no component keeps a
    # second copy that could disagree with it, and ResultCache.stats() is
    # a view over the tree, not a holder.
    ssb = generate_ssb(0.5, seed=23)
    a, b = q32("CHINA", "FRANCE", 1993, 1996), q32("JAPAN", "BRAZIL", 1992, 1995)
    specs = [a, b, a, b]
    service = QueryService(
        ssb.tables,
        # Threshold 1: the second of two concurrent arrivals goes to the GQP.
        StaticThresholdPolicy(PAPER_MACHINE, threshold=1),
        ServiceConfig(queue_capacity=len(specs)),
        storage_config=StorageConfig(resident="memory", result_cache_bytes=32 << 20),
    )
    arrivals = TraceArrivals([0.0, 0.0, 100.0, 100.0])
    service.run(lambda k: QueryJob(spec=specs[k]), arrivals, None)
    assert set(service.metrics.routed) == {QUERY_CENTRIC, GQP}
    cache = service.storage.result_cache
    counts = service.sim.metrics.counts
    stats = cache.stats()
    assert stats["hits"] > 0 and stats["insertions"] > 0
    cache_counters = ("hits", "misses", "insertions", "evictions", "rejected", "invalidated", "fold_hits")
    assert {name: stats[name] for name in cache_counters} == {
        name: counts.get(f"result_cache_{name}", 0) for name in cache_counters
    }

    sim = service.sim
    stage_counters = ("packets_admitted", "packets_shared", "packets_cached")
    shadows = [
        (cache, cache_counters),
        (service.storage.bufferpool, ("hits", "misses")),
        (service.storage.os_cache, ("hits", "misses")),
        (FifoExchange(sim, 1, "fifo"), ("pages_emitted",)),
        (SharedPagesList(sim, 1), ("pages_emitted",)),
        (Lock(sim), ("acquisitions", "contentions")),
    ]
    for engine in (service.query_centric, service.gqp):
        shadows.append((engine, ("sharing_summary",)))
        for stage in (engine.scan_stage, engine.join_stage, engine.agg_stage, engine.sort_stage):
            shadows.append((stage, stage_counters))
    shadows.append((service.gqp.cjoin_stage, stage_counters))
    kept = [(type(obj).__name__, name) for obj, names in shadows for name in names if hasattr(obj, name)]
    assert not kept
    # A count that is the length of a list the metrics keep is read from it.
    assert isinstance(inspect.getattr_static(ServiceMetrics, "completed"), property)
    assert isinstance(inspect.getattr_static(ShardServiceMetrics, "failed"), property)
    assert service.metrics.completed == len(service.metrics.latencies) == len(specs)
    # One client loop: a query's answer is its rows, nothing collected beside.
    assert "batches" not in {f.name for f in dataclasses.fields(QueryHandle)}
    assert "collect_batches" not in inspect.signature(QPipeEngine.submit_plan).parameters

    # A view inserts no key: counts is a defaultdict, so a reader that
    # indexed it would add the counter (golden_metrics.json pins the keys).
    fresh = Simulator()
    before = fresh.metrics.to_dict()
    assert ResultCache(fresh, ProviderSet(), 1000.0).stats()["hits"] == 0
    assert fresh.metrics.to_dict() == before
