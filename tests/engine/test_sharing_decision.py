"""``Stage.decide`` against the admission cascade it replaced.

Before one sharing decision, ``Stage.admit`` tried four mechanisms in a
hand-ordered cascade: an exact result-cache probe, an exact WoP attach, a
fold onto a subsuming live host (``FoldPlanner`` over the registry's
index, then a second pass over the registry to count eligible hosts) and
a fold onto a subsuming cache entry (``probe_subsuming``).  That cascade
is kept here, as :func:`cascade`, reading the raw structures of the run's
provider set: each owner's hosts or entries, and the fold index.
Generated arrival streams -- random Q3.2 instances plus broad templates,
their re-issues and their narrowings, served through both engines with a
result cache small enough to evict -- are replayed with every admission
checked against it: same mechanism, same provider, same fold plan, same
number of providers charged for.  Every routing decision is checked
against the admission that follows it.
"""

from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.server.service as service_module
from repro.baselines import evaluate_plan
from repro.bench.workload import QueryJob, q32_random_workload
from repro.data import generate_ssb
from repro.engine.config import CJOIN_SP, QPIPE_SP
from repro.engine.qpipe import QPipeEngine
from repro.engine.stage import Stage
from repro.query.plan import SortNode
from repro.query.ssb_queries import SSB_NATIONS, q32
from repro.query.subsume import FoldPlan, fold_plan
from repro.server import QueryService, ServiceConfig, StaticThresholdPolicy, TraceArrivals
from repro.sim import Simulator
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.machine import MachineSpec
from repro.storage import StorageConfig, StorageManager
from tests.answers import sorted_rows

MACHINE = MachineSpec()
CACHE_MECHANISMS = ("cache_hit", "cache_fold")


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(0.2, seed=37)


# ----------------------------------------------------------------------
# The reference: the cascade as it stood, over the stage's structures.
# ----------------------------------------------------------------------
def _fold_eligible(host):
    if host.started_emitting or not host.can_attach():
        return False
    return host.exchange is not None and host.exchange.kind == "spl"


def _cheapest(node, providers, tie_break):
    """FoldPlanner: fewest residual terms, then ``tie_break``."""
    best = None
    for provider in providers:
        plan = fold_plan(node, provider.node)
        if plan is None:
            continue
        score = (plan.residual_terms,) + tie_break(provider)
        if best is None or score < best[0]:
            best = (score, provider, plan)
    return best


def proposed(stage, owner, node):
    """The providers of ``owner`` the run's fold index proposes for ``node``."""
    tokens = stage.providers._index.candidates(node)
    return [provider for held_by, provider in dict.fromkeys(tokens) if held_by is owner]


def cascade(stage, packet):
    """``(mechanism, provider, plan, examined)`` or None, as the four-step
    cascade decided it."""
    node = packet.node
    cache = stage.result_cache()
    folding = stage.engine.config.query_folding
    if cache is not None:
        entry = cache._entries.get(packet.signature)
        if entry is not None:
            return ("cache_hit", entry, FoldPlan(), 0)
    registry = stage.providers._exact.get(stage, {})
    if stage.sp_enabled:
        host = registry.get(packet.signature)
        if host is not None and host.can_attach():
            return ("wop_attach", host, FoldPlan(), 0)
    if folding and stage.sp_enabled:
        exact = registry.get(packet.signature)
        candidates = [h for h in proposed(stage, stage, node) if h is not exact and _fold_eligible(h)]
        best = _cheapest(node, candidates, lambda h: (h.packet_id,))
        if best is not None:
            examined = sum(1 for h in registry.values() if h is not exact and _fold_eligible(h))
            return ("host_fold", best[1], best[2], examined)
    if folding and cache is not None:
        exact = cache._entries.get(node.signature)
        candidates = [e for e in proposed(stage, cache, node) if e is not exact]
        best = _cheapest(node, candidates, lambda e: (e.nbytes, -e.benefit_per_byte(), e.seq))
        if best is not None:
            examined = len(cache._entries)
            if exact is not None and exact.node is not None:
                examined -= 1
            return ("cache_fold", best[1], best[2], examined)
    return None


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
#: Wide year ranges: overlapping templates, so a narrowing often has
#: several subsuming providers at once (ties, and host-vs-cache choices).
BROAD = [(1992, 1997), (1992, 1996), (1993, 1997), (1992, 1995)]


@st.composite
def streams(draw):
    """Random Q3.2 instances interleaved with broad templates, their
    re-issues and their narrowings (which fold into a template's host or
    cache entry), at drawn gaps: bursts share through the WoP, long gaps
    only through the cache."""
    n = draw(st.integers(16, 36))
    fresh = [job.spec for job in q32_random_workload(n, seed=draw(st.integers(0, 10_000)))]
    nations = st.sampled_from(SSB_NATIONS[:4])
    templates = [(draw(nations), draw(nations)) for _ in range(draw(st.integers(1, 2)))]
    specs = []
    for k in range(n):
        kind = draw(st.sampled_from(["fresh", "broad", "narrow", "narrow"]))
        if kind == "fresh":
            specs.append(fresh[k])
            continue
        customer, supplier = draw(st.sampled_from(templates))
        if kind == "broad":
            specs.append(q32(customer, supplier, *draw(st.sampled_from(BROAD))))
            continue
        lo = draw(st.integers(1993, 1996))
        specs.append(q32(customer, supplier, lo, draw(st.integers(lo, 1996))))
    gaps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.002, 0.05, 1.0, 5.0]), min_size=n, max_size=n))
    times, t = [], 0.0
    for gap in gaps:
        t += gap
        times.append(t)
    return specs, times


def check_admissions(monkeypatch):
    """Check every admission against the cascade from now on.  Returns
    the decisions seen, by mechanism (``host_fold_over_cache``: a host
    fold won while a cache fold was on offer too)."""
    seen = Counter()
    admit = Stage.admit

    def checked_admit(stage, packet):
        won = stage.decide(packet)
        assert won == cascade(stage, packet)
        seen[won.mechanism if won is not None else "computed"] += 1
        cache = stage.result_cache()
        if won is not None and won.mechanism == "host_fold" and cache is not None:
            seen["host_fold_over_cache"] += stage.providers.lookup(packet.node, None, cache, True) is not None
        return admit(stage, packet)

    monkeypatch.setattr(Stage, "admit", checked_admit)
    return seen


def serve_checked(ssb, specs, times, cache_bytes, threshold, folding, monkeypatch, shared_agg=False):
    """Serve the stream through both engines (the GQP one with shared
    aggregation when ``shared_agg``: its CJOIN stage then admits whole
    aggregates, with a host registry and the cache); check every admission
    and every routing decision.  Returns the service and the decisions
    seen."""
    seen = check_admissions(monkeypatch)
    route = service_module.cached_query_centric_plan

    def checked_route(storage, spec, query_folding):
        plan = route(storage, spec, query_folding)
        # The admission the plan would get at this instant: the root's,
        # then (a sort miss admits its child) the aggregate's.
        engine = service.query_centric
        root = spec.to_query_centric_plan(storage.tables)
        stage = engine.sort_stage if isinstance(root, SortNode) else engine.agg_stage
        probe = SimpleNamespace(node=root, signature=root.signature)
        won = stage.decide(probe)
        if won is None and isinstance(root, SortNode):
            stage = engine.agg_stage
            probe = SimpleNamespace(node=root.child, signature=root.child.signature)
            won = stage.decide(probe)
        assert won == cascade(stage, probe)
        assert (plan is not None) == (won is not None and won.mechanism in CACHE_MECHANISMS)
        return plan

    monkeypatch.setattr(service_module, "cached_query_centric_plan", checked_route)
    service = QueryService(
        ssb.tables,
        StaticThresholdPolicy(MACHINE, threshold=threshold),
        ServiceConfig(queue_capacity=len(specs)),
        MACHINE,
        storage_config=StorageConfig(resident="memory", result_cache_bytes=cache_bytes),
        qc_config=replace(QPIPE_SP, query_folding=folding),
        gqp_config=replace(CJOIN_SP, query_folding=folding, shared_aggregation=shared_agg),
    )
    jobs = [QueryJob(spec=s) for s in specs]
    service.run(jobs.__getitem__, TraceArrivals(times), None)
    monkeypatch.undo()
    return service, seen


@settings(max_examples=30, deadline=None)
@given(
    stream=streams(),
    cache_bytes=st.sampled_from([512.0, 1024.0, 2048.0, 65536.0]),
    threshold=st.sampled_from([1, 2, 4]),
    folding=st.sampled_from([True, True, False]),
    shared_agg=st.booleans(),
)
def test_decide_picks_what_the_cascade_picked(
    ssb, stream, cache_bytes, threshold, folding, shared_agg
):
    specs, times = stream
    with pytest.MonkeyPatch.context() as monkeypatch:
        service, _ = serve_checked(
            ssb, specs, times, cache_bytes, threshold, folding, monkeypatch, shared_agg
        )
    assert len(service.handles) == len(specs)


def test_a_fixed_stream_runs_every_mechanism(ssb, monkeypatch):
    """The differential check is not vacuous: one stream exercises all
    four mechanisms and evicts from the cache."""
    broad = q32("CHINA", "FRANCE", 1992, 1997)
    narrow = [q32("CHINA", "FRANCE", lo, hi) for lo, hi in ((1993, 1996), (1994, 1995), (1992, 1994))]
    fresh = [job.spec for job in q32_random_workload(12, seed=3)]
    specs = [broad, broad, narrow[0]] + fresh[:6] + [broad, narrow[1], narrow[2]] + fresh[6:]
    times = [0.0, 0.001, 0.002] + [20.0 + 0.5 * k for k in range(6)]
    times += [60.0, 60.001, 80.0] + [100.0 + 0.004 * k for k in range(6)]
    service, seen = serve_checked(ssb, specs, times, 1024.0, 4, True, monkeypatch)
    assert set(seen) >= {"cache_hit", "wop_attach", "host_fold", "cache_fold", "computed"}, seen
    assert service.sim.metrics.counts.get("result_cache_evictions", 0) > 0


def test_a_live_host_fold_outranks_a_cache_fold(ssb, monkeypatch):
    """At a CJOIN stage under shared aggregation both providers can serve
    one packet: the narrowing below folds onto the in-flight host, not the
    cached entry of an earlier query."""
    seen = check_admissions(monkeypatch)
    sim = Simulator(MACHINE)
    storage = StorageManager(
        sim,
        DEFAULT_COST_MODEL,
        ssb.tables,
        StorageConfig(resident="memory", result_cache_bytes=1 << 20),
    )
    engine = QPipeEngine(sim, storage, replace(CJOIN_SP, shared_aggregation=True))
    engine.submit(q32("CHINA", "FRANCE", 1992, 1995))
    sim.run()
    engine.submit(q32("CHINA", "FRANCE", 1994, 1997))  # neither subsumes the other
    narrow = q32("CHINA", "FRANCE", 1994, 1995)
    handle = engine.submit(narrow)
    sim.run()
    assert seen["host_fold_over_cache"] == 1, seen
    assert sorted_rows(handle.results) == sorted_rows(evaluate_plan(narrow.to_query_centric_plan(ssb.tables)))
