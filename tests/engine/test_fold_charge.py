"""What ``fold_search`` charges a fold for: the scope of ``examined``.

A host fold pays for the fold-eligible hosts of the *deciding stage*
only -- not another stage's, not the other engine's -- and a cache fold
for every resident entry.  This is the one count a merged search
structure could silently widen (and so move simulated time), so it is
pinned here over one storage manager shared by the two engines of a
:class:`~repro.server.QueryService`, with live hosts in the join and
CJOIN stages of both engines and several cache entries.  The expected
counts come from a model of which hosts each stage registered, kept by
wrapping ``Stage.admit`` / ``Stage.unregister``; the charges are read
off ``CostModel.fold_search``.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.data import generate_ssb
from repro.engine.config import CJOIN_SP
from repro.engine.stage import Stage
from repro.query.ssb_queries import q32
from repro.server import QueryService, ServiceConfig, StaticThresholdPolicy
from repro.sim.costmodel import CostModel
from repro.sim.machine import MachineSpec
from repro.storage import StorageConfig

MACHINE = MachineSpec()
#: Both engines share through SP in their join and CJOIN stages.
SHARING = replace(CJOIN_SP, sp_join=True)


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(0.2, seed=37)


def eligible(host):
    if host.started_emitting or not host.can_attach():
        return False
    return host.exchange is not None and host.exchange.kind == "spl"


def test_fold_search_charges_the_deciding_owners_providers(ssb, monkeypatch):
    registered = {}  # (stage, signature) -> the stage's host
    decisions = []  # (mechanism, examined, expected, eligible hosts elsewhere)
    live = set()  # (engine, stage) pairs holding an eligible host at a fold
    charges = []
    admit, unregister, fold_search = Stage.admit, Stage.unregister, CostModel.fold_search

    def hosts(select):
        return [h for (owner, _), h in registered.items() if select(owner) and eligible(h)]

    def checked_admit(stage, packet):
        won = stage.decide(packet)
        if won is not None and won.mechanism == "host_fold":
            expected = len(hosts(lambda owner: owner is stage))
            elsewhere = len(hosts(lambda owner: owner is not stage))
            live.update((id(o.engine), o.name) for (o, _), h in registered.items() if eligible(h))
            decisions.append((won.mechanism, won.examined, expected, elsewhere))
        elif won is not None and won.mechanism == "cache_fold":
            entries = stage.result_cache().stats()["entries"]
            decisions.append((won.mechanism, won.examined, entries, entries))
        shared = admit(stage, packet)
        if stage.sp_enabled and (won is None or won.mechanism == "host_fold"):
            registered[(stage, packet.signature)] = packet
        return shared

    def checked_unregister(stage, packet):
        if registered.get((stage, packet.signature)) is packet:
            del registered[(stage, packet.signature)]
        unregister(stage, packet)

    def charged(cost, candidates):
        charges.append(candidates)
        return fold_search(cost, candidates)

    monkeypatch.setattr(Stage, "admit", checked_admit)
    monkeypatch.setattr(Stage, "unregister", checked_unregister)
    monkeypatch.setattr(CostModel, "fold_search", charged)
    service = QueryService(
        ssb.tables,
        StaticThresholdPolicy(MACHINE, threshold=1),
        ServiceConfig(queue_capacity=16),
        MACHINE,
        storage_config=StorageConfig(resident="memory", result_cache_bytes=1 << 20),
        qc_config=SHARING,
        gqp_config=SHARING,
    )
    engines = (service.query_centric, service.gqp)

    def submit_both_shapes(engine, spec):
        engine.submit(spec)  # sort / aggregate / CJOIN
        engine.submit_plan(spec.to_query_centric_plan(ssb.tables), spec=spec)  # hash joins

    # Fill the cache, then let every host retire.
    cached = q32("CHINA", "FRANCE", 1992, 1997)
    submit_both_shapes(service.query_centric, cached)
    service.sim.run()
    assert service.storage.result_cache.stats()["entries"] >= 2
    assert not registered
    # Live broad hosts in both stages of both engines, narrowings that fold
    # onto them, and a narrowing of the cached query that only the cache
    # can serve.
    broad, narrow = q32("JAPAN", "BRAZIL", 1992, 1997), q32("JAPAN", "BRAZIL", 1993, 1995)
    for engine in engines:
        submit_both_shapes(engine, broad)
    for engine in engines:
        submit_both_shapes(engine, narrow)
        submit_both_shapes(engine, q32("CHINA", "FRANCE", 1994, 1995))
    service.sim.run()

    seen = Counter(mechanism for mechanism, *_ in decisions)
    assert seen["host_fold"] >= 4 and seen["cache_fold"] >= 2, seen
    assert len(live) == 4, live  # join and CJOIN hosts, in both engines
    # Scope: other stages held eligible hosts, and were not counted.
    assert any(elsewhere > 0 for mechanism, _, _, elsewhere in decisions if mechanism == "host_fold")
    assert all(examined == expected for _, examined, expected, _ in decisions), decisions
    assert sorted(charges) == sorted(examined for _, examined, _, _ in decisions)
