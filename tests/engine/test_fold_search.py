"""The fold search behind the WoP hosts: index lifecycle and scaling.

Every stage registers its hosts in the run's one
:class:`~repro.query.subsume.ProviderSet`, by signature and in its one
:class:`~repro.query.subsume.FoldIndex`.  These tests pin what the index
may never do -- return a host that was retired, or outlive a drained
batch -- and
gate the point of having it: the number of full subsumption tests per
admission must not grow with the number of in-flight hosts, and a search
that finds no fold checks no host the index did not propose.
"""

import pytest

import repro.query.subsume as subsume
from repro.baselines import evaluate_plan
from repro.bench.workload import q32_random_workload
from repro.data import generate_ssb
from repro.engine import CJOIN_SP, QPIPE_SP, QPipeEngine
from repro.engine.packet import Packet
from repro.query.ssb_queries import q32
from repro.sim import Simulator
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.machine import MachineSpec
from repro.storage import StorageConfig, StorageManager
from tests.answers import sorted_rows


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(0.5, seed=41)


def make_engine(ssb, config):
    sim = Simulator(MachineSpec())
    storage = StorageManager(sim, DEFAULT_COST_MODEL, ssb.tables, StorageConfig(resident="memory"))
    return sim, QPipeEngine(sim, storage, config)


def hosts(providers):
    """Every registered host, over every owner."""
    return [host for held in providers._exact.values() for host in held.values()]


def candidates(providers, node):
    return [provider for _owner, provider in providers._index.candidates(node)]


class TestIndexLifecycle:
    @pytest.mark.parametrize("config", [QPIPE_SP, CJOIN_SP], ids=lambda c: c.name)
    def test_index_tracks_the_registry_and_drains_empty(self, ssb, config):
        sim, engine = make_engine(ssb, config)
        providers = engine.storage.providers
        for job in q32_random_workload(64, seed=5):
            engine.submit(job.spec)
        # Mid-flight: one token per registered host.
        assert len(providers._index) == len(hosts(providers)) > 0
        sim.run()
        assert sum(v for k, v in sim.metrics.counts.items() if k.startswith("fold_attach:")) > 0
        assert hosts(providers) == []
        assert len(providers._index) == 0

    def test_unregistered_and_overwritten_hosts_are_never_candidates(self, ssb):
        """``unregister`` and the same-signature overwrite (a new host
        replacing one that fell out of its WoP) both retire the old token."""
        sim, engine = make_engine(ssb, CJOIN_SP)
        stage, providers = engine.cjoin_stage, engine.storage.providers
        broad = q32("CHINA", "FRANCE", 1992, 1997).to_gqp_plan(ssb.tables).child.child
        narrow = q32("CHINA", "FRANCE", 1993, 1995).to_gqp_plan(ssb.tables).child.child
        query = engine.submit(q32("JAPAN", "JAPAN", 1992, 1992)).query

        def host():
            packet = stage.make_packet(broad, query)
            assert stage.admit(packet) is False  # becomes a host
            return packet

        first = host()
        assert candidates(providers, narrow) == [first]
        first.finished = True  # fell out of its WoP without unregistering
        second = host()  # same signature: overwrites the registry slot
        assert providers._exact[stage][broad.signature] is second
        assert candidates(providers, narrow) == [second]
        stage.unregister(first)  # stale unregister: must not touch the new host
        assert candidates(providers, narrow) == [second]
        stage.unregister(second)
        assert candidates(providers, narrow) == []
        assert len(providers._index) == len(hosts(providers))


class TestScaling:
    #: Full subsumption tests per admitted query.  A walk over every
    #: in-flight host costs about n/2 of them (32 at n=64, 128 at n=256).
    MAX_FOLD_TESTS_PER_QUERY = 8

    @pytest.mark.parametrize("n", [64, 256])
    def test_fold_tests_per_admission_do_not_grow_with_the_batch(self, ssb, n, monkeypatch):
        calls = []
        real = subsume.fold_plan
        monkeypatch.setattr(
            subsume, "fold_plan", lambda c, p: calls.append(1) or real(c, p)
        )
        sim, engine = make_engine(ssb, CJOIN_SP)
        specs = [job.spec for job in q32_random_workload(n, seed=5)]
        handles = [engine.submit(spec) for spec in specs]
        sim.run()
        assert len(calls) <= self.MAX_FOLD_TESTS_PER_QUERY * n
        # The search still finds what a full walk finds...
        assert sum(v for k, v in sim.metrics.counts.items() if k.startswith("fold_attach:")) > 0
        # ...and every answer is the reference evaluator's.
        for spec, handle in zip(specs, handles):
            assert sorted_rows(handle.results) == sorted_rows(
                evaluate_plan(spec.to_query_centric_plan(ssb.tables))
            )


class TestSearchBudget:
    @pytest.mark.parametrize("config", [QPIPE_SP, CJOIN_SP], ids=lambda c: c.name)
    def test_a_search_that_finds_no_fold_checks_only_proposed_hosts(
        self, ssb, config, monkeypatch
    ):
        """Eligibility is checked for the hosts the index proposes, once
        each; the eligible hosts ``fold_search`` charges for are counted
        only after a fold has won."""
        searches = []
        real = subsume.ProviderSet.lookup
        real_eligible = Packet.fold_eligible
        checks = []

        def counting_lookup(providers, node, stage, *rest):
            mine = {p for owner, p in providers._index.candidates(node) if owner is stage}
            exact = providers._exact.get(stage, {}).get(node.signature)
            proposed = 0 if exact is not None and exact.can_attach() else len(mine)
            checks.clear()
            found = real(providers, node, stage, *rest)
            searches.append((found, len(checks), proposed))
            return found

        def counted(host):
            checks.append(host)
            return real_eligible(host)

        monkeypatch.setattr(subsume.ProviderSet, "lookup", counting_lookup)
        monkeypatch.setattr(Packet, "fold_eligible", counted)
        sim, engine = make_engine(ssb, config)
        for job in q32_random_workload(64, seed=5):
            engine.submit(job.spec)
        sim.run()
        missed = [(checks, proposed) for found, checks, proposed in searches if found is None]
        assert any(proposed for _, proposed in missed)  # the budget is exercised
        assert all(checks <= proposed for checks, proposed in missed)
