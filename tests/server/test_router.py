"""Tests for routing policies: the static baseline and the adaptive
feedback controller, under forced load patterns."""

import pytest

from repro.query.ssb_queries import q32, random_q32
from repro.data.rng import make_rng
from repro.server.router import (
    GQP,
    POLICIES,
    QUERY_CENTRIC,
    AdaptivePolicy,
    StaticThresholdPolicy,
    make_policy,
    saturation_threshold,
    spec_features,
)
from repro.sim.machine import MachineSpec

MACHINE = MachineSpec()  # 24 cores -> saturation threshold 12
SPEC = q32("CHINA", "FRANCE", 1993, 1996)


class TestStatic:
    def test_below_threshold_query_centric(self):
        p = StaticThresholdPolicy(MACHINE, threshold=4)
        assert p.choose(SPEC, in_flight=3, queue_depth=50) == QUERY_CENTRIC

    def test_at_threshold_gqp(self):
        p = StaticThresholdPolicy(MACHINE, threshold=4)
        assert p.choose(SPEC, in_flight=4, queue_depth=0) == GQP

    def test_default_threshold_is_machine_saturation(self):
        assert StaticThresholdPolicy(MACHINE).threshold == saturation_threshold(MACHINE) == 12

    def test_queue_depth_invisible(self):
        # The baseline's blind spot (what the adaptive policy fixes).
        p = StaticThresholdPolicy(MACHINE, threshold=4)
        assert p.choose(SPEC, in_flight=0, queue_depth=1000) == QUERY_CENTRIC


class TestAdaptive:
    def test_sustained_low_pressure_stays_query_centric(self):
        p = AdaptivePolicy(MACHINE, threshold=12)
        routes = {p.choose(SPEC, in_flight=6, queue_depth=0) for _ in range(50)}
        assert routes == {QUERY_CENTRIC}

    def test_sustained_high_pressure_switches_to_gqp(self):
        p = AdaptivePolicy(MACHINE, threshold=12)
        routes = [p.choose(SPEC, in_flight=16, queue_depth=0) for _ in range(50)]
        assert routes[-1] == GQP
        assert GQP in routes[:10]  # the EWMA converges quickly

    def test_one_spike_does_not_switch(self):
        # A single bunched arrival below the surge bound is absorbed.
        p = AdaptivePolicy(MACHINE, threshold=12)
        for _ in range(30):
            p.choose(SPEC, in_flight=6, queue_depth=0)
        assert p.choose(SPEC, in_flight=14, queue_depth=0) == QUERY_CENTRIC

    def test_surge_triggers_immediately(self):
        # Instantaneous pressure at surge_factor x threshold must not wait
        # for the moving average.
        p = AdaptivePolicy(MACHINE, threshold=12, surge_factor=2.0)
        for _ in range(30):
            p.choose(SPEC, in_flight=2, queue_depth=0)
        assert p.choose(SPEC, in_flight=24, queue_depth=0) == GQP

    def test_queue_depth_counts_toward_pressure(self):
        p = AdaptivePolicy(MACHINE, threshold=12, queue_weight=0.5)
        # 0 in flight but a deep sustained queue: 0 + 0.5*40 = 20 > 12.
        routes = [p.choose(SPEC, in_flight=0, queue_depth=40) for _ in range(20)]
        assert routes[-1] == GQP

    def test_hysteresis_on_exit(self):
        p = AdaptivePolicy(MACHINE, threshold=12, exit_ratio=0.7)
        for _ in range(50):
            p.choose(SPEC, in_flight=20, queue_depth=0)  # lock into GQP
        # Pressure just below threshold: a non-hysteretic rule would flap
        # back; the controller holds the GQP route.
        assert p.choose(SPEC, in_flight=11, queue_depth=0) == GQP
        # Far below the exit bound the route returns to query-centric.
        routes = [p.choose(SPEC, in_flight=1, queue_depth=0) for _ in range(50)]
        assert routes[-1] == QUERY_CENTRIC

    def test_similarity_lowers_the_switch_point(self):
        # Identical specs -> similarity 1; pressure 10 < 12 but above the
        # fully discounted threshold 12 * (1 - 0.25) = 9.
        p = AdaptivePolicy(MACHINE, threshold=12, similarity_discount=0.25)
        routes = [p.choose(SPEC, in_flight=10, queue_depth=0) for _ in range(50)]
        assert routes[-1] == GQP
        # With the discount off, the same sustained pressure stays below
        # the threshold and keeps the query-centric route.
        p2 = AdaptivePolicy(MACHINE, threshold=12, similarity_discount=0.0)
        routes2 = [p2.choose(SPEC, in_flight=10, queue_depth=0) for _ in range(50)]
        assert routes2[-1] == QUERY_CENTRIC

    def test_random_plans_less_similar_than_identical(self):
        rng = make_rng(7, "router-similarity")
        p = AdaptivePolicy(MACHINE, threshold=12)
        for _ in range(30):
            p.choose(random_q32(rng), in_flight=0, queue_depth=0)
        random_sims = [s for _, _, s, _ in p.decisions[1:]]
        p2 = AdaptivePolicy(MACHINE, threshold=12)
        for _ in range(30):
            p2.choose(SPEC, in_flight=0, queue_depth=0)
        identical_sims = [s for _, _, s, _ in p2.decisions[1:]]
        assert max(random_sims) < 1.0
        assert sum(random_sims) / len(random_sims) < sum(identical_sims) / len(identical_sims)
        assert identical_sims[-1] == pytest.approx(1.0)

    def test_similarity_score(self):
        p = AdaptivePolicy(MACHINE, threshold=12)
        assert p.similarity(spec_features(SPEC)) == 0.0  # empty window
        p.choose(SPEC, in_flight=0, queue_depth=0)
        assert p.similarity(spec_features(SPEC)) == pytest.approx(1.0)

    def test_decision_log(self):
        p = AdaptivePolicy(MACHINE, threshold=12)
        p.choose(SPEC, in_flight=3, queue_depth=2)
        ((pressure, ewma, sim_score, route),) = p.decisions
        assert pressure == 3 + p.queue_weight * 2
        assert ewma == pytest.approx(pressure)  # bias-corrected first sample
        assert route == QUERY_CENTRIC


class TestFeatures:
    def test_identical_specs_identical_features(self):
        assert spec_features(SPEC) == spec_features(q32("CHINA", "FRANCE", 1993, 1996))

    def test_different_predicates_partial_overlap(self):
        other = q32("JAPAN", "BRAZIL", 1992, 1995)
        a, b = spec_features(SPEC), spec_features(other)
        assert a != b
        assert a & b  # same template: fact/agg components still shared


class TestFactory:
    def test_registry_matches_factory(self):
        for name in POLICIES:
            assert make_policy(name, MACHINE).name == name

    def test_threshold_override(self):
        assert make_policy("static", MACHINE, threshold=3).threshold == 3
        assert make_policy("adaptive", MACHINE, threshold=3).base_threshold == 3

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("oracle", MACHINE)
