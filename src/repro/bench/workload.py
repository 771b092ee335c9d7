"""Workload generators for the paper's experiments.

All generators are deterministic in their seed.  A workload is a list of
:class:`QueryJob`\\ s; each job carries either a star-query spec (compiled
per engine configuration at submit time) or an explicit plan (TPC-H Q1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.rng import make_rng
from repro.data.ssb import SsbDataset
from repro.data.tpch import TpchDataset
from repro.query.plan import PlanNode
from repro.query.ssb_queries import (
    q32_selectivity,
    random_q11,
    random_q21,
    random_q32,
)
from repro.query.star import StarQuerySpec
from repro.query.tpch_queries import tpch_q1_plan


@dataclass(frozen=True)
class QueryJob:
    """One query to submit: a spec (star query) or an explicit plan."""

    spec: StarQuerySpec | None = None
    plan: PlanNode | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if (self.spec is None) == (self.plan is None):
            raise ValueError("exactly one of spec/plan must be given")


# ---------------------------------------------------------------------------
# SSB Q3.2 workloads (sensitivity analysis, Section 5.2)
# ---------------------------------------------------------------------------


def q32_random_workload(n: int, seed: int = 1) -> list[QueryJob]:
    """``n`` random Q3.2 instances: the low-similarity workload of the
    concurrency experiments (Figure 10); fact selectivity 0.02%-0.16%."""
    rng = make_rng(seed, "q32-random")
    return [QueryJob(spec=random_q32(rng)) for _ in range(n)]


def q32_limited_plans_workload(n: int, n_plans: int, seed: int = 1) -> list[QueryJob]:
    """``n`` Q3.2 instances drawn round-robin from a pool of ``n_plans``
    distinct plans -- the similarity knob of Figures 14/15."""
    if n_plans < 1:
        raise ValueError("need at least one plan")
    rng = make_rng(seed, "q32-plans", n_plans)
    pool: list[StarQuerySpec] = []
    signatures: set[tuple] = set()
    attempts = 0
    while len(pool) < n_plans:
        spec = random_q32(rng)
        attempts += 1
        if spec.signature not in signatures:
            signatures.add(spec.signature)
            pool.append(spec)
        if attempts > 100 * n_plans:
            raise RuntimeError(f"cannot draw {n_plans} distinct Q3.2 plans")
    return [QueryJob(spec=pool[i % n_plans]) for i in range(n)]


def q32_selectivity_workload(n: int, selectivity: float, seed: int = 1) -> list[QueryJob]:
    """``n`` modified-Q3.2 instances targeting a fact-tuple ``selectivity``
    (Figures 11/12); predicates are disjoint random disjunctions, so the
    similarity factor is minimal."""
    rng = make_rng(seed, "q32-sel", selectivity)
    return [QueryJob(spec=q32_selectivity(selectivity, rng)) for _ in range(n)]


# ---------------------------------------------------------------------------
# TPC-H Q1 (Figure 6) and the SSB mix (Figure 16)
# ---------------------------------------------------------------------------


def tpch_q1_workload(n: int, dataset: TpchDataset) -> list[QueryJob]:
    """``n`` *identical* TPC-H Q1 instances (Figure 6 shares the scan)."""
    plan = tpch_q1_plan(dataset.lineitem)
    return [QueryJob(plan=plan, label="Q1") for _ in range(n)]


def ssb_mix_workload(n: int, seed: int = 1) -> list[QueryJob]:
    """``n`` queries instantiated from Q1.1, Q2.1, Q3.2 round-robin with
    random predicates (Figure 16's query mix)."""
    rng = make_rng(seed, "ssb-mix")
    makers = (random_q11, random_q21, random_q32)
    return [QueryJob(spec=makers[i % 3](rng)) for i in range(n)]


def mix_spec_factory(seed: int = 1):
    """A ``(client_id, k) -> StarQuerySpec`` factory for closed-loop clients
    (round-robin over the three templates, per-client RNG streams)."""
    makers = (random_q11, random_q21, random_q32)

    def factory(client_id: int, k: int) -> StarQuerySpec:
        rng = make_rng(seed, "mix-client", client_id, k)
        return makers[(client_id + k) % 3](rng)

    return factory
