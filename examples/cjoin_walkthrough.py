#!/usr/bin/env python3
"""A guided tour of the CJOIN global query plan (paper Sections 2.5/3).

Submits three star queries with different shapes to the CJOIN-SP engine,
pauses to inspect the pipeline's internals -- filters, hash-table sizes,
bitmap slots, pass masks -- and shows Simultaneous Pipelining absorbing an
identical packet without a second admission.

    python examples/cjoin_walkthrough.py
"""

from repro.data import generate_ssb
from repro.engine import CJOIN_SP, QPipeEngine
from repro.query.ssb_queries import q11, q32
from repro.sim import Simulator
from repro.sim.machine import PAPER_MACHINE
from repro.storage import StorageConfig, StorageManager


def describe_pipeline(pipeline) -> None:
    print(f"  fact table: {pipeline.fact.name} "
          f"({pipeline.fact.num_pages} pages, circular scan)")
    print(f"  bitmap slots in use: {pipeline.slots.high_water} "
          f"(live queries: {pipeline.slots.live})")
    for name, flt in pipeline.filters.items():
        print(f"  filter[{name}]: {len(flt.ht)} dimension tuples in the shared "
              f"hash table, pass_mask={flt.pass_mask:#x}, "
              f"referenced by slots {sorted(flt.referencing)}")


def main() -> None:
    dataset = generate_ssb(sf=1.0, seed=42)
    sim = Simulator(PAPER_MACHINE)
    storage = StorageManager(sim, sim.cost, dataset.tables,
                             StorageConfig(resident="memory"))
    engine = QPipeEngine(sim, storage, CJOIN_SP)

    q_a = q32("CHINA", "FRANCE", 1993, 1996)      # 3 dimensions
    q_b = q11(1994, 1.0, 3.0, 25)                 # 1 dimension + fact predicate
    q_c = q32("CHINA", "FRANCE", 1993, 1996)      # identical to q_a

    print("Submitting three star queries to one global query plan:")
    print(f"  A: {q_a.label} (supplier, customer, date)")
    print(f"  B: {q_b.label} (date only; lo_discount/lo_quantity predicates "
          "evaluated on CJOIN output)")
    print(f"  C: {q_a.label} again -- identical to A\n")

    h_a = engine.submit(q_a)
    h_b = engine.submit(q_b)
    h_c = engine.submit(q_c)

    def observer():
        from repro.sim.commands import SLEEP

        yield SLEEP(0.5)  # mid-execution
        print(f"t={sim.now:.2f}s -- pipeline state during execution:")
        describe_pipeline(engine.cjoin_stage.pipeline_for("lineorder"))
        shares = sim.metrics.sharing_events.get("cjoin", 0)
        print(f"  CJOIN packets shared by SP: {shares} "
              "(query C attached to A's packet: no admission, no extra bit)\n")

    sim.spawn(observer(), "observer")
    sim.run()

    for name, handle in (("A", h_a), ("B", h_b), ("C", h_c)):
        print(f"query {name}: {len(handle.results):4d} result rows in "
              f"{handle.response_time:.2f}s")
    assert sorted(h_a.results) == sorted(h_c.results)
    print("\nA and C produced identical results -- C paid only for reading "
          "A's Shared Pages List.")
    admitted = sim.metrics.counts["cjoin_queries_admitted"]
    print(f"queries admitted into the GQP: {admitted} (of 3 submitted)")


if __name__ == "__main__":
    main()
