#!/usr/bin/env python3
"""Observe a pipeline with the simulation tracer.

Attaches a Tracer to a CJOIN run, then prints (a) a slice of the raw event
stream around the admission pause and (b) the per-thread activity summary --
the view you want when a pipeline stalls and you need to know who is
waiting on whom.

    python examples/trace_a_pipeline.py
"""

from repro.data import generate_ssb
from repro.engine import CJOIN_SP, QPipeEngine
from repro.query.ssb_queries import q32
from repro.sim import Simulator
from repro.sim.machine import PAPER_MACHINE
from repro.sim.trace import Tracer
from repro.storage import StorageConfig, StorageManager


def main() -> None:
    dataset = generate_ssb(sf=0.5, seed=42)
    sim = Simulator(PAPER_MACHINE)
    storage = StorageManager(
        sim, sim.cost, dataset.tables, StorageConfig(resident="memory")
    )
    engine = QPipeEngine(sim, storage, CJOIN_SP)

    with Tracer(sim, thread_filter=lambda name: name.startswith("cjoin")) as tracer:
        h1 = engine.submit(q32("CHINA", "FRANCE", 1993, 1996))
        h2 = engine.submit(q32("JAPAN", "BRAZIL", 1992, 1995))
        sim.run()

    print(f"queries finished in {h1.response_time:.2f}s / {h2.response_time:.2f}s; "
          f"{len(tracer.events)} pipeline events recorded\n")

    print("first 18 pipeline events (admission, then pages start flowing):")
    for event in tracer.events[:18]:
        print(f"  {event}")

    print("\nper-thread activity summary:")
    for thread, kinds in sorted(tracer.summary().items()):
        pretty = ", ".join(f"{k}x{v}" for k, v in sorted(kinds.items()))
        print(f"  {thread:28s} {pretty}")


if __name__ == "__main__":
    main()
