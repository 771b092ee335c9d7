#!/usr/bin/env python3
"""Quickstart: run one SSB star query on the simulated 24-core server.

Builds an SSB database (scale factor 1), runs SSB Q3.2 through the
QPipe-SP engine (circular scans + join-level Simultaneous Pipelining),
and prints the query results plus the simulator's measurements.

    python examples/quickstart.py
"""

from repro.data import generate_ssb
from repro.engine import QPIPE_SP, QPipeEngine
from repro.query.ssb_queries import q32
from repro.sim import Simulator
from repro.sim.machine import PAPER_MACHINE
from repro.storage import StorageConfig, StorageManager


def main() -> None:
    # 1. A dataset: SSB at scale factor 1 (stands for 6M lineorder rows).
    dataset = generate_ssb(sf=1.0, seed=42)
    print(f"SSB SF=1: {dataset.lineorder.num_rows} generated lineorder rows "
          f"representing {dataset.lineorder.real_rows:,.0f} real rows")

    # 2. The simulated server (the paper's testbed: 24 cores @ 1.86 GHz).
    sim = Simulator(PAPER_MACHINE)
    storage = StorageManager(
        sim,
        sim.cost,
        dataset.tables,
        StorageConfig(resident="memory"),  # the paper's RAM-drive setup
    )

    # 3. The execution engine: QPipe with Simultaneous Pipelining.
    engine = QPipeEngine(sim, storage, QPIPE_SP)

    # 4. A star query: SSB Q3.2 (Figure 9 of the paper).
    spec = q32(
        nation_customer="UNITED STATES",
        nation_supplier="CHINA",
        year_low=1993,
        year_high=1996,
    )
    handle = engine.submit(spec)

    # 5. Run the simulation to completion and inspect the results.
    sim.run()
    print(f"\nQ3.2 finished in {handle.response_time:.2f} simulated seconds "
          f"using {sim.avg_cores_used():.1f} cores on average")
    print(f"result rows ({len(handle.results)}):")
    print(f"{'c_city':12s} {'s_city':12s} {'year':>5s} {'revenue':>18s}")
    for c_city, s_city, year, revenue in handle.results[:10]:
        print(f"{c_city:12s} {s_city:12s} {year:5d} {revenue:18,.0f}")
    if len(handle.results) > 10:
        print(f"... and {len(handle.results) - 10} more rows")


if __name__ == "__main__":
    main()
