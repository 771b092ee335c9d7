#!/usr/bin/env python3
"""Run the complete SSB suite (all thirteen queries) concurrently.

Submits one instance of every SSB query to the engine of your choice and
prints per-query response times and result sizes -- a miniature of the
dashboard workload the paper's introduction motivates (hundreds of analysts
firing templated reports at one warehouse).

    python examples/ssb_flight_demo.py [qpipe|qpipe-cs|qpipe-sp|cjoin|cjoin-sp]
"""

import sys

from repro.data import generate_ssb
from repro.engine import CJOIN, CJOIN_SP, QPIPE, QPIPE_CS, QPIPE_SP, QPipeEngine
from repro.query.ssb_suite import ALL_SSB_QUERIES, default_instance
from repro.sim import Simulator
from repro.sim.machine import PAPER_MACHINE
from repro.storage import StorageConfig, StorageManager

CONFIGS = {
    "qpipe": QPIPE,
    "qpipe-cs": QPIPE_CS,
    "qpipe-sp": QPIPE_SP,
    "cjoin": CJOIN,
    "cjoin-sp": CJOIN_SP,
}


def main(config_name: str = "cjoin-sp") -> None:
    config = CONFIGS[config_name]
    dataset = generate_ssb(sf=1.0, seed=42)
    sim = Simulator(PAPER_MACHINE)
    storage = StorageManager(
        sim, sim.cost, dataset.tables, StorageConfig(resident="memory")
    )
    engine = QPipeEngine(sim, storage, config)

    handles = {name: engine.submit(default_instance(name)) for name in sorted(ALL_SSB_QUERIES)}
    sim.run()

    print(f"all 13 SSB queries, concurrently, on {config.name} "
          f"(makespan {sim.now:.2f}s, {sim.avg_cores_used():.1f} cores avg)\n")
    print(f"{'query':>6s} {'rows':>6s} {'response (s)':>13s}")
    for name, handle in handles.items():
        print(f"{name:>6s} {len(handle.results):6d} {handle.response_time:13.2f}")
    sharing = sim.metrics.sharing_events
    if sharing:
        print("\nsharing events:", ", ".join(f"{k}={v}" for k, v in sorted(sharing.items())))
    else:
        print("\nno SP sharing events (the thirteen templates are all distinct"
              " -- on CJOIN configs the joins still share the global query plan)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "cjoin-sp")
