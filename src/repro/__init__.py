"""repro: a reproduction of "Sharing Data and Work Across Concurrent
Analytical Queries" (Psaroudakis, Athanassoulis, Ailamaki; VLDB 2013).

The package implements the paper's integrated sharing system on a
deterministic discrete-event simulation of its 24-core testbed:

* :mod:`repro.sim` -- the simulated machine (GPS CPU pool, disk model,
  cost model, sim-time synchronization);
* :mod:`repro.storage` -- the storage-manager substrate (paged tables,
  buffer pool, OS page cache, prefetching);
* :mod:`repro.data` -- SSB and TPC-H lineitem generators;
* :mod:`repro.query` -- expressions, signed plan nodes, star-query specs,
  the thirteen SSB queries and TPC-H Q1;
* :mod:`repro.engine` -- the QPipe engine: Simultaneous Pipelining with
  push-based FIFOs or pull-based Shared Pages Lists, circular scans,
  Windows of Opportunity and the prediction model;
* :mod:`repro.gqp` -- the CJOIN global query plan (shared selections and
  hash-joins, batched asynchronous admission, distributor parts);
* :mod:`repro.baselines` -- the reference evaluator and the Volcano-style
  query-centric baseline;
* :mod:`repro.bench` -- workloads, runners, and one experiment per paper
  figure/table;
* :mod:`repro.server` -- the admission-controlled query service layer:
  open-loop arrivals, bounded queue with deadlines and backpressure,
  static/adaptive SP-GQP routing (the static policy is the Hybrid
  configuration), service-level (tail latency) metrics.

Typical use::

    from repro.data import generate_ssb
    from repro.engine import CJOIN_SP, QPipeEngine
    from repro.query.ssb_queries import q32
    from repro.sim import Simulator
    from repro.sim.costmodel import DEFAULT_COST_MODEL
    from repro.sim.machine import PAPER_MACHINE
    from repro.storage import StorageConfig, StorageManager

    dataset = generate_ssb(sf=1.0, seed=42)
    sim = Simulator(PAPER_MACHINE, DEFAULT_COST_MODEL)  # owns the cost model
    storage = StorageManager(sim, sim.cost, dataset.tables,
                             StorageConfig(resident="memory"))
    engine = QPipeEngine(sim, storage, CJOIN_SP)
    handle = engine.submit(q32("CHINA", "FRANCE", 1993, 1996))
    sim.run()
    print(handle.response_time, handle.results)

See README.md for the project overview, DESIGN.md for the substitution
rationale and system inventory, and EXPERIMENTS.md for paper-vs-measured
results.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
