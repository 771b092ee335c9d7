"""The push-based sharing prediction model ("to share or not to share?").

The paper repeatedly contrasts SPL with the run-time prediction model of
Johnson et al. [14], which decides per packet whether *push-based* SP is
worth it: forwarding results serializes the producer, so with spare CPU the
system should parallelize query-centric instead, and share only once
resources saturate.  The paper notes that in Figure 6a "the proposed
prediction model would not share in cases of low concurrency, essentially
falling back to the line of No SP (FIFO), and would share in cases of high
concurrency" -- i.e. it tracks the lower envelope of the two push-based
curves.  (And the paper's point: with SPL you don't need a model at all.)

The model below follows that structure: sharing is predicted beneficial
when the extra serial forwarding work the host would take on is smaller
than the queueing delay the satellite's private evaluation would suffer on
the saturated CPU pool.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.qpipe import QPipeEngine
    from repro.query.plan import ScanNode


def push_sharing_beneficial(engine: "QPipeEngine", node: "ScanNode", n_satellites: int) -> bool:
    """Should a new identical packet attach to a push-based (FIFO) host?

    Parameters
    ----------
    engine:
        The engine (for machine state and cost model).
    node:
        The pivot operator's plan node (a scan for circular scans).
    n_satellites:
        Satellites already attached to the candidate host.

    If the newcomer attaches, the host's critical path carries the scan
    *plus one full output copy per satellite* -- serial work that delays
    everyone behind the host.  If it evaluates privately, it pays the scan
    itself, slowed by whatever the current CPU load does to one more
    runnable thread.  Share iff the forwarding-laden host path is still
    shorter than the slowed-down private path: with an idle machine
    (slowdown ~1) any satellite makes sharing lose; once the pool is
    saturated, private evaluation queues and sharing wins.
    """
    cost = engine.cost
    cpu = engine.sim.cpu
    table = node.table
    tuples = table.num_rows * table.row_weight
    copy_cycles = cost.copy_tuple * tuples + cost.fifo_page_overhead * table.num_pages
    scan_cycles = cost.scan_tuple * tuples + cost.bufferpool_page * table.num_pages
    # Host path if we attach: its scan + a copy for every satellite incl. us.
    shared_path = scan_cycles + (n_satellites + 1) * copy_cycles
    # Private path: our own scan on the loaded machine, slowed by the pool's
    # own per-thread rate with the would-be private worker runnable.
    slowdown = engine.sim.machine.hz / cpu._rate_for(cpu.runnable + 1)
    private_path = scan_cycles * slowdown
    return shared_path < private_path
