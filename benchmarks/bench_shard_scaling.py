"""Shard-tier scaling benchmark: throughput vs shard count.

Serves one fixed seeded workload (random SSB Q3.2 instances under a
saturating uniform arrival stream) on the sharded service tier at
increasing shard counts and reports simulated throughput, latency
percentiles, scatter/gather overhead and straggler attribution per point.

Asserted invariants (the shard tier's contract):

* **determinism** -- the merged result fingerprints are byte-identical at
  EVERY shard count (exact partial aggregation + associative merge +
  canonical ordering);
* **scaling** -- completed-queries-per-simulated-second increases
  monotonically from 1 shard up through the sweep (the arrival rate
  saturates a single shard, so extra shards shorten the drain window).

All measurements are simulated seconds composed on the virtual timeline;
worker processes execute for real, but no wall clock reaches the table,
so it is the same on every host (shards 1, 2 fast; 1, 2, 4, 8 full).
"""

from repro.bench.reporting import format_table
from repro.shard import serve_sharded

SF = 0.2
SEED = 42
#: saturating for a single shard at SF 0.2: the drain window, not the
#: arrival process, bounds throughput, so shards translate into q/s.
RATE = 50.0
DURATION = 2.0
FAST_SHARDS = (1, 2)
FULL_SHARDS = (1, 2, 4, 8)


def sweep(shard_counts: tuple[int, ...]):
    return {
        n: serve_sharded(
            n,
            arrival="uniform",
            rate=RATE,
            duration=DURATION,
            seed=SEED,
            workload="q32-random",
            sf=SF,
        )
        for n in shard_counts
    }


def render(reports) -> str:
    rows = []
    for n, r in sorted(reports.items()):
        m = r.metrics
        lat = m.latency_percentiles()
        stragglers = "/".join(
            str(m.straggler_counts.get(i, 0)) for i in range(n)
        )
        rows.append(
            [
                n,
                m.completed,
                f"{r.throughput_qps:.3f}",
                f"{lat['p50']:.3f}",
                f"{lat['p95']:.3f}",
                f"{m.scatter_overhead_s + m.gather_overhead_s:.3f}",
                f"{m.peak_shard_backlog_s:.2f}",
                stragglers,
            ]
        )
    return format_table(
        f"shard scaling: q32-random @ {RATE}/s uniform, sf={SF}",
        ["shards", "done", "q/s", "p50 (s)", "p95 (s)", "ovh (s)", "peak bklg", "stragglers"],
        rows,
    )


def check(reports) -> None:
    counts = sorted(reports)
    base = reports[counts[0]].fingerprint_lines()
    for n in counts[1:]:
        assert reports[n].fingerprint_lines() == base, (
            f"{n}-shard fingerprints differ from {counts[0]}-shard"
        )
    qps = [reports[n].throughput_qps for n in counts]
    for (a, qa), (b, qb) in zip(zip(counts, qps), zip(counts[1:], qps[1:])):
        assert qb > qa, f"throughput fell from {qa:.3f} q/s @{a} to {qb:.3f} q/s @{b}"
    for n in counts:
        m = reports[n].metrics
        assert m.failed == 0, f"{m.failed} structured failures at {n} shards"
        assert m.completed + m.timed_out == m.admitted, "run did not drain"


def bench_shard_scaling(once, save_report, full_mode):
    """pytest-benchmark entry point (see conftest.py)."""
    reports = once(sweep, FULL_SHARDS if full_mode else FAST_SHARDS)
    save_report("shard_scaling", render(reports))
    check(reports)
