"""Paper Figure 6: push-based (FIFO) vs pull-based (SPL) Simultaneous
Pipelining on identical TPC-H Q1 queries, memory-resident SF=1.

Shape claims checked:
* CS(FIFO) is *slower* than not sharing at low concurrency (the push-based
  serialization point) -- speedup < 1;
* CS(SPL) is never worse than not sharing -- speedup >= 1 everywhere;
* at the highest concurrency, SPL reduces CS response time by a large
  factor (paper: 82-86% at 64 queries) and CS(FIFO) is stuck at ~3 cores.
"""

from repro.bench.experiments import fig6_push_vs_pull


def bench_fig6_push_vs_pull(once, save_report, full_mode):
    result = once(fig6_push_vs_pull, full=full_mode)
    save_report("fig6_push_vs_pull", result.render())

    speed_fifo = result.data["speedups"]["speedup_FIFO"]
    speed_spl = result.data["speedups"]["speedup_SPL"]
    xs = result.data["concurrency"]
    # Push-based sharing hurts at low concurrency (2..16 queries).
    low = [s for n, s in zip(xs, speed_fifo) if 2 <= n <= 16]
    assert all(s < 1.0 for s in low)
    # Pull-based sharing never hurts.
    assert all(s >= 0.97 for s in speed_spl)
    # Large reduction at the top end (paper band 82-86% at 64 queries).
    assert result.data["reduction"] >= 82.0
    # CS(FIFO) bottlenecked at a few cores.
    assert result.data["cells"]["CS(FIFO)"][-1].avg_cores_used < 6.0
