"""Result-cache recurrence sweep: p95 latency vs template-recurrence rate.

The shared result cache pays off exactly when sub-plans recur (dashboards,
canned reports); when nothing recurs it must cost nothing.  The sweep
serves the ``recurring:<rate>`` workload -- a fraction ``rate`` of queries
repeats one of a small fixed pool of Q3.2 templates, the rest are fresh
random instances -- with the cache off and on, and checks:

* at 0% recurrence the cache is free: p95 within +/-2% of cache-off (the
  fill consumers ride the hosts' SPLs without touching their critical
  paths; probes are signature lookups);
* p95 improvement grows monotonically with the recurrence rate;
* at 50% recurrence the cache cuts p95 by at least 20%.
"""

from repro.bench.reporting import format_table
from repro.data import generate_ssb
from repro.server import serve
from repro.storage.manager import StorageConfig

FAST_RATES = (0.0, 0.25, 0.5)
FULL_RATES = (0.0, 0.25, 0.5, 0.75)
CACHE_MB = 64.0


def _storage(cache_on: bool) -> StorageConfig:
    if not cache_on:
        return StorageConfig(resident="memory")
    return StorageConfig(resident="memory", result_cache_bytes=CACHE_MB * 1024 * 1024)


def sweep(full: bool = False):
    rates = FULL_RATES if full else FAST_RATES
    duration = 10.0 if full else 5.0
    #: past the query-centric path's capacity, so queueing makes the freed
    #: work visible in the tail (an idle system hides the cache's benefit)
    arrival_rate = 16.0
    tables = generate_ssb(0.5, seed=23).tables
    cells = {}
    for rate in rates:
        for cache_on in (False, True):
            cells[(rate, cache_on)] = serve(
                tables,
                policy="adaptive",
                arrival="poisson",
                rate=arrival_rate,
                duration=duration,
                seed=1,
                workload=f"recurring:{rate}",
                storage_config=_storage(cache_on),
            )
    return rates, cells


def p95(report) -> float:
    return report.metrics.latency_percentiles()["p95"]


def improvement(cells, rate) -> float:
    """Fractional p95 reduction of cache-on vs cache-off at ``rate``."""
    off, on = p95(cells[(rate, False)]), p95(cells[(rate, True)])
    return (off - on) / off if off > 0 else 0.0


def render(rates, cells) -> str:
    rows = []
    for rate in rates:
        off, on = cells[(rate, False)], cells[(rate, True)]
        stats = on.metrics.cache_stats
        rows.append(
            [
                f"{rate:.0%}",
                on.metrics.completed,
                f"{p95(off):.3f}",
                f"{p95(on):.3f}",
                f"{improvement(cells, rate):+.1%}",
                f"{stats.get('hits', 0)}/{stats.get('misses', 0)}",
                on.metrics.cache_routed,
                stats.get("evictions", 0),
            ]
        )
    return format_table(
        f"result cache sweep: recurring:<rate>, {CACHE_MB:.0f} MB benefit-policy cache",
        ["recur", "done", "p95 off", "p95 on", "gain", "hit/miss", "routed", "evict"],
        rows,
    )


def check(rates, cells) -> None:
    # No-recurrence runs must not regress: the cache adds only fill
    # consumers on host SPLs and signature probes.
    assert abs(improvement(cells, 0.0)) <= 0.02, (
        f"cache-on p95 drifted {improvement(cells, 0.0):+.1%} at 0% recurrence"
    )
    # Cache-on p95 improves monotonically as recurrence rises.  (The
    # *relative* gain over cache-off is not monotone at the top end: a
    # highly recurrent stream also overlaps more in time, so the cache-off
    # baseline itself accelerates through plain SP.)
    on = [p95(cells[(r, True)]) for r in rates]
    for lo_rate, hi_rate in zip(on, on[1:]):
        assert hi_rate <= lo_rate * 1.02, f"cache-on p95 not monotone in recurrence: {on}"
    # And the payoff is substantial once half the stream recurs.
    assert improvement(cells, 0.5) >= 0.20, (
        f"only {improvement(cells, 0.5):+.1%} p95 gain at 50% recurrence"
    )
    # The cache-on runs actually exercised the machinery end to end.
    half = cells[(0.5, True)].metrics
    assert half.cache_stats["hits"] > 0
    assert half.cache_routed > 0


def bench_result_cache(once, save_report, full_mode):
    rates, cells = once(sweep, full=full_mode)
    save_report("result_cache", render(rates, cells))
    check(rates, cells)
