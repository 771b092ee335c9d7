"""Export experiment results to JSON.

Downstream users plot with their own tools; every
:class:`~repro.bench.experiments.ExperimentResult` can be dumped as
machine-readable files next to the text tables that ``benchmarks/``
archives.
"""

from __future__ import annotations

import json
from typing import Any

from repro.bench.experiments import ExperimentResult
from repro.bench.runner import RunResult
from repro.sim.metrics import Metrics, percentile_block


def run_result_to_dict(result: RunResult) -> dict[str, Any]:
    """A plain-dict view of one run's measurements."""
    return {
        "config": result.config_name,
        "n_queries": result.n_queries,
        "mean_response_s": result.mean_response,
        "stdev_response_s": result.stdev_response,
        # The canonical p50/p95/p99 block (same helper as the service and
        # shard tiers), so downstream plots never re-derive percentiles.
        "response_percentiles": percentile_block(result.response_times),
        "sim_seconds": result.sim_seconds,
        "avg_cores_used": result.avg_cores_used,
        "avg_read_mb_s": result.avg_read_mb_s,
        "cpu_breakdown": dict(result.cpu_breakdown),
        "sharing": dict(result.sharing),
        "admission_seconds": result.admission_seconds,
        "response_times": list(result.response_times),
    }


def _plain(value: Any) -> Any:
    """Recursively convert experiment data to JSON-safe values."""
    if isinstance(value, RunResult):
        return run_result_to_dict(value)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def metrics_to_json(
    metrics: Metrics,
    hz: float | None = None,
    window: float | None = None,
    extra: dict[str, Any] | None = None,
    indent: int = 2,
) -> str:
    """Serialize any :class:`~repro.sim.metrics.Metrics` (including the
    service layer's ``ServiceMetrics``) standalone as JSON.

    ``hz`` converts CPU cycles to core-seconds; ``window`` (for metrics
    classes that accept it, e.g. ``ServiceMetrics``) adds throughput over
    that many seconds; ``extra`` entries are merged into the payload
    (run identification -- policy, rate, ... -- lives there)."""
    if window is not None:
        try:
            data = metrics.to_dict(hz=hz, window=window)
        except TypeError:  # plain Metrics: no throughput window concept
            data = metrics.to_dict(hz=hz)
    else:
        data = metrics.to_dict(hz=hz)
    payload = {**(extra or {}), **data}
    return json.dumps(_plain(payload), indent=indent, sort_keys=True)


def experiment_to_json(
    result: ExperimentResult, indent: int = 2, include_timings: bool = False
) -> str:
    """Serialize an experiment's structured data as JSON.

    The default payload holds only *simulated* measurements, so it is
    byte-identical for any ``jobs`` count -- the artifact CI diffs between
    serial and parallel sweeps.  ``include_timings=True`` adds the host-side
    attribution (per-cell wall clock, worker pid, retries) from the
    parallel fabric."""
    payload: dict[str, Any] = {"experiment": result.experiment, "data": _plain(result.data)}
    if include_timings and result.timings:
        payload["timings"] = _plain(result.timings)
    return json.dumps(payload, indent=indent, sort_keys=True)


def timings_to_json(result: ExperimentResult, indent: int = 2) -> str:
    """Serialize just the host-side attribution of one sweep: effective
    ``jobs``, total wall clock, and per-cell ``{wall_s, worker, retried}``."""
    return json.dumps(
        {"experiment": result.experiment, **_plain(result.timings)},
        indent=indent,
        sort_keys=True,
    )
