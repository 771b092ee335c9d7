"""One rep of one workload in a fresh process: set-up, run, fingerprint.

Started by ``bench.py`` (never by hand) as
``python rep.py <workload> <seed> <quick 0|1> <verify 0|1> <trace-path or ->``.
Prints one JSON object on its last line.  ``setup_s`` runs from this file's
first statement to the first query submitted; ``host_wall_s`` from there
until the last result is drained.  With a trace path the run phase executes
under ``cProfile`` and the per-layer numbers and spans are written there.
"""

import time

_T0 = time.perf_counter()

import cProfile
import hashlib
import json
import resource
import sys

import tracing


def _peak_rss_mb() -> float:
    # The rep process plus its largest waited-for child (shard workers).
    kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kb / 1024.0


def _sim_metrics(w, outcome, percentile) -> dict[str, float]:
    latencies = [q.completion - q.arrival for q in outcome.completed]
    if not latencies:
        raise SystemExit(f"benchmarks/layers: {w.name} completed no query")
    in_time = sum(1 for x in latencies if x <= w.latency_limit_s)
    return {
        "sim_latency_p50_s": percentile(latencies, 0.50),
        "sim_latency_p95_s": percentile(latencies, 0.95),
        "sim_throughput_qps": len(latencies) / max(q.completion for q in outcome.completed),
        "sim_slo_met_share": in_time / outcome.arrived,
    }


def _fingerprint(outcome, sim: dict) -> str:
    h = hashlib.sha256()
    for q in outcome.completed:
        h.update(repr((q.seq, q.arrival, q.dispatch, q.completion)).encode())
        for row in q.rows:
            h.update(repr(tuple(row)).encode())
    h.update(repr(sorted(sim.items())).encode())
    return h.hexdigest()


def _query_spans(outcome) -> list[dict]:
    spans = []
    for q in outcome.completed:
        spans.append({"query": q.seq, "name": "queue", "start": q.arrival, "end": q.dispatch})
        spans.append({"query": q.seq, "name": "execute", "start": q.dispatch, "end": q.completion})
        for name, start, end in q.spans:
            spans.append({"query": q.seq, "name": name, "start": start, "end": end, "parent": "execute"})
    return spans


def _per_layer(w, counters: dict, agg: dict, spans) -> dict[str, float]:
    """Every per-layer metric but the tracing overhead (bench.py adds it)."""
    metrics = dict(counters)
    total = sum(layer["self_s"] for layer in agg["layers"].values())
    for name, layer in agg["layers"].items():
        metrics[f"{name}.host_self_s"] = layer["self_s"]
        metrics[f"{name}.host_share"] = layer["self_s"] / total
        metrics[f"{name}.host_calls"] = layer["calls"]
    for metric, (field, mechanism, points) in tracing.ENTRY_POINTS.items():
        metrics[metric] = 0.0
        for path, func in points:
            found = agg["entry_points"].get(f"{path}:{func}")
            if found is not None:
                metrics[metric] += found[field]
            elif mechanism in w.exercises:
                raise SystemExit(f"benchmarks/layers: {path}:{func} never ran on {w.name}")
    metrics["data.generate_s"] = spans.duration("data.generate_ssb")
    metrics["shard.spawn_s"] = spans.duration("shard.spawn")
    metrics["baselines.verify_s"] = spans.duration("verify")
    return metrics


def main(argv: list[str]) -> None:
    name, seed, quick, verify, trace_path = argv
    spans = tracing.Spans(_T0)
    profile = cProfile.Profile() if trace_path != "-" else None

    with spans.span("rep"):
        with spans.span("setup"):
            with spans.span("import"):
                import adapters
                import workloads
            w = workloads.BY_NAME[name]
            if quick == "1":
                w = workloads.quick(w)
            with spans.span("inputs"):
                stream = workloads.materialise(w, int(seed))
            adapter = adapters.ADAPTERS[w.kind](w, stream)
            try:
                adapter.setup(spans)
            except BaseException:
                adapter.close()
                raise
        marks = [time.perf_counter()]
        try:
            with spans.span("run"):
                if profile is not None:
                    profile.enable()
                try:
                    adapter.run(lambda: marks.append(time.perf_counter()))
                finally:
                    if profile is not None:
                        profile.disable()
            marks.append(time.perf_counter())
        finally:
            adapter.close()
        peak_rss_mb = _peak_rss_mb()  # after close(): children count once waited for
        outcome = adapter.outcome()
        sim = _sim_metrics(w, outcome, adapters.percentile)

        to_check = outcome.completed if verify == "1" else []
        with spans.span("verify"):
            wrong = adapters.count_wrong_answers(adapter.tables, stream.specs, to_check)

    # Arrived but never answered: dropped, shed, or failed inside the program.
    unanswered = outcome.arrived - len(outcome.completed)
    result = {
        "workload": name,
        "workload_digest": stream.digest,
        "fingerprint": _fingerprint(outcome, sim),
        "arrived": outcome.arrived,
        "completed": len(outcome.completed),
        "checked": len(to_check),
        "failed": unanswered + wrong,
        "setup_s": spans.duration("setup"),
        "host_wall_s": marks[-1] - marks[0],
        "slices_s": [b - a for a, b in zip(marks, marks[1:])],
        "peak_rss_mb": peak_rss_mb,
        "sim": sim,
    }
    if profile is not None:
        agg = tracing.aggregate_profile(profile)
        result["per_layer"] = _per_layer(w, adapter.layer_counters(), agg, spans)
        with open(trace_path, "w") as fh:
            json.dump(
                {
                    "workload": name,
                    "seed": int(seed),
                    "generator_lateness_s": 0.0,
                    "host_spans": spans.records,
                    "layer_profile": agg,
                    "query_spans": _query_spans(outcome),
                },
                fh,
            )
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
