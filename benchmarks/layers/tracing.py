"""Host-side tracing from outside the program: phase spans and a per-layer
aggregate of a ``cProfile`` run.  Imports nothing from ``repro``.

A layer is a package under ``src/repro/``.  Self time of a function in
``repro/<layer>/`` belongs to that layer; self time of a builtin or stdlib
function belongs to the layers that called it, in proportion to the time
each caller's edge accounts for.  What cannot be traced back to a layer (the
benchmark's own frames, ``repro.bench``, the profiler's root) is reported as
``other`` and left out of the shares.
"""

from __future__ import annotations

import contextlib
import pstats
import re
import time

LAYERS = ("data", "storage", "query", "sim", "engine", "gqp", "cache", "server", "shard", "parallel")

#: Per-layer metrics read off public entry points in the profile:
#: metric -> (what to sum, the workload mechanism that guarantees the entry
#: point runs, its (path suffix, function name) pairs).
ENTRY_POINTS = {
    "storage.arrange_acquire_s": ("cum_s", "storage", (("repro/storage/arrangements.py", "acquire"),)),
    "query.merge_s": (
        "cum_s",
        "shard",
        (("repro/query/merge.py", "merge_states"), ("repro/query/merge.py", "finalize_rows")),
    ),
    # The parent blocks in the pipe's poll/recv inside WorkerHandle.recv;
    # one call is one request/response round trip.
    "shard.gather_wait_s": ("cum_s", "shard", (("repro/parallel/workers.py", "recv"),)),
    "parallel.ipc_roundtrips": ("calls", "parallel", (("repro/parallel/workers.py", "recv"),)),
}

_LAYER_OF_PATH = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")


class Spans:
    """Host phase spans, kept in memory: name, start, end, parent."""

    def __init__(self, t0: float) -> None:
        self.t0 = t0
        self.records: list[dict] = []
        self._open: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        self._open.append(name)
        start = time.perf_counter() - self.t0
        try:
            yield
        finally:
            self._open.pop()
            self.records.append(
                {"name": name, "start": start, "end": time.perf_counter() - self.t0, "parent": parent}
            )

    def duration(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.records if r["name"] == name)


def _layer_of(func: tuple) -> str | None:
    m = _LAYER_OF_PATH.search(func[0])
    return m.group(1) if m and m.group(1) in LAYERS else None


def aggregate_profile(profile) -> dict:
    """``{"layers": {L: {"self_s", "calls"}}, "other_s", "entry_points":
    {"path:name": {"cum_s", "calls"}}}`` of one ``cProfile.Profile``."""
    stats = pstats.Stats(profile).stats  # func -> (cc, nc, tt, ct, {caller: (cc, nc, tt, ct)})
    memo: dict[tuple, dict[str, float]] = {}

    def owners(func: tuple, seen: frozenset) -> dict[str, float]:
        """Fractions of ``func``'s time owed to each layer (sum <= 1)."""
        layer = _layer_of(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        if func in seen:  # recursion among non-layer frames: owed to nobody
            return {}
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[3] for edge in callers.values())
        out: dict[str, float] = {}
        for caller, edge in callers.items():
            if edge[3] <= 0:
                continue
            for layer, frac in owners(caller, seen | {func}).items():
                out[layer] = out.get(layer, 0.0) + frac * edge[3] / total
        memo[func] = out
        return out

    layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    other = 0.0
    entry: dict[str, dict] = {}
    wanted = {point for _field, _key, points in ENTRY_POINTS.values() for point in points}
    for func, (_cc, nc, tt, ct, callers) in stats.items():
        layer = _layer_of(func)
        if layer is not None:
            layers[layer]["self_s"] += tt
            layers[layer]["calls"] += nc
            for suffix, name in wanted:
                if func[2] == name and func[0].replace("\\", "/").endswith(suffix):
                    entry[f"{suffix}:{name}"] = {"cum_s": ct, "calls": nc}
            continue
        owed = 0.0
        for caller, edge in callers.items():
            for owner, frac in owners(caller, frozenset({func})).items():
                layers[owner]["self_s"] += edge[2] * frac
                owed += edge[2] * frac
        other += tt - owed
    return {"layers": layers, "other_s": max(other, 0.0), "entry_points": entry}
