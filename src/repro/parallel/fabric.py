"""Worker-pool execution fabric for experiment cells.

The sweeps in :mod:`repro.bench` are embarrassingly parallel: each cell is
a closed simulation determined entirely by its :class:`CellSpec`, so cells
can run on any core, in any order, and the merged sweep is byte-identical
to a serial run.  This is the shard-and-merge shape the paper itself
exploits at the systems level (QPipe saturates every core in Figure 10
while a serial harness uses exactly one).

Guarantees:

* **Determinism** -- results are merged *by cell key in submission order*,
  and every cell derives its own RNG streams from its spec (see
  :mod:`repro.parallel.cells`), so ``jobs=N`` output equals ``jobs=1``
  output byte for byte.
* **Exact serial fallback** -- ``jobs=1`` calls the same cell function
  in-process, no pool, no pickling.
* **Robustness** -- ``jobs=N`` runs on a pool of worker processes
  (:class:`~repro.parallel.workers.WorkerHandle`).  A cell that raises in a
  worker, or kills it (the worker is respawned), is re-run serially in the
  parent once; a second failure is a structured :class:`CellFailure`.  A
  per-cell ``timeout``, counted from dispatch, kills and respawns a stuck
  cell's worker and reports a ``"timeout"`` failure instead of a hang.
* **Ordered progress** -- results are reported in submission order, as
  the completed prefix grows, so progress lines are deterministic even
  though completion order is not.
"""

from __future__ import annotations

import functools
import math
import os
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Any, Callable, Sequence

from repro.parallel.cells import CellResult, CellSpec, execute_cell
from repro.parallel.workers import WorkerCrashed, WorkerHandle, serve

__all__ = [
    "CellFailure",
    "ParallelRunner",
    "SweepError",
    "SweepOutcome",
    "resolve_jobs",
    "run_cells",
]

#: Environment variable consulted when no explicit ``jobs`` is given.
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: int | None = None) -> int:
    """Explicit ``jobs`` argument > ``REPRO_JOBS`` env > 1 (serial)."""
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(f"{JOBS_ENV}={raw!r} is not an integer")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclass
class CellFailure:
    """A cell that produced no result: structured, never a hang."""

    key: str
    kind: str  # "timeout" | "error"
    message: str

    def __str__(self) -> str:  # pragma: no cover - formatting convenience
        return f"[{self.kind}] {self.key}: {self.message}"


class SweepError(RuntimeError):
    """Raised when a sweep has failed cells and the caller asked to raise."""

    def __init__(self, failures: Sequence[CellFailure]):
        self.failures = list(failures)
        lines = "\n".join(f"  - {f}" for f in self.failures)
        super().__init__(f"{len(self.failures)} cell(s) failed:\n{lines}")


@dataclass
class SweepOutcome:
    """Merged results of one sweep, keyed and ordered by submission."""

    results: dict[str, Any]  # key -> fn(item) return value, submission order
    failures: list[CellFailure] = field(default_factory=list)
    jobs: int = 1
    wall_s: float = 0.0

    def cell(self, key: str) -> Any:
        """The *measurement* of one cell (unwraps :class:`CellResult`)."""
        out = self.results[key]
        return out.result if isinstance(out, CellResult) else out

    def timings(self) -> dict[str, Any]:
        """Host-side attribution for export: per-cell wall clock + worker."""
        cells = {
            key: out.attribution()
            for key, out in self.results.items()
            if isinstance(out, CellResult)
        }
        return {
            "jobs": self.jobs,
            "wall_s": round(self.wall_s, 4),
            "cells": cells,
        }


def _item_key(item: Any) -> str:
    return item.key if hasattr(item, "key") else str(item)


class ParallelRunner:
    """Runs picklable work items on a pool of worker processes and merges
    their results deterministically (see module docstring for the
    contract).

    Items and results cross a pipe, so they must be picklable; ``fn``
    should be module-level (it is pickled where fork is unavailable).
    ``timeout`` bounds each cell's wall-clock run from its dispatch to a
    worker; it must be ``None`` or a positive number of seconds."""

    def __init__(
        self,
        jobs: int | None = None,
        timeout: float | None = None,
        progress: Callable[[str], None] | None = None,
    ):
        if timeout is not None and not timeout > 0:  # NaN included
            raise ValueError(f"timeout must be > 0 seconds, got {timeout}")
        self.jobs = resolve_jobs(jobs)
        self.timeout = timeout
        self.progress = progress

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        key_of: Callable[[Any], str] = _item_key,
    ) -> SweepOutcome:
        keys = [key_of(item) for item in items]
        dupes = {k for k in keys if keys.count(k) > 1}
        if dupes:
            raise ValueError(f"duplicate cell keys: {sorted(dupes)}")
        t0 = time.perf_counter()
        if self.jobs == 1 or len(items) <= 1:
            outcome = self._run_serial(fn, items, keys)
        else:
            outcome = self._run_pool(fn, items, keys)
        outcome.wall_s = time.perf_counter() - t0
        return outcome

    # -- serial ------------------------------------------------------------

    def _run_serial(self, fn, items, keys) -> SweepOutcome:
        outcome = SweepOutcome(results={}, jobs=1)
        for i, (key, item) in enumerate(zip(keys, items)):
            ok, out = _answer(fn, item)
            failure = None if ok else CellFailure(key, "error", out)
            self._settle(outcome, i, len(items), key, out, failure)
        return outcome

    def _settle(self, outcome, i, total, key, out, failure, note="") -> None:
        """Merge cell ``i``'s result or failure and report it; cells are
        settled in submission order."""
        if failure is None:
            outcome.results[key] = out
            note = _describe(out) + note
        else:
            outcome.failures.append(failure)
            note = f"FAILED ({failure.kind})"
        if self.progress is not None:
            self.progress(f"[{i + 1}/{total}] {key}: {note}")

    # -- worker pool -------------------------------------------------------

    def _run_pool(self, fn, items, keys) -> SweepOutcome:
        jobs = min(self.jobs, len(items))
        _prewarm_datasets(items)
        outcome = SweepOutcome(results={}, jobs=jobs)
        answer = functools.partial(_answer, fn)
        handles = [WorkerHandle(serve, (answer,), f"cell-worker-{n}") for n in range(jobs)]
        idle = list(handles)
        queue = iter(range(len(items)))
        running: dict[WorkerHandle, tuple[int, float]] = {}  # handle -> (cell, deadline)
        settled: dict[int, tuple[Any, CellFailure | None, str]] = {}
        try:
            for h in handles:
                h.start()
            for reported, key in enumerate(keys):
                while reported not in settled:
                    # zip draws a worker first, so no cell is taken without one
                    for h, i in zip(idle, queue):
                        running[h] = (i, time.monotonic() + (self.timeout or math.inf))
                        try:
                            h.send(items[i])
                        except WorkerCrashed:
                            pass  # surfaces as EOF in the wait below
                    nearest = min(deadline for _, deadline in running.values())
                    budget = None if nearest == math.inf else max(0.0, nearest - time.monotonic())
                    ready = wait([h.conn for h in running], budget)
                    now = time.monotonic()
                    idle = [h for h, (_, end) in running.items() if h.conn in ready or now >= end]
                    for h in idle:
                        i, _ = running.pop(h)
                        settled[i] = self._collect(fn, h, keys[i], items[i], h.conn in ready)
                self._settle(outcome, reported, len(items), key, *settled.pop(reported))
        finally:
            for h in handles:
                h.kill()
        return outcome

    def _collect(self, fn, handle, key, item, answered: bool):
        """Settle the cell ``handle`` answered, died on or overran: its
        result, its one serial retry in the parent, or a timeout."""
        if not answered:
            handle.respawn()
            message = f"no result within {self.timeout:g}s (worker killed and respawned)"
            return None, CellFailure(key, "timeout", message), ""
        try:
            ok, out = handle.recv(timeout=0)
        except WorkerCrashed:
            handle.respawn()
            out, failure = self._retry_serial(fn, key, item, "worker crashed")
        else:
            if ok:
                return out, None, ""
            # The cell raised in the worker: retry serially once so a
            # transient/worker-only failure doesn't cost the sweep.  Keep
            # the worker-side traceback: if the retry *also* fails, the
            # report must show both failures -- they can differ (e.g.
            # worker-only state), and the original is usually the one
            # that matters.
            out, failure = self._retry_serial(fn, key, item, "raised in worker", original=out)
        return out, failure, " (serial retry)"

    def _retry_serial(self, fn, key, item, why, original: str | None = None):
        try:
            out = fn(item)
        except Exception:
            message = f"{why}; serial retry failed:\n{traceback.format_exc(limit=8)}"
            if original is not None:
                message = (
                    f"{why}:\n{original}"
                    f"serial retry also failed:\n{traceback.format_exc(limit=8)}"
                )
            return None, CellFailure(key, "error", message)
        if isinstance(out, CellResult):
            out.retried = True
        return out, None


def _describe(out: Any) -> str:
    if isinstance(out, CellResult):
        return f"ok ({out.wall_s:.2f}s, worker {out.worker})"
    return "ok"


def _prewarm_datasets(items: Sequence[Any]) -> None:
    """Generate each distinct dataset once in the parent, so every forked
    worker inherits it copy-on-write instead of regenerating it."""
    seen = set()
    for item in items:
        dataset = getattr(item, "dataset", None)
        if dataset is not None and dataset not in seen:
            seen.add(dataset)
            dataset.generate()


def _answer(fn: Callable[[Any], Any], item: Any) -> tuple[bool, Any]:
    """One run of a cell, in a worker or in-process: ``(True, fn(item))``,
    or ``(False, traceback)`` when ``fn`` raises."""
    try:
        return True, fn(item)
    except Exception:
        return False, traceback.format_exc(limit=8)


def run_cells(
    specs: Sequence[CellSpec],
    jobs: int | None = None,
    timeout: float | None = None,
    progress: Callable[[str], None] | None = None,
    raise_on_failure: bool = True,
) -> SweepOutcome:
    """Execute experiment cells (serially or on a worker pool) and merge by
    key.  The standard entry point for every sweep in :mod:`repro.bench`:
    raising on failure keeps a lost cell from silently truncating a
    figure."""
    runner = ParallelRunner(jobs=jobs, timeout=timeout, progress=progress)
    outcome = runner.map(execute_cell, specs)
    if raise_on_failure and outcome.failures:
        raise SweepError(outcome.failures)
    return outcome
