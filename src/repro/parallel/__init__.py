"""Parallel sweep fabric: multi-core execution of experiment cells.

Every sweep in :mod:`repro.bench` enumerates :class:`CellSpec`\\ s --
picklable, self-seeding descriptions of one simulation -- and hands them
to :func:`run_cells`, which executes them serially (``jobs=1``, the exact
in-process path) or on a pool of :class:`WorkerHandle`\\ s (``jobs=N`` /
``REPRO_JOBS``) and merges results by cell key.  Output is byte-identical
for any worker count; see :mod:`repro.parallel.cells` for why.
"""

from repro.parallel.cells import (
    CellResult,
    CellSpec,
    DatasetSpec,
    WorkloadSpec,
    execute_cell,
)
from repro.parallel.fabric import (
    JOBS_ENV,
    CellFailure,
    ParallelRunner,
    SweepError,
    SweepOutcome,
    resolve_jobs,
    run_cells,
)
from repro.parallel.workers import WorkerCrashed, WorkerHandle, WorkerUnresponsive

__all__ = [
    "JOBS_ENV",
    "CellFailure",
    "CellResult",
    "CellSpec",
    "DatasetSpec",
    "ParallelRunner",
    "SweepError",
    "SweepOutcome",
    "WorkerCrashed",
    "WorkerHandle",
    "WorkerUnresponsive",
    "WorkloadSpec",
    "execute_cell",
    "resolve_jobs",
    "run_cells",
]
