"""Process-wide defaults of the two execution-plane choices that *change
simulated time*.

The host data plane itself has no switches: charges are fused, predicates
run as batch kernels, scans emit column views over packed vectors and join
builds go through shared arrangements, always (``docs/performance.md``
records the measurements behind that).  What stays selectable is what
moves a simulated tick:

* ``query_folding`` -- the sharing layers (WoP registry, result cache,
  arrangements) match plans by *subsumption*
  (:mod:`repro.query.subsume`), not just exact signature equality: a
  packet can attach to a host whose output strictly contains its own
  through a residual post-filter, a cache probe can answer from a
  superset entry, and a range probe can ride a sibling arrangement's
  sorted variant.  Folded satellites skip sub-plan work and pay
  fold-search/residual charges instead; query **results** stay
  bit-identical, which the golden suite fingerprint-asserts.  Default on;
  ``REPRO_FOLD=0`` seeds it off at import time (spawned benchmark/worker
  processes inherit the parent's choice) and :func:`fast_path` pins it
  for a block.

* the **adaptive GQP data plane** (:mod:`repro.gqp.ordering`):
  ``gqp_adaptive_ordering`` -- the CJOIN filter chain re-sorts itself
  most-selective-first at logical-tick boundaries -- and
  ``gqp_filter_kernels`` -- columnar filter probing with chain-fused
  charges and pass-mask short-circuiting (fewer doomed tuples reach later
  filters; irrelevant filters are skipped).  Both default *off*, so
  default runs stay bit-identical to the committed golden metrics;
  ``REPRO_GQP_ORDERING=adaptive`` and ``REPRO_GQP_KERNELS=1`` seed them at
  import time.

``EngineConfig`` fields set to ``None`` fall back to these defaults, which
makes one env var / context manager flip whole sweeps.  This lives in
:mod:`repro.sim` (the lowest layer) so every layer can read it; engine code
imports the same switches through :mod:`repro.engine.config`, which
re-exports them."""

from __future__ import annotations

import contextlib
import os

_query_folding = os.environ.get("REPRO_FOLD", "1") not in ("0", "false")

_GQP_PLANE = {
    "adaptive_ordering": os.environ.get("REPRO_GQP_ORDERING", "") == "adaptive",
    "filter_kernels": os.environ.get("REPRO_GQP_KERNELS", "") not in ("", "0", "false"),
}


def query_folding_default() -> bool:
    """Process-wide default for subsumption-based query folding."""
    return _query_folding


@contextlib.contextmanager
def fast_path(query_folding: bool):
    """Pin the process-wide folding default for a block (tests, benchmarks,
    workers replaying the mode their parent captured)."""
    global _query_folding
    saved = _query_folding
    _query_folding = query_folding
    try:
        yield
    finally:
        _query_folding = saved


def gqp_adaptive_ordering_default() -> bool:
    """Process-wide default for selectivity-ordered CJOIN filter chains."""
    return _GQP_PLANE["adaptive_ordering"]


def gqp_filter_kernels_default() -> bool:
    """Process-wide default for columnar CJOIN filter kernels."""
    return _GQP_PLANE["filter_kernels"]


def set_gqp_plane(
    adaptive_ordering: bool | None = None, filter_kernels: bool | None = None
) -> None:
    """Set the process-wide adaptive-GQP defaults (``None`` leaves a knob
    untouched).  The CLI uses this to apply ``--gqp-ordering`` /
    ``--gqp-kernels`` to every engine a command builds, including the
    hard-coded CJOIN-SP configs inside the hybrid/service routers."""
    if adaptive_ordering is not None:
        _GQP_PLANE["adaptive_ordering"] = adaptive_ordering
    if filter_kernels is not None:
        _GQP_PLANE["filter_kernels"] = filter_kernels


@contextlib.contextmanager
def gqp_plane(adaptive_ordering: bool = False, filter_kernels: bool = False):
    """Temporarily override the adaptive-GQP defaults (benchmarks/tests)."""
    saved = dict(_GQP_PLANE)
    _GQP_PLANE["adaptive_ordering"] = adaptive_ordering
    _GQP_PLANE["filter_kernels"] = filter_kernels
    try:
        yield
    finally:
        _GQP_PLANE.update(saved)
