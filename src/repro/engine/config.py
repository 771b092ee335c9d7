"""Engine configurations.

The paper's Section 5.1 compares five configurations of the integrated
QPipe+CJOIN engine; Figure 6 additionally varies the SP communication model
(push-based FIFO vs pull-based SPL).  All of them are instances of
:class:`EngineConfig`:

* ``QPIPE``     -- no sharing at all (the query-centric baseline),
* ``QPIPE_CS``  -- SP for the table-scan stage only (circular scans),
* ``QPIPE_SP``  -- + SP for the join stage,
* ``CJOIN``     -- star-query joins routed to the shared CJOIN pipeline,
* ``CJOIN_SP``  -- + SP for the CJOIN stage itself.

SP for aggregation and sort stages exists but is off in every preset, as in
the paper ("this is done on purpose to isolate the benefits of SP for joins
only").
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of one engine configuration."""

    name: str = "QPipe"
    #: SP per stage
    sp_scan: bool = False  # circular scans (linear WoP)
    sp_join: bool = False  # join stage (step WoP)
    sp_agg: bool = False  # off in all paper experiments
    sp_sort: bool = False  # off in all paper experiments
    #: route star-query joins to the CJOIN global query plan
    use_cjoin: bool = False
    sp_cjoin: bool = False  # SP on whole CJOIN packets (step WoP)
    #: SP communication model: 'spl' (pull) or 'fifo' (push)
    comm: str = "spl"
    #: run-time prediction model for *push-based* SP (Johnson et al. [14]):
    #: attach a satellite only when forwarding beats private evaluation on
    #: the current load.  Ignored under 'spl' (pull-based sharing has no
    #: serialization point, so sharing is always beneficial -- the paper's
    #: argument for not needing a model at all).
    sp_prediction: bool = False
    #: SPL bound in pages (paper: 256 KB / 32 KB pages = 8)
    spl_max_pages: int = 8
    #: CJOIN thread configuration (paper Section 5.2.2): "horizontal" --
    #: a pool of ``filter_workers`` threads each carrying a page through
    #: the whole filter chain -- or "vertical" -- one thread *per filter*,
    #: pages handed between them ("these configurations, however, do not
    #: necessarily provide better performance").
    cjoin_threads: str = "horizontal"
    filter_workers: int = 4
    distributor_parts: int = 2
    #: DataPath-style shared aggregation (paper Section 2.4): fold each
    #: star query's aggregation into the GQP -- the distributor keeps "a
    #: running sum for each group and query" and emits finalized rows at
    #: query completion, eliminating the per-query aggregation packets.
    shared_aggregation: bool = False
    #: SharedDB-style batched execution (paper Section 2.4): admit new
    #: queries only when the current generation has fully completed.  The
    #: paper's noted drawback emerges: "a new query may suffer increased
    #: latency, and the latency of a batch is dominated by the
    #: longest-running query."  Off by default (CJOIN admits continuously).
    gqp_batched_execution: bool = False
    #: subsumption-based query folding: admission, the result cache, and
    #: the dimension-selection memo match by *subsumption*
    #: (:mod:`repro.query.subsume`) in addition to exact signatures -- a
    #: satellite attaches to a superset host through a residual
    #: post-filter, a cache probe answers from a superset entry, a
    #: selection filters a sibling's rows.  Folding skips sub-plan work, so
    #: it *changes simulated timing*; query results stay bit-identical
    #: (golden suite fingerprint-asserts both settings).
    query_folding: bool = True

    def __post_init__(self) -> None:
        if self.comm not in ("spl", "fifo"):
            raise ValueError("comm must be 'spl' or 'fifo'")
        if self.spl_max_pages < 1:
            raise ValueError("spl_max_pages must be >= 1")
        if self.filter_workers < 1 or self.distributor_parts < 1:
            raise ValueError("CJOIN needs at least one worker of each kind")
        if self.sp_cjoin and not self.use_cjoin:
            raise ValueError("sp_cjoin requires use_cjoin")
        if self.shared_aggregation and not self.use_cjoin:
            raise ValueError("shared_aggregation requires use_cjoin")
        if self.gqp_batched_execution and not self.use_cjoin:
            raise ValueError("gqp_batched_execution requires use_cjoin")
        if self.cjoin_threads not in ("horizontal", "vertical"):
            raise ValueError("cjoin_threads must be 'horizontal' or 'vertical'")

    def with_comm(self, comm: str) -> "EngineConfig":
        return replace(self, comm=comm, name=f"{self.name} ({comm.upper()})")


#: The paper's five configurations (Section 5.1).
QPIPE = EngineConfig(name="QPipe")
QPIPE_CS = EngineConfig(name="QPipe-CS", sp_scan=True)
QPIPE_SP = EngineConfig(name="QPipe-SP", sp_scan=True, sp_join=True)
CJOIN = EngineConfig(name="CJOIN", sp_scan=True, use_cjoin=True)
CJOIN_SP = EngineConfig(name="CJOIN-SP", sp_scan=True, use_cjoin=True, sp_cjoin=True)

PAPER_CONFIGS = (QPIPE, QPIPE_CS, QPIPE_SP, CJOIN, CJOIN_SP)
