"""Calibrated cost model: CPU cycles and I/O bytes per unit of real work.

Scale substitution
------------------
Generated tables are ~1/1000 of real SSB/TPC-H sizes (pure-Python row
processing cannot run 512 concurrent queries over 6M-row tables).  Every
generated row carries a *row weight* -- how many real rows it represents --
and all charges below are **cycles per real tuple**, multiplied by the weight
at the charge site.  I/O is likewise charged in *real* bytes.

Calibration
-----------
Constants are chosen so that the headline absolute numbers land in the
paper's range on the 24-core 1.86 GHz machine (see DESIGN.md §2):

* TPC-H Q1, SF=1, memory-resident, 1 query  ->  a few seconds;
* 64 identical Q1 with push-based circular-scan SP  ->  tens of seconds,
  producer-bound at ~3 cores (Figure 6a);
* the same with pull-based SPL  ->  ~8 s at ~19 cores (Figure 6b).

The *shape* of every experiment (who wins, crossovers, rough factors) comes
from the engine structure, not from these constants; the constants only set
absolute magnitudes.  All of them are plain dataclass fields, so ablation
benches can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from repro.sim.commands import CPU, CPU_FUSED, CpuCommand

#: CostModel fields expressing CPU cycles, scaled by ``volcano_cpu_factor``
#: in :attr:`CostModel.mature`.
_CYCLE_FIELDS = (
    "scan_tuple",
    "pred_term",
    "read_tuple",
    "bufferpool_page",
    "hash_func",
    "hash_equal",
    "build_insert",
    "probe_visit",
    "join_emit",
    "agg_update",
    "agg_per_function",
    "sort_per_item_log",
    "packet_dispatch",
)


@dataclass(frozen=True)
class CostModel:
    """Cycles per real tuple (or per page / per event where noted)."""

    # ---- scans -------------------------------------------------------
    scan_tuple: float = 500.0  # extract one tuple via the storage manager
    pred_term: float = 60.0  # evaluate one predicate term on a tuple
    read_tuple: float = 50.0  # a consumer reading a shared/exchanged tuple
    bufferpool_page: float = 12_000.0  # per-page buffer pool bookkeeping (per generated page)

    # ---- hash joins ----------------------------------------------------
    hash_func: float = 75.0  # hash() -- the paper's "Hashing" bucket
    hash_equal: float = 40.0  # equal() on a candidate match -- "Hashing"
    build_insert: float = 150.0  # insert into hash table -- "Joins"
    probe_visit: float = 200.0  # probe bookkeeping per input tuple -- "Joins"
    join_emit: float = 500.0  # materialize one joined output tuple (copy + alloc)

    # ---- aggregation / sort -------------------------------------------
    agg_update: float = 120.0  # group lookup bookkeeping per input tuple
    agg_per_function: float = 40.0  # per aggregate function updated
    sort_per_item_log: float = 60.0  # n log2 n comparison-swap unit

    # ---- pipelined exchange -------------------------------------------
    #: push-based SP: copy one tuple into ONE satellite's FIFO (memcpy plus
    #: buffer management; comparable to hash-join probe work per tuple)
    copy_tuple: float = 300.0
    fifo_page_overhead: float = 20_000.0  # FIFO put+get per generated page
    spl_emit_page: float = 15_000.0  # SPL producer append per generated page
    spl_read_page: float = 10_000.0  # SPL consumer advance per generated page
    spl_lock_cycles: float = 3_000.0  # SPL lock acquisition (category "locks")

    # ---- CJOIN / GQP ---------------------------------------------------
    bitmap_word: float = 25.0  # bitwise AND per 64-query bitmap word
    #: extra bookkeeping per *shared* probe: the hash table holds the union
    #: of the dimension tuples selected by all queries (larger and
    #: cache-hostile), entries carry bitmaps, and the horizontal pipeline
    #: contends while passing tuples between threads.  The paper measures
    #: this as CJOIN's "Joins" CPU exceeding even 8 concurrent query-centric
    #: joins (Figure 11), i.e. roughly an order of magnitude per tuple.
    shared_probe_extra: float = 1800.0
    distribute_tuple: float = 100.0  # distributor: per (tuple, relevant query)
    #: preprocessor work per fact tuple: tuple extraction plus circular-scan
    #: management (points of entry, finalization checks) -- the paper notes
    #: these responsibilities "slow down the circular scan significantly"
    preprocessor_tuple: float = 620.0
    filter_sync_page: float = 8_000.0  # horizontal config: per-page queue sync
    admission_bitmap: float = 60.0  # extend one dim tuple's bitmap by one query
    admission_pause: float = 4e-3  # seconds of full pipeline stall per batch
    admission_pause_per_filter: float = 1e-3  # extra stall per touched filter

    # ---- shared result cache (repro.cache) ------------------------------
    #: signature lookup on stage dispatch (hash of an interned plan tuple)
    cache_probe: float = 5_000.0
    #: replaying one cached page through an exchange: a memory read plus
    #: list-cursor bookkeeping -- comparable to an SPL consumer advance
    cache_replay_page: float = 8_000.0
    #: copying one produced page into the cache store (fill consumer)
    cache_store_page: float = 10_000.0

    # ---- subsumption folding (repro.query.subsume) ----------------------
    #: testing one candidate provider for subsumption at admission: walk
    #: two plan signatures, merge per-column constraint maps -- a bit more
    #: than a plain signature hash probe
    fold_probe: float = 6_000.0
    #: one-time setup of a successful fold: compile the residual kernel,
    #: open a reader on the host exchange / cached entry
    fold_attach: float = 30_000.0

    # ---- shard scatter (repro.shard) ------------------------------------
    #: per-page bookkeeping of placing one fact page on a shard at
    #: start-up (placement computation + page metadata)
    scatter_page: float = 25_000.0
    #: per *shipped* byte of building a shard's fact partition -- zero for
    #: zero-copy range views of packed buffers, real buffer bytes for hash
    #: gathers (see :func:`repro.shard.partition.partition_shipping`)
    scatter_byte: float = 2.0
    #: per real row of building one shared join arrangement (hash the key
    #: plus one index insert -- the same work a query-centric build pays
    #: per tuple, paid ONCE per (table, key) instead of once per query)
    arrange_row: float = 225.0

    # ---- packet / plan management --------------------------------------
    packet_dispatch: float = 400_000.0  # per packet: create+queue+teardown (cycles)

    # ---- baseline ("mature system") scaling ----------------------------
    volcano_cpu_factor: float = 0.55  # Postgres stand-in: cheaper per-tuple code

    def __post_init__(self) -> None:
        # Memo tables for the command builders below.  Hot loops rebuild the
        # same charge (same n / weight) hundreds of thousands of times per
        # run; CpuCommand is immutable by contract, so handing back the
        # cached instance is safe and the cycles float -- computed once by
        # the exact same expression -- is bit-identical.  The cost model is
        # the only constructor of CPU commands in the package, so every
        # operator of every run on this model yields the same instances.
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_fused", {})

    @cached_property
    def mature(self) -> "CostModel":
        """The Volcano baseline's cheaper per-tuple code paths: every cycle
        field scaled by ``volcano_cpu_factor``.  Derived once per model, so
        the baseline's charges are memo hits across runs too."""
        f = self.volcano_cpu_factor
        return replace(self, **{name: getattr(self, name) * f for name in _CYCLE_FIELDS})

    # ------------------------------------------------------------------
    # Fixed charges: one immutable command per cost model, so every
    # operator yields -- and fuses -- the same instance.  A latch whose
    # cycles are zero is free: its charge is None and nothing is yielded.
    # ------------------------------------------------------------------
    @cached_property
    def dispatch_charge(self) -> CpuCommand:
        """Create, queue and tear down one packet."""
        return CPU(self.packet_dispatch, "misc")

    @cached_property
    def spl_read_charge(self) -> CpuCommand:
        return CPU(self.spl_read_page, "misc")

    @cached_property
    def spl_emit_charge(self) -> CpuCommand:
        return CPU(self.spl_emit_page, "misc")

    @cached_property
    def spl_latch_charge(self) -> CpuCommand | None:
        return CPU(self.spl_lock_cycles, "locks") if self.spl_lock_cycles else None

    @cached_property
    def bufferpool_latch_charge(self) -> CpuCommand | None:
        cycles = self.bufferpool_page * 0.25
        return CPU(cycles, "locks") if cycles else None

    @cached_property
    def bufferpool_lookup_charge(self) -> CpuCommand:
        return CPU(self.bufferpool_page * 0.75, "scans")

    @cached_property
    def fifo_overhead_charge(self) -> CpuCommand:
        return CPU(self.fifo_page_overhead, "misc")

    @cached_property
    def filter_sync_charge(self) -> CpuCommand:
        return CPU(self.filter_sync_page, "locks")

    @cached_property
    def cache_probe_charge(self) -> CpuCommand:
        return CPU(self.cache_probe, "misc")

    @cached_property
    def cache_replay_charge(self) -> CpuCommand:
        return CPU(self.cache_replay_page, "misc")

    @cached_property
    def cache_store_charge(self) -> CpuCommand:
        return CPU(self.cache_store_page, "misc")

    def fused(self, *parts: CpuCommand) -> CpuCommand:
        """The one fused command of ``parts`` (see
        :func:`~repro.sim.commands.CPU_FUSED`), built on first use and
        handed back from then on.  Keyed by the parts themselves: they are
        cost-model commands, never rebuilt, so identity stands for value,
        and a page loop's fused charge is a dict hit rather than a new
        object."""
        memo = self._fused
        cmd = memo.get(parts)
        if cmd is None:
            cmd = memo[parts] = CPU_FUSED(*parts)
        return cmd

    # ------------------------------------------------------------------
    # Convenience CpuCommand builders.  ``n`` is a count of *generated*
    # tuples, ``weight`` the table's real-rows-per-generated-row factor.
    # ------------------------------------------------------------------
    def scan(self, n: float, weight: float) -> CpuCommand:
        memo = self._memo
        key = ("scan", n, weight)
        cmd = memo.get(key)
        if cmd is None:
            cmd = memo[key] = CPU(self.scan_tuple * n * weight, "scans")
        return cmd

    def predicate(self, n: float, weight: float, terms: int = 1) -> CpuCommand:
        memo = self._memo
        key = ("pred", n, weight, terms)
        cmd = memo.get(key)
        if cmd is None:
            cmd = memo[key] = CPU(self.pred_term * terms * n * weight, "scans")
        return cmd

    def read(self, n: float, weight: float) -> CpuCommand:
        memo = self._memo
        key = ("read", n, weight)
        cmd = memo.get(key)
        if cmd is None:
            cmd = memo[key] = CPU(self.read_tuple * n * weight, "misc")
        return cmd

    def hashing(self, n: float, weight: float, equals: float = 0.0) -> CpuCommand:
        memo = self._memo
        key = ("hash", n, weight, equals)
        cmd = memo.get(key)
        if cmd is None:
            cmd = memo[key] = CPU(
                (self.hash_func * n + self.hash_equal * equals) * weight, "hashing"
            )
        return cmd

    def build(self, n: float, weight: float) -> CpuCommand:
        memo = self._memo
        key = ("build", n, weight)
        cmd = memo.get(key)
        if cmd is None:
            cmd = memo[key] = CPU(self.build_insert * n * weight, "joins")
        return cmd

    def probe(self, n: float, weight: float, shared: bool = False) -> CpuCommand:
        memo = self._memo
        key = ("probe", n, weight, shared)
        cmd = memo.get(key)
        if cmd is None:
            per = self.probe_visit + (self.shared_probe_extra if shared else 0.0)
            cmd = memo[key] = CPU(per * n * weight, "joins")
        return cmd

    def emit_join(self, n: float, weight: float) -> CpuCommand:
        memo = self._memo
        key = ("emit", n, weight)
        cmd = memo.get(key)
        if cmd is None:
            cmd = memo[key] = CPU(self.join_emit * n * weight, "joins")
        return cmd

    def aggregate(self, n: float, weight: float, functions: int = 1) -> CpuCommand:
        memo = self._memo
        key = ("agg", n, weight, functions)
        cmd = memo.get(key)
        if cmd is None:
            cmd = memo[key] = CPU(
                (self.agg_update + self.agg_per_function * functions) * n * weight,
                "aggregation",
            )
        return cmd

    def group_hash(self, n: float, weight: float) -> CpuCommand:
        """Group-table hashing of a hash aggregation: aggregation work (the
        paper's "Hashing" bucket covers hash-join hash()/equal() only)."""
        memo = self._memo
        key = ("ghash", n, weight)
        cmd = memo.get(key)
        if cmd is None:
            cmd = memo[key] = CPU(self.hash_func * n * weight, "aggregation")
        return cmd

    def shared_aggregate(self, n: float, weight: float, functions: int = 1) -> CpuCommand:
        """CJOIN's shared aggregation: group hashing plus the running-sum
        update of ``n`` distributed tuples."""
        memo = self._memo
        key = ("sagg", n, weight, functions)
        cmd = memo.get(key)
        if cmd is None:
            cmd = memo[key] = CPU(
                (self.hash_func + self.agg_update + self.agg_per_function * functions)
                * n
                * weight,
                "aggregation",
            )
        return cmd

    def sort(self, n: float, weight: float) -> CpuCommand:
        """n log2 n comparison work for sorting ``n`` tuples."""
        import math

        memo = self._memo
        key = ("sort", n, weight)
        cmd = memo.get(key)
        if cmd is None:
            work = n * max(math.log2(n), 1.0) * self.sort_per_item_log * weight
            cmd = memo[key] = CPU(work, "aggregation")
        return cmd

    def copy(self, n: float, weight: float) -> CpuCommand:
        memo = self._memo
        key = ("copy", n, weight)
        cmd = memo.get(key)
        if cmd is None:
            cmd = memo[key] = CPU(self.copy_tuple * n * weight, "misc")
        return cmd

    def bitmap_and(self, n: float, weight: float, nqueries: int) -> CpuCommand:
        memo = self._memo
        key = ("band", n, weight, nqueries)
        cmd = memo.get(key)
        if cmd is None:
            words = max(1, (nqueries + 63) // 64)
            cmd = memo[key] = CPU(self.bitmap_word * words * n * weight, "joins")
        return cmd

    def distribute(self, tuple_query_pairs: float, weight: float) -> CpuCommand:
        memo = self._memo
        key = ("dist", tuple_query_pairs, weight)
        cmd = memo.get(key)
        if cmd is None:
            cmd = memo[key] = CPU(self.distribute_tuple * tuple_query_pairs * weight, "misc")
        return cmd

    def preprocess(self, n: float, weight: float) -> CpuCommand:
        memo = self._memo
        key = ("prep", n, weight)
        cmd = memo.get(key)
        if cmd is None:
            cmd = memo[key] = CPU(self.preprocessor_tuple * n * weight, "scans")
        return cmd

    def annotate(self, entries: float, weight: float) -> CpuCommand:
        """Extend (or clear) the query bitmaps of ``entries`` dimension
        tuples resident in a CJOIN filter."""
        memo = self._memo
        key = ("annot", entries, weight)
        cmd = memo.get(key)
        if cmd is None:
            cmd = memo[key] = CPU(self.admission_bitmap * entries * weight, "joins")
        return cmd

    def scatter_cycles(self, pages: float, shipped_bytes: float) -> float:
        """Cycles to materialize one shard's fact partition: per-page
        placement bookkeeping plus per-byte copy cost for whatever the
        partition build actually shipped.  Returned as a raw cycle count
        (not a :class:`CpuCommand`): the shard tier charges it on the
        front end's *virtual timeline* (via the shard backlog), not
        through a simulator."""
        return self.scatter_page * pages + self.scatter_byte * shipped_bytes

    def arrange_cycles(self, rows: float) -> float:
        """Cycles to build one shared join arrangement over ``rows`` real
        rows (hash + insert per row).  Returned as a raw cycle count (not
        a :class:`CpuCommand`): the shard tier charges it once at start-up
        on the front end's *virtual timeline* (via the shard backlog,
        exactly like :meth:`scatter_cycles`); reusing queries pay only
        their probe cost, which is already in their simulated service
        times."""
        return self.arrange_row * rows

    def fold_search(self, candidates: float) -> CpuCommand:
        """Subsumption search over ``candidates`` providers plus the
        one-time attach cost of the fold it found.  Charged only on
        *successful* folds (a failed search rides the packet-dispatch
        charge the query-centric path pays anyway)."""
        memo = self._memo
        key = ("fold", candidates)
        cmd = memo.get(key)
        if cmd is None:
            cmd = memo[key] = CPU(
                self.fold_probe * max(candidates, 1.0) + self.fold_attach, "misc"
            )
        return cmd


#: Default calibration used throughout tests and benchmarks.
DEFAULT_COST_MODEL = CostModel()
