"""Global Query Plans: the CJOIN shared-operator pipeline.

One CJOIN pipeline per fact table evaluates the joins of *all* concurrent
star queries at once (Candea et al., VLDB'09):

* the **preprocessor** runs a circular scan of the fact table, admits new
  queries in batches between pages (pausing the pipeline), and tags each
  page with the set of queries it is addressed to;
* **filters** -- one per referenced dimension -- hold the union of the
  dimension tuples selected by any active query, each annotated with a
  query bitmap; worker threads push fact pages through the filter chain,
  AND-ing bitmaps and dropping tuples whose bitmap reaches zero (the
  paper's *horizontal* configuration by default; *vertical* -- one thread
  per filter -- via ``EngineConfig(cjoin_threads="vertical")``);
* the **distributor**, parallelized into distributor parts (Section 3.2),
  routes joined tuples to the output of every query whose bit is set,
  applying per-query fact predicates and projections.

Integrated as a QPipe stage (:class:`~repro.gqp.stage.CJoinStage`), CJOIN
packets themselves participate in Simultaneous Pipelining: with SP enabled,
an identical CJOIN packet inside the step WoP becomes a satellite and skips
admission, bitmaps and distribution entirely (CJOIN-SP).
"""

from repro.gqp.bitmap import SlotAllocator
from repro.gqp.cjoin import CJoinPipeline, Filter
from repro.gqp.stage import CJoinStage

__all__ = ["CJoinPipeline", "CJoinStage", "Filter", "SlotAllocator"]
