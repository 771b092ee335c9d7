"""Dataset generators: Star Schema Benchmark and TPC-H lineitem.

Generated tables are scaled-down replicas (~1/1000 of real cardinality) with
per-table ``row_weight`` factors so that simulated CPU/I-O charges reflect
paper-scale volumes.  See DESIGN.md ("Data-scale substitution").

Generation is seeded and exactly reproducible (:mod:`repro.data.rng`):
every random column comes from one draw kernel,
:func:`~repro.data.rng.draw_columns`, whose values and stream are those of
a per-row ``random.Random.randrange`` loop.
"""

from repro.data.ssb import SSB_NATIONS, SSB_REGIONS, SsbDataset, generate_ssb
from repro.data.tpch import TpchDataset, generate_tpch

__all__ = [
    "SSB_NATIONS",
    "SSB_REGIONS",
    "SsbDataset",
    "TpchDataset",
    "generate_ssb",
    "generate_tpch",
]
