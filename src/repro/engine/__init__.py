"""The QPipe-style staged execution engine with Simultaneous Pipelining.

Every relational operator is a *stage*; an incoming plan becomes a tree of
*packets*, one per operator, exchanging pages through either push-based FIFO
buffers (the original QPipe design) or pull-based Shared Pages Lists (this
paper's contribution).  Stages detect identical in-flight sub-plans by plan
signature and -- within the pivot operator's Window of Opportunity -- attach
the new packet as a *satellite* that reuses the host's results.
"""

from repro.engine.config import (
    CJOIN,
    CJOIN_SP,
    QPIPE,
    QPIPE_CS,
    QPIPE_SP,
    EngineConfig,
)
from repro.engine.exchange import END, FifoExchange
from repro.engine.qpipe import QPipeEngine, QueryHandle
from repro.engine.spl import SharedPagesList, SplExchange
from repro.engine.wop import WindowOfOpportunity, wop_gain

__all__ = [
    "CJOIN",
    "CJOIN_SP",
    "END",
    "EngineConfig",
    "FifoExchange",
    "QPIPE",
    "QPIPE_CS",
    "QPIPE_SP",
    "QPipeEngine",
    "QueryHandle",
    "SharedPagesList",
    "SplExchange",
    "WindowOfOpportunity",
    "wop_gain",
]
