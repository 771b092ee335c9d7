"""Query representation: expressions, plan nodes, star-query specs, and the
SSB / TPC-H query templates used in the paper's evaluation.

Plans carry *signatures* -- canonical hashable encodings of an operator and
its whole sub-plan -- which is how QPipe stages detect common sub-plans for
Simultaneous Pipelining and how the CJOIN stage detects identical star
queries for CJOIN-SP.
"""

from repro.query.expr import (
    And,
    Arith,
    Between,
    Col,
    Cmp,
    Const,
    Expr,
    InSet,
    Or,
)
from repro.query.plan import (
    AggregateNode,
    AggSpec,
    CJoinNode,
    HashJoinNode,
    PlanNode,
    ScanNode,
    SelectNode,
    SortNode,
)
from repro.query.star import DimJoinSpec, StarQuerySpec

__all__ = [
    "AggSpec",
    "AggregateNode",
    "And",
    "Arith",
    "Between",
    "CJoinNode",
    "Cmp",
    "Col",
    "Const",
    "DimJoinSpec",
    "Expr",
    "HashJoinNode",
    "InSet",
    "Or",
    "PlanNode",
    "ScanNode",
    "SelectNode",
    "SortNode",
    "StarQuerySpec",
]
