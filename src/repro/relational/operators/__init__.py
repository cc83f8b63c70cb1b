"""Physical operators (volcano-style, with cost collection)."""

from repro.relational.operators.base import (
    CostCollector,
    CostParameters,
    IoRequest,
    Operator,
    PipelineCost,
)
from repro.relational.operators.scan import TableScan
from repro.relational.operators.filter import Filter
from repro.relational.operators.index import (
    IndexNestedLoopJoin,
    IndexScan,
)
from repro.relational.operators.join import (
    BlockNestedLoopJoin,
    HashJoin,
    SortMergeJoin,
)
from repro.relational.operators.sort import Sort
from repro.relational.operators.aggregate import (
    AggregateSpec,
    HashAggregate,
    SortedAggregate,
)
from repro.relational.operators.limit import Limit
from repro.relational.operators.exchange import Exchange

__all__ = [
    "AggregateSpec",
    "BlockNestedLoopJoin",
    "CostCollector",
    "CostParameters",
    "Exchange",
    "Filter",
    "HashAggregate",
    "HashJoin",
    "IndexNestedLoopJoin",
    "IndexScan",
    "IoRequest",
    "Limit",
    "Operator",
    "PipelineCost",
    "Sort",
    "SortMergeJoin",
    "SortedAggregate",
    "TableScan",
]
