"""Index-based access paths: index scan and index nested-loop join.

These are the access paths that make §5.1's physical-design space (and
§4.1's join-choice example) real: a selective range predicate can read
a few leaf pages plus matching heap rows instead of the whole table —
but unclustered rid fetches are *random* I/O, so the optimizer must
weigh positioning energy against scan bandwidth.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional, Sequence

from repro.errors import PlanError
from repro.relational.operators.base import (
    CYCLES_PER_OUTPUT_TUPLE,
    CostCollector,
    Operator,
)
from repro.storage.index import TableIndex
from repro.storage.manager import Table

_index_counter = itertools.count()

#: CPU cycles per B+tree level traversed during a probe
CYCLES_PER_TREE_LEVEL = 60.0
#: CPU cycles to decode one fetched heap row
CYCLES_PER_FETCHED_ROW = 80.0


class IndexScan(Operator):
    """Range (or exact-match) scan through a B+tree index.

    ``low``/``high`` bound the indexed column (inclusive, None = open).
    """

    def __init__(self, table: Table, column: str,
                 low: Any = None, high: Any = None,
                 columns: Optional[Sequence[str]] = None) -> None:
        index = table.index_on(column)
        if index is None:
            raise PlanError(
                f"table {table.name!r} has no index on {column!r}")
        if low is None and high is None:
            raise PlanError("index scan needs at least one bound; "
                            "use TableScan for full scans")
        names = list(columns) if columns else table.schema.column_names()
        for name in names:
            if name not in table.schema:
                raise PlanError(
                    f"table {table.name!r} has no column {name!r}")
        super().__init__(names)
        self.table = table
        self.index: TableIndex = index
        self.low = low
        self.high = high
        self.stream_id = f"ixscan-{table.name}-{next(_index_counter)}"

    def children(self) -> list[Operator]:
        return []

    def _charge(self, collector: CostCollector, n: float) -> None:
        # leaf pages stream sequentially along the leaf chain
        leaf_bytes = self.index.range_leaf_bytes(self.low, self.high)
        collector.charge_io(self.table.placement, leaf_bytes,
                            self.stream_id)
        # heap fetches: sequential if clustered, random otherwise (an
        # estimated count fetches whole rows)
        fetch_bytes, random_requests = self.index.heap_fetch_plan(int(n))
        if random_requests:
            collector.charge_random_io(self.table.placement, fetch_bytes,
                                       random_requests)
        elif fetch_bytes:
            collector.charge_io(self.table.placement, fetch_bytes,
                                self.stream_id)
        # one descent to the range's first leaf, then one decode a row
        collector.charge_cpu(n * CYCLES_PER_FETCHED_ROW
                             + self.index.tree.height * CYCLES_PER_TREE_LEVEL)

    def execute(self, collector: CostCollector) -> list[tuple]:
        rows = list(self.index.range_rows(self.low, self.high))
        self._charge(collector, len(rows))
        positions = [self.table.schema.position(c)
                     for c in self.output_columns]
        return [tuple(row[p] for p in positions) for row in rows]

    def describe(self) -> str:
        kind = "clustered" if self.index.clustered else "secondary"
        return (f"IndexScan({self.table.name}.{self.index.column} "
                f"[{self.low!r}..{self.high!r}], {kind})")


class IndexNestedLoopJoin(Operator):
    """For each outer tuple, probe the inner table's index.

    The paper's §4.1 nested-loop alternative made practical: per-probe
    cost is one leaf page plus the matching heap rows, both random I/O —
    no hash table, no memory grant.
    """

    def __init__(self, outer: Operator, inner_table: Table,
                 inner_column: str, outer_key: str,
                 inner_columns: Optional[Sequence[str]] = None) -> None:
        index = inner_table.index_on(inner_column)
        if index is None:
            raise PlanError(
                f"table {inner_table.name!r} has no index on "
                f"{inner_column!r}")
        if outer_key not in outer.output_columns:
            raise PlanError(
                f"outer side does not produce {outer_key!r}")
        inner_names = (list(inner_columns) if inner_columns
                       else inner_table.schema.column_names())
        overlap = set(outer.output_columns) & set(inner_names)
        if overlap:
            raise PlanError(
                f"join sides share column names {sorted(overlap)}")
        super().__init__(list(outer.output_columns) + inner_names)
        self.outer = outer
        self.inner_table = inner_table
        self.index: TableIndex = index
        self.outer_key = outer_key
        self.inner_columns = inner_names

    def children(self) -> list[Operator]:
        return [self.outer]

    def _charge(self, collector: CostCollector, n_probes: float,
                n_out: float) -> None:
        # each probe reads one leaf page; each match fetches a heap row
        # (an estimated count fetches whole rows)
        probe_bytes = n_probes * self.index.probe_io_bytes()
        fetch_bytes, random_fetches = self.index.heap_fetch_plan(int(n_out))
        collector.charge_random_io(
            self.inner_table.placement,
            probe_bytes + fetch_bytes,
            n_probes + random_fetches)
        collector.charge_cpu(
            n_probes * self.index.tree.height * CYCLES_PER_TREE_LEVEL
            + n_out * CYCLES_PER_FETCHED_ROW
            + n_out * CYCLES_PER_OUTPUT_TUPLE)

    def execute(self, collector: CostCollector) -> list[tuple]:
        outer_rows = self.outer.execute(collector)
        key_pos = self.outer.output_columns.index(self.outer_key)
        inner_positions = [self.inner_table.schema.position(c)
                           for c in self.inner_columns]
        out: list[tuple] = []
        for outer_row in outer_rows:
            for match in self.index.search_rows(outer_row[key_pos]):
                out.append(outer_row
                           + tuple(match[p] for p in inner_positions))
        self._charge(collector, len(outer_rows), len(out))
        return out

    def describe(self) -> str:
        return (f"IndexNestedLoopJoin({self.outer_key} = "
                f"{self.inner_table.name}.{self.index.column})")
