"""Join operators: hash join, block nested-loop join, sort-merge join.

§4.1 singles these out: hash join "relies on using a large chunk of
memory for building and maintaining the hash table.  From a power
perspective, these are expensive operations and may tip the balance in
favor of nested-loop join in more occasions than before."  The hash join
therefore records its hash-table memory grant, which the replay phase
holds in DRAM for the probe pipeline's duration; the nested-loop join
instead re-reads its inner table per outer block.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import PlanError
from repro.relational.expr import Expr, make_layout
from repro.relational.operators.base import (
    CYCLES_PER_HASH_BUILD_TUPLE,
    CYCLES_PER_HASH_PROBE_TUPLE,
    CYCLES_PER_JOIN_PAIR,
    CYCLES_PER_MERGE_TUPLE,
    CYCLES_PER_OUTPUT_TUPLE,
    HASH_TABLE_OVERHEAD_FACTOR,
    CostCollector,
    Operator,
)
from repro.relational.operators.scan import TableScan
from repro.relational.operators.sort import _sort_cycles


def _check_keys(side: Operator, keys: Sequence[str], role: str) -> None:
    missing = set(keys) - set(side.output_columns)
    if missing:
        raise PlanError(f"{role} keys {missing} not produced by "
                        f"{side.describe()}")


def _joined_columns(left: Operator, right: Operator) -> list[str]:
    overlap = set(left.output_columns) & set(right.output_columns)
    if overlap:
        raise PlanError(
            f"join sides share column names {sorted(overlap)}; "
            "project/rename before joining")
    return left.output_columns + right.output_columns


class HashJoin(Operator):
    """Equi-join: build a hash table on one side, stream the other.

    Output columns are build-side columns followed by probe-side columns.
    """

    def __init__(self, build: Operator, probe: Operator,
                 build_keys: Sequence[str],
                 probe_keys: Sequence[str]) -> None:
        if len(build_keys) != len(probe_keys) or not build_keys:
            raise PlanError("key lists must be same non-zero length")
        _check_keys(build, build_keys, "build")
        _check_keys(probe, probe_keys, "probe")
        super().__init__(_joined_columns(build, probe))
        self.build = build
        self.probe = probe
        self.build_keys = list(build_keys)
        self.probe_keys = list(probe_keys)

    def children(self) -> list[Operator]:
        return [self.build, self.probe]

    def _charge_build(self, collector: CostCollector,
                      n_build: float) -> None:
        collector.charge_cpu(n_build * CYCLES_PER_HASH_BUILD_TUPLE)
        # The build phase ends its pipeline: the hash table materializes.
        collector.break_pipeline(label=f"build:{self.describe()}")

    def _charge_probe(self, collector: CostCollector, n_build: float,
                      n_probe: float, n_out: float) -> None:
        # The probe pipeline holds the hash table in memory end to end;
        # rough per-row footprint: 8 bytes/field + bucket overhead.
        per_row = 8 * len(self.build.output_columns) + 48
        collector.charge_dram_grant(
            n_build * per_row * HASH_TABLE_OVERHEAD_FACTOR)
        collector.charge_cpu(n_probe * CYCLES_PER_HASH_PROBE_TUPLE
                             + n_out * CYCLES_PER_OUTPUT_TUPLE)

    def execute(self, collector: CostCollector) -> list[tuple]:
        build_rows = self.build.execute(collector)
        self._charge_build(collector, len(build_rows))
        build_layout = make_layout(self.build.output_columns)
        build_positions = [build_layout[k] for k in self.build_keys]
        table: dict[tuple, list[tuple]] = {}
        for row in build_rows:
            key = tuple(row[p] for p in build_positions)
            table.setdefault(key, []).append(row)

        probe_rows = self.probe.execute(collector)
        probe_layout = make_layout(self.probe.output_columns)
        probe_positions = [probe_layout[k] for k in self.probe_keys]
        out: list[tuple] = []
        for row in probe_rows:
            key = tuple(row[p] for p in probe_positions)
            for match in table.get(key, ()):
                out.append(match + row)
        self._charge_probe(collector, len(build_rows), len(probe_rows),
                           len(out))
        return out

    def describe(self) -> str:
        return f"HashJoin({self.build_keys} = {self.probe_keys})"


class BlockNestedLoopJoin(Operator):
    """Join by re-scanning the inner table once per outer block.

    Uses almost no memory (one outer block), at the price of repeated
    inner I/O — the §4.1 memory-power counterpoint to the hash join.
    The inner side must be a :class:`TableScan` so re-reads can be
    charged against its table.
    """

    def __init__(self, outer: Operator, inner: TableScan,
                 predicate: Expr, block_rows: int = 1024) -> None:
        if not isinstance(inner, TableScan):
            raise PlanError("nested-loop inner side must be a TableScan")
        if block_rows < 1:
            raise PlanError("block_rows must be >= 1")
        columns = _joined_columns(outer, inner)
        missing = predicate.columns() - set(columns)
        if missing:
            raise PlanError(f"join predicate references {missing}")
        super().__init__(columns)
        self.outer = outer
        self.inner = inner
        self.predicate = predicate
        self.block_rows = block_rows

    def children(self) -> list[Operator]:
        return [self.outer, self.inner]

    def _charge(self, collector: CostCollector, n_outer: float,
                n_inner: float, n_out: float) -> None:
        # The inner scan charged its own single read + CPU.  Charge the
        # (n_blocks - 1) re-reads.
        params = collector.params
        table, columns = self.inner.table, self.inner.output_columns
        rereads = max(1, -(-n_outer // self.block_rows)) - 1
        collector.charge_io(table.placement,
                            table.scan_bytes(columns) * rereads,
                            self.inner.stream_id)
        collector.charge_cpu(
            (table.plain_bytes(columns) * params.cycles_per_scan_byte
             + table.row_count * params.cycles_per_tuple_overhead)
            * rereads)
        collector.charge_cpu_quadratic(
            n_outer * n_inner * CYCLES_PER_JOIN_PAIR)
        collector.charge_cpu(n_out * CYCLES_PER_OUTPUT_TUPLE)

    def execute(self, collector: CostCollector) -> list[tuple]:
        outer_rows = self.outer.execute(collector)
        # Evaluate the inner scan once, for correctness.
        inner_rows = self.inner.execute(collector)
        layout = make_layout(self.output_columns)
        predicate = self.predicate
        out = []
        for outer_row in outer_rows:
            for inner_row in inner_rows:
                combined = outer_row + inner_row
                if predicate.evaluate(combined, layout) is True:
                    out.append(combined)
        self._charge(collector, len(outer_rows), len(inner_rows), len(out))
        return out

    def describe(self) -> str:
        return f"BlockNestedLoopJoin({self.predicate!r})"


class SortMergeJoin(Operator):
    """Equi-join over inputs sorted here on the join keys.

    Both inputs are materialized and sorted (blocking), then merged.
    """

    def __init__(self, left: Operator, right: Operator,
                 left_keys: Sequence[str],
                 right_keys: Sequence[str]) -> None:
        if len(left_keys) != len(right_keys) or not left_keys:
            raise PlanError("key lists must be same non-zero length")
        _check_keys(left, left_keys, "left")
        _check_keys(right, right_keys, "right")
        super().__init__(_joined_columns(left, right))
        self.left = left
        self.right = right
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)

    def children(self) -> list[Operator]:
        return [self.left, self.right]

    def _charge_sort(self, collector: CostCollector, n: float,
                     side: str) -> None:
        collector.charge_cpu(_sort_cycles(n))
        collector.break_pipeline(label=f"sort-{side}:{self.describe()}")

    def _charge_merge(self, collector: CostCollector, n_left: float,
                      n_right: float, n_out: float) -> None:
        collector.charge_cpu((n_left + n_right) * CYCLES_PER_MERGE_TUPLE
                             + n_out * CYCLES_PER_OUTPUT_TUPLE)

    def execute(self, collector: CostCollector) -> list[tuple]:
        left_rows = self.left.execute(collector)
        self._charge_sort(collector, len(left_rows), "left")
        right_rows = self.right.execute(collector)
        self._charge_sort(collector, len(right_rows), "right")

        left_layout = make_layout(self.left.output_columns)
        right_layout = make_layout(self.right.output_columns)
        lpos = [left_layout[k] for k in self.left_keys]
        rpos = [right_layout[k] for k in self.right_keys]
        left_sorted = sorted(left_rows, key=lambda r: tuple(r[p] for p in lpos))
        right_sorted = sorted(right_rows,
                              key=lambda r: tuple(r[p] for p in rpos))
        out: list[tuple] = []
        i = j = 0
        while i < len(left_sorted) and j < len(right_sorted):
            lkey = tuple(left_sorted[i][p] for p in lpos)
            rkey = tuple(right_sorted[j][p] for p in rpos)
            if lkey < rkey:
                i += 1
            elif lkey > rkey:
                j += 1
            else:
                j_end = j
                while (j_end < len(right_sorted)
                       and tuple(right_sorted[j_end][p] for p in rpos) == lkey):
                    j_end += 1
                i_end = i
                while (i_end < len(left_sorted)
                       and tuple(left_sorted[i_end][p] for p in lpos) == lkey):
                    i_end += 1
                for li in range(i, i_end):
                    for rj in range(j, j_end):
                        out.append(left_sorted[li] + right_sorted[rj])
                i, j = i_end, j_end
        self._charge_merge(collector, len(left_rows), len(right_rows),
                           len(out))
        return out

    def describe(self) -> str:
        return f"SortMergeJoin({self.left_keys} = {self.right_keys})"
