"""Time + energy cost model over physical operator trees.

The model mirrors the executor's replay arithmetic: it walks an operator
tree *without executing it*, predicts each pipeline's CPU cycles and I/O
bytes from table statistics, converts them to seconds against the target
server's devices, and prices energy under two accounting conventions:

* ``energy_full_joules`` — whole-system energy for the query's duration
  (idle draw included), what a wall meter would see;
* ``energy_attributed_joules`` — busy-time-only accounting (the paper's
  Figure 2 convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import OptimizerError
from repro.hardware.disk import HardDisk
from repro.relational.operators import (
    BlockNestedLoopJoin,
    Exchange,
    Filter,
    HashAggregate,
    HashJoin,
    Limit,
    Operator,
    Project,
    Sort,
    SortMergeJoin,
    SortedAggregate,
    TableScan,
)
from repro.relational.operators.base import CostParameters
from repro.optimizer.stats import (
    ColumnStats,
    TableStatistics,
    analyze_table,
    estimate_selectivity,
)
from repro.units import GIB, MIB

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.raid import RaidArray
    from repro.hardware.server import Server


@dataclass
class PipelineEstimate:
    """Predicted cost of one pipeline (scaled units).

    ``arrays`` holds (array, nbytes, n_random_requests) triples;
    random requests charge positioning instead of streaming.
    """

    cpu_cycles: float = 0.0
    io_bytes: float = 0.0
    arrays: list = field(default_factory=list)
    dram_grant_bytes: float = 0.0
    parallelism: int = 1

    # filled in by the conversion step
    cpu_seconds: float = 0.0
    io_seconds: float = 0.0
    seconds: float = 0.0


@dataclass
class PlanCost:
    """Predicted totals for a plan."""

    seconds: float
    cpu_seconds: float
    io_seconds: float
    energy_full_joules: float
    energy_attributed_joules: float
    out_rows: float
    pipelines: list[PipelineEstimate] = field(default_factory=list)

    def energy_delay_product(self, attributed: bool = False) -> float:
        energy = (self.energy_attributed_joules if attributed
                  else self.energy_full_joules)
        return energy * self.seconds


class _Estimate:
    """Cardinality + per-column stats flowing up the tree."""

    def __init__(self, rows: float, columns: dict[str, ColumnStats]) -> None:
        self.rows = rows
        self.columns = columns


class CostModel:
    """Costs operator trees against one server's hardware."""

    def __init__(self, server: "Server",
                 params: Optional[CostParameters] = None,
                 scale: float = 1.0,
                 chunk_bytes: float = 4 * MIB) -> None:
        if scale <= 0:
            raise OptimizerError("scale must be positive")
        self.server = server
        self.params = params or CostParameters()
        self.scale = scale
        self.chunk_bytes = chunk_bytes
        self._stats_cache: dict[str, TableStatistics] = {}

    # -- statistics --------------------------------------------------------
    def statistics_for(self, table) -> TableStatistics:
        """Cached ANALYZE of a table."""
        if table.name not in self._stats_cache:
            self._stats_cache[table.name] = analyze_table(table)
        return self._stats_cache[table.name]

    # -- entry point --------------------------------------------------------
    def cost(self, root: Operator) -> PlanCost:
        """Predict the full cost of a plan."""
        pipelines: list[PipelineEstimate] = [PipelineEstimate()]
        estimate = self._walk(root, pipelines)
        for pipeline in pipelines:
            self._convert(pipeline)
        seconds = sum(p.seconds for p in pipelines)
        cpu_seconds = sum(p.cpu_seconds for p in pipelines)
        io_seconds = sum(p.io_seconds for p in pipelines)
        full, attributed = self._energy(pipelines)
        return PlanCost(
            seconds=seconds, cpu_seconds=cpu_seconds, io_seconds=io_seconds,
            energy_full_joules=full, energy_attributed_joules=attributed,
            out_rows=estimate.rows, pipelines=pipelines)

    # -- per-pipeline conversion ------------------------------------------------
    def _convert(self, pipeline: PipelineEstimate) -> None:
        cpu = self.server.cpu
        degree = min(pipeline.parallelism, cpu.spec.cores)
        pipeline.cpu_seconds = pipeline.cpu_cycles / (
            cpu.effective_frequency_hz * degree)
        pipeline.io_seconds = self._io_seconds(pipeline)
        pipeline.seconds = max(pipeline.cpu_seconds, pipeline.io_seconds)

    def _io_seconds(self, pipeline: PipelineEstimate) -> float:
        if pipeline.io_bytes <= 0:
            return 0.0
        total = 0.0
        for array, nbytes, n_random in pipeline.arrays:
            bandwidth = sum(
                getattr(m.spec, "bandwidth_bytes_per_s", None)
                or m.spec.read_bandwidth_bytes_per_s
                for m in array.members)
            member = array.members[0]
            if n_random > 0:
                # random requests spread over the members in parallel
                per_member = n_random / array.width
                if isinstance(member, HardDisk):
                    overhead = per_member * (
                        member.spec.positioning_seconds
                        + member.spec.per_request_overhead_seconds)
                else:
                    overhead = per_member \
                        * member.spec.per_request_latency_seconds
            else:
                n_chunks = max(1.0, math.ceil(nbytes / self.chunk_bytes))
                if isinstance(member, HardDisk):
                    overhead = (member.spec.positioning_seconds
                                + n_chunks
                                * member.spec.per_request_overhead_seconds)
                else:
                    overhead = n_chunks \
                        * member.spec.per_request_latency_seconds
            total += nbytes / bandwidth + overhead
        return total

    # -- energy pricing -----------------------------------------------------
    def _energy(self, pipelines: list[PipelineEstimate]
                ) -> tuple[float, float]:
        server = self.server
        cpu = server.cpu
        idle_watts = server.idle_power_watts()
        full = 0.0
        attributed = 0.0
        cpu_active_extra = cpu.spec.peak_watts - cpu.spec.idle_watts
        for pipeline in pipelines:
            duration = pipeline.seconds
            degree = min(pipeline.parallelism, cpu.spec.cores)
            busy_fraction = degree / cpu.spec.cores
            grant_watts = (server.dram.spec.allocated_watts_per_gib
                           * pipeline.dram_grant_bytes / GIB)
            storage_extra = 0.0
            storage_active = 0.0
            if pipeline.io_seconds > 0:
                for array, nbytes, _n_random in pipeline.arrays:
                    share = nbytes / pipeline.io_bytes
                    for member in array.members:
                        if isinstance(member, HardDisk):
                            active = member.spec.active_watts
                            idle = member.spec.idle_watts
                        else:
                            active = member.spec.read_watts
                            idle = member.spec.idle_watts
                        storage_extra += (active - idle) * \
                            pipeline.io_seconds * share
                        storage_active += active * pipeline.io_seconds * share
            full += (idle_watts * duration
                     + cpu_active_extra * busy_fraction * pipeline.cpu_seconds
                     + storage_extra + grant_watts * duration)
            attributed += (cpu.active_power_per_unit_watts * degree
                           * pipeline.cpu_seconds
                           + storage_active + grant_watts * duration)
        return full, attributed

    # -- tree walk -----------------------------------------------------------
    def _walk(self, op: Operator,
              pipelines: list[PipelineEstimate]) -> _Estimate:
        handler = _HANDLERS.get(type(op))
        if handler is None:
            raise OptimizerError(f"cost model cannot price {op.describe()}")
        return handler(self, op, pipelines)

    def _current(self, pipelines: list[PipelineEstimate]) -> PipelineEstimate:
        return pipelines[-1]

    def _break(self, pipelines: list[PipelineEstimate]) -> None:
        pipelines.append(PipelineEstimate())

    # -- operator handlers -----------------------------------------------------
    def _scan(self, op: TableScan,
              pipelines: list[PipelineEstimate]) -> _Estimate:
        stats = self.statistics_for(op.table)
        params = self.params
        pipeline = self._current(pipelines)
        scan_bytes = op.table.scan_bytes(op.output_columns)
        if not op.shared_pass:
            pipeline.io_bytes += scan_bytes * self.scale
            pipeline.arrays.append(
                (op.table.placement, scan_bytes * self.scale, 0.0))
        plain = op.table.plain_bytes(op.output_columns)
        cycles = plain * params.cycles_per_scan_byte
        cycles += scan_bytes * op.table.decode_cycles_per_scan_byte(
            op.output_columns)
        cycles += stats.row_count * params.cycles_per_tuple_overhead
        if op.predicate is not None:
            cycles += stats.row_count * op.predicate.cycles()
        pipeline.cpu_cycles += cycles * self.scale
        selectivity = estimate_selectivity(op.predicate, stats)
        columns = {name: stat for name, stat in stats.columns.items()
                   if name in op.output_columns}
        return _Estimate(stats.row_count * selectivity, columns)

    def _filter(self, op: Filter,
                pipelines: list[PipelineEstimate]) -> _Estimate:
        child = self._walk(op.child, pipelines)
        self._current(pipelines).cpu_cycles += (
            child.rows * op.predicate.cycles() * self.scale)
        fake_stats = TableStatistics("_derived", int(child.rows) or 1,
                                     0, 0, columns=child.columns)
        selectivity = estimate_selectivity(op.predicate, fake_stats)
        return _Estimate(child.rows * selectivity, child.columns)

    def _project(self, op: Project,
                 pipelines: list[PipelineEstimate]) -> _Estimate:
        child = self._walk(op.child, pipelines)
        per_tuple = sum(e.cycles() for e in op.exprs)
        self._current(pipelines).cpu_cycles += (
            child.rows * per_tuple * self.scale)
        kept = {name: stat for name, stat in child.columns.items()
                if name in op.output_columns}
        return _Estimate(child.rows, kept)

    def _join_cardinality(self, left: _Estimate, right: _Estimate,
                          left_keys, right_keys) -> float:
        ndv = 1.0
        for lk, rk in zip(left_keys, right_keys):
            v_left = left.columns[lk].ndv if lk in left.columns else 0
            v_right = right.columns[rk].ndv if rk in right.columns else 0
            ndv = max(ndv, float(max(v_left, v_right)))
        return left.rows * right.rows / ndv

    def _hash_join(self, op: HashJoin,
                   pipelines: list[PipelineEstimate]) -> _Estimate:
        params = self.params
        build = self._walk(op.build, pipelines)
        pipeline = self._current(pipelines)
        pipeline.cpu_cycles += (build.rows * params.cycles_per_hash_build_tuple
                                * self.scale)
        self._break(pipelines)
        probe = self._walk(op.probe, pipelines)
        pipeline = self._current(pipelines)
        per_row = 8 * len(op.build.output_columns) + 48
        grant = (build.rows * per_row * params.hash_table_overhead_factor)
        pipeline.dram_grant_bytes += grant * self.scale
        out_rows = self._join_cardinality(build, probe,
                                          op.build_keys, op.probe_keys)
        pipeline.cpu_cycles += (
            probe.rows * params.cycles_per_hash_probe_tuple
            + out_rows * params.cycles_per_output_tuple) * self.scale
        return _Estimate(out_rows, {**build.columns, **probe.columns})

    def _nlj(self, op: BlockNestedLoopJoin,
             pipelines: list[PipelineEstimate]) -> _Estimate:
        params = self.params
        outer = self._walk(op.outer, pipelines)
        inner = self._walk(op.inner, pipelines)
        pipeline = self._current(pipelines)
        n_blocks = max(1.0, math.ceil(outer.rows / op.block_rows))
        inner_stats = self.statistics_for(op.inner.table)
        rescan_bytes = op.inner.table.scan_bytes(op.inner.output_columns) \
            * (n_blocks - 1)
        pipeline.io_bytes += rescan_bytes * self.scale
        if rescan_bytes:
            pipeline.arrays.append(
                (op.inner.table.placement, rescan_bytes * self.scale, 0.0))
        rescan_cpu = (
            op.inner.table.plain_bytes(op.inner.output_columns)
            * params.cycles_per_scan_byte
            + inner_stats.row_count * params.cycles_per_tuple_overhead
        ) * (n_blocks - 1)
        pipeline.cpu_cycles += rescan_cpu * self.scale
        pipeline.cpu_cycles += (outer.rows * inner.rows
                                * params.cycles_per_join_pair
                                * self.scale * self.scale)
        merged = {**outer.columns, **inner.columns}
        fake_stats = TableStatistics(
            "_pairs", max(1, int(outer.rows * inner.rows)), 0, 0,
            columns=merged)
        selectivity = self._join_predicate_selectivity(
            op.predicate, outer, inner, fake_stats)
        out_rows = outer.rows * inner.rows * selectivity
        pipeline.cpu_cycles += out_rows * params.cycles_per_output_tuple \
            * self.scale
        return _Estimate(out_rows, merged)

    def _join_predicate_selectivity(self, predicate, outer: _Estimate,
                                    inner: _Estimate, fake_stats) -> float:
        from repro.relational.expr import ColumnRef, Comparison
        if (isinstance(predicate, Comparison) and predicate.op == "="
                and isinstance(predicate.left, ColumnRef)
                and isinstance(predicate.right, ColumnRef)):
            names = (predicate.left.name, predicate.right.name)
            ndv = 1.0
            for name in names:
                for side in (outer, inner):
                    if name in side.columns:
                        ndv = max(ndv, float(side.columns[name].ndv))
            return 1.0 / ndv
        return estimate_selectivity(predicate, fake_stats)

    def _smj(self, op: SortMergeJoin,
             pipelines: list[PipelineEstimate]) -> _Estimate:
        params = self.params
        left = self._walk(op.left, pipelines)
        self._current(pipelines).cpu_cycles += self._sort_cycles(
            left.rows) * self.scale
        self._break(pipelines)
        right = self._walk(op.right, pipelines)
        self._current(pipelines).cpu_cycles += self._sort_cycles(
            right.rows) * self.scale
        self._break(pipelines)
        out_rows = self._join_cardinality(left, right,
                                          op.left_keys, op.right_keys)
        self._current(pipelines).cpu_cycles += (
            (left.rows + right.rows) * params.cycles_per_merge_tuple
            + out_rows * params.cycles_per_output_tuple) * self.scale
        return _Estimate(out_rows, {**left.columns, **right.columns})

    def _sort_cycles(self, rows: float) -> float:
        if rows < 2:
            return 0.0
        return rows * max(1.0, math.log2(rows)) \
            * self.params.cycles_per_sort_compare

    def _sort(self, op: Sort,
              pipelines: list[PipelineEstimate]) -> _Estimate:
        params = self.params
        child = self._walk(op.child, pipelines)
        pipeline = self._current(pipelines)
        data_bytes = child.rows * len(op.output_columns) * op.BYTES_PER_FIELD
        grant = op.memory_grant_bytes
        spills = (grant is not None and data_bytes > grant
                  and op.spill_placement is not None)
        if spills:
            assert grant is not None
            n_runs = max(2.0, math.ceil(data_bytes / grant))
            run_rows = max(1.0, child.rows / n_runs)
            pipeline.cpu_cycles += n_runs * self._sort_cycles(run_rows) \
                * self.scale
            spill = data_bytes * params.sort_run_overhead_factor * self.scale
            pipeline.io_bytes += spill
            pipeline.arrays.append((op.spill_placement, spill, 0.0))
            self._break(pipelines)
            pipeline = self._current(pipelines)
            pipeline.io_bytes += spill
            pipeline.arrays.append((op.spill_placement, spill, 0.0))
            passes = max(1.0, math.ceil(math.log(n_runs, 16))
                         if n_runs > 1 else 1.0)
            pipeline.cpu_cycles += (child.rows * params.cycles_per_merge_tuple
                                    * passes * self.scale)
        else:
            pipeline.cpu_cycles += self._sort_cycles(child.rows) * self.scale
            pipeline.dram_grant_bytes += data_bytes * self.scale
            self._break(pipelines)
            self._current(pipelines).cpu_cycles += (
                child.rows * params.cycles_per_output_tuple * self.scale)
        return _Estimate(child.rows, child.columns)

    def _group_count(self, child: _Estimate, group_by) -> float:
        if not group_by:
            return 1.0
        groups = 1.0
        for key in group_by:
            ndv = child.columns[key].ndv if key in child.columns else 10
            groups *= max(1, ndv)
        return min(child.rows, groups)

    def _agg_update_cycles(self, op, rows: float) -> float:
        expr_cycles = sum(s.expr.cycles() for s in op.aggregates
                          if s.expr is not None)
        return rows * (self.params.cycles_per_agg_update
                       * max(1, len(op.aggregates)) + expr_cycles)

    def _hash_agg(self, op: HashAggregate,
                  pipelines: list[PipelineEstimate]) -> _Estimate:
        child = self._walk(op.child, pipelines)
        pipeline = self._current(pipelines)
        pipeline.cpu_cycles += self._agg_update_cycles(op, child.rows) \
            * self.scale
        groups = self._group_count(child, op.group_by)
        pipeline.dram_grant_bytes += (
            groups * (8 * len(op.output_columns) + 64)) * self.scale
        self._break(pipelines)
        self._current(pipelines).cpu_cycles += (
            groups * self.params.cycles_per_output_tuple * self.scale)
        kept = {name: stat for name, stat in child.columns.items()
                if name in op.group_by}
        return _Estimate(groups, kept)

    def _sorted_agg(self, op: SortedAggregate,
                    pipelines: list[PipelineEstimate]) -> _Estimate:
        child = self._walk(op.child, pipelines)
        pipeline = self._current(pipelines)
        pipeline.cpu_cycles += self._agg_update_cycles(op, child.rows) \
            * self.scale
        groups = self._group_count(child, op.group_by)
        pipeline.cpu_cycles += groups * self.params.cycles_per_output_tuple \
            * self.scale
        kept = {name: stat for name, stat in child.columns.items()
                if name in op.group_by}
        return _Estimate(groups, kept)

    def _index_scan(self, op, pipelines: list[PipelineEstimate]
                    ) -> _Estimate:
        from repro.relational.operators.index import (
            CYCLES_PER_FETCHED_ROW,
            CYCLES_PER_TREE_LEVEL,
        )
        stats = self.statistics_for(op.table)
        col_stats = stats.column(op.index.column)
        fraction = 1.0
        if col_stats is not None and col_stats.histogram:
            high_f = (col_stats.range_selectivity("<=", op.high)
                      if op.high is not None else 1.0)
            low_f = (col_stats.range_selectivity("<", op.low)
                     if op.low is not None else 0.0)
            fraction = max(0.0, high_f - low_f)
        rows = stats.row_count * fraction
        pipeline = self._current(pipelines)
        leaf_bytes = op.index.range_leaf_bytes(op.low, op.high)
        pipeline.io_bytes += leaf_bytes * self.scale
        pipeline.arrays.append(
            (op.table.placement, leaf_bytes * self.scale, 0.0))
        fetch_bytes, random_requests = op.index.heap_fetch_plan(
            max(0, int(rows)))
        if fetch_bytes:
            pipeline.io_bytes += fetch_bytes * self.scale
            pipeline.arrays.append(
                (op.table.placement, fetch_bytes * self.scale,
                 random_requests * self.scale))
        pipeline.cpu_cycles += (
            rows * CYCLES_PER_FETCHED_ROW
            + op.index.tree.height * CYCLES_PER_TREE_LEVEL) * self.scale
        columns = {name: stat for name, stat in stats.columns.items()
                   if name in op.output_columns}
        return _Estimate(rows, columns)

    def _index_nlj(self, op, pipelines: list[PipelineEstimate]
                   ) -> _Estimate:
        from repro.relational.operators.index import (
            CYCLES_PER_FETCHED_ROW,
            CYCLES_PER_TREE_LEVEL,
        )
        params = self.params
        outer = self._walk(op.outer, pipelines)
        inner_stats = self.statistics_for(op.inner_table)
        inner_col = inner_stats.column(op.index.column)
        matches_per_probe = 1.0
        if inner_col is not None and inner_col.ndv > 0:
            matches_per_probe = inner_stats.row_count / inner_col.ndv
        out_rows = outer.rows * matches_per_probe
        pipeline = self._current(pipelines)
        probe_bytes = outer.rows * op.index.probe_io_bytes()
        fetch_bytes, random_fetches = op.index.heap_fetch_plan(
            max(0, int(out_rows)))
        pipeline.io_bytes += (probe_bytes + fetch_bytes) * self.scale
        pipeline.arrays.append(
            (op.inner_table.placement,
             (probe_bytes + fetch_bytes) * self.scale,
             (outer.rows + random_fetches) * self.scale))
        pipeline.cpu_cycles += (
            outer.rows * op.index.tree.height * CYCLES_PER_TREE_LEVEL
            + out_rows * CYCLES_PER_FETCHED_ROW
            + out_rows * params.cycles_per_output_tuple) * self.scale
        inner_columns = {
            name: stat for name, stat in inner_stats.columns.items()
            if name in op.inner_columns}
        return _Estimate(out_rows, {**outer.columns, **inner_columns})

    def _limit(self, op: Limit,
               pipelines: list[PipelineEstimate]) -> _Estimate:
        child = self._walk(op.child, pipelines)
        return _Estimate(min(child.rows, op.count), child.columns)

    def _exchange(self, op: Exchange,
                  pipelines: list[PipelineEstimate]) -> _Estimate:
        child = self._walk(op.child, pipelines)
        self._current(pipelines).parallelism = op.degree
        return child


from repro.relational.operators.index import (  # noqa: E402
    IndexNestedLoopJoin,
    IndexScan,
)

_HANDLERS = {
    IndexNestedLoopJoin: CostModel._index_nlj,
    IndexScan: CostModel._index_scan,
    TableScan: CostModel._scan,
    Filter: CostModel._filter,
    Project: CostModel._project,
    HashJoin: CostModel._hash_join,
    BlockNestedLoopJoin: CostModel._nlj,
    SortMergeJoin: CostModel._smj,
    Sort: CostModel._sort,
    HashAggregate: CostModel._hash_agg,
    SortedAggregate: CostModel._sorted_agg,
    Limit: CostModel._limit,
    Exchange: CostModel._exchange,
}
