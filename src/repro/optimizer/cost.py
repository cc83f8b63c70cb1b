"""Time + energy cost model over physical operator trees.

The model walks an operator tree *without executing it*.  It estimates
each operator's input and output cardinalities from table statistics,
and hands them to the operator's own charge statement (the ``_charge``
methods its ``execute()`` calls with the counts it produced), which
charges a :class:`CostCollector` at the model's scale.  It then converts
each pipeline's cycles and bytes to seconds against the target server's
devices, and prices energy under two accounting conventions:

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
from repro.hardware.ssd import REQUEST_LATENCY_SECONDS
from repro.relational.expr import ColumnRef, Comparison
from repro.relational.operators import (
    BlockNestedLoopJoin,
    CostCollector,
    CostParameters,
    Exchange,
    Filter,
    HashAggregate,
    HashJoin,
    IndexNestedLoopJoin,
    IndexScan,
    Limit,
    Operator,
    PipelineCost,
    Sort,
    SortMergeJoin,
    SortedAggregate,
    TableScan,
)
from repro.relational.executor import DEFAULT_CHUNK_BYTES
from repro.optimizer.stats import (
    ColumnStats,
    TableStatistics,
    analyze_table,
    estimate_selectivity,
)
from repro.units import GIB

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.server import Server


@dataclass
class PlanCost:
    """Predicted totals for a plan."""

    seconds: float
    cpu_seconds: float
    io_seconds: float
    energy_full_joules: float
    energy_attributed_joules: float
    out_rows: float
    pipelines: list[PipelineCost] = field(default_factory=list)

    def energy_delay_product(self) -> float:
        return self.energy_full_joules * self.seconds


class _Estimate:
    """Cardinality + per-column stats flowing up the tree."""

    def __init__(self, rows: float, columns: dict[str, ColumnStats]) -> None:
        self.rows = rows
        self.columns = columns


def _kept(columns: dict[str, ColumnStats], names) -> dict[str, ColumnStats]:
    return {name: stat for name, stat in columns.items() if name in names}


class CostModel:
    """Costs operator trees against one server's hardware."""

    def __init__(self, server: "Server",
                 params: Optional[CostParameters] = None,
                 scale: float = 1.0) -> None:
        if scale <= 0:
            raise OptimizerError("scale must be positive")
        self.server = server
        self.params = params or CostParameters()
        self.scale = scale
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
        collector = CostCollector(params=self.params, scale=self.scale)
        estimate = self._walk(root, collector)
        pipelines = collector.pipelines
        timings = [self._seconds(pipeline) for pipeline in pipelines]
        full, attributed = self._energy(pipelines, timings)
        return PlanCost(
            seconds=sum(max(cpu, io) for cpu, io in timings),
            cpu_seconds=sum(cpu for cpu, _io in timings),
            io_seconds=sum(io for _cpu, io in timings),
            energy_full_joules=full, energy_attributed_joules=attributed,
            out_rows=estimate.rows, pipelines=pipelines)

    # -- per-pipeline conversion ------------------------------------------------
    def _seconds(self, pipeline: PipelineCost) -> tuple[float, float]:
        """(CPU, I/O) seconds of a pipeline; it takes the larger."""
        cpu = self.server.cpu
        degree = min(pipeline.parallelism, cpu.spec.cores)
        return (pipeline.cpu_cycles / (cpu.effective_frequency_hz * degree),
                self._io_seconds(pipeline))

    def _io_seconds(self, pipeline: PipelineCost) -> float:
        total = 0.0
        for req in pipeline.io:
            members = req.array.members
            bandwidth = sum(
                getattr(m.spec, "bandwidth_bytes_per_s", None)
                or m.spec.read_bandwidth_bytes_per_s
                for m in members)
            member = members[0]
            if req.n_random_requests > 0:
                # random requests spread over the members in parallel
                per_member = req.n_random_requests / req.array.width
                if isinstance(member, HardDisk):
                    overhead = per_member * (
                        member.spec.positioning_seconds
                        + member.spec.per_request_overhead_seconds)
                else:
                    overhead = per_member \
                        * REQUEST_LATENCY_SECONDS
            else:
                n_chunks = max(1.0, math.ceil(req.nbytes
                                              / DEFAULT_CHUNK_BYTES))
                if isinstance(member, HardDisk):
                    overhead = (member.spec.positioning_seconds
                                + n_chunks
                                * member.spec.per_request_overhead_seconds)
                else:
                    overhead = n_chunks \
                        * REQUEST_LATENCY_SECONDS
            total += req.nbytes / bandwidth + overhead
        return total

    # -- energy pricing -----------------------------------------------------
    def _energy(self, pipelines: list[PipelineCost],
                timings: list[tuple[float, float]]) -> tuple[float, float]:
        server = self.server
        cpu = server.cpu
        idle_watts = server.idle_power_watts()
        full = 0.0
        attributed = 0.0
        cpu_active_extra = cpu.spec.peak_watts - cpu.spec.idle_watts
        for pipeline, (cpu_seconds, io_seconds) in zip(pipelines, timings):
            duration = max(cpu_seconds, io_seconds)
            degree = min(pipeline.parallelism, cpu.spec.cores)
            busy_fraction = degree / cpu.spec.cores
            grant_watts = (server.dram.spec.allocated_watts_per_gib
                           * pipeline.dram_grant_bytes / GIB)
            storage_extra = 0.0
            storage_active = 0.0
            if io_seconds > 0:
                io_bytes = pipeline.io_bytes
                for req in pipeline.io:
                    share = req.nbytes / io_bytes
                    for member in req.array.members:
                        if isinstance(member, HardDisk):
                            active = member.spec.active_watts
                            idle = member.spec.idle_watts
                        else:
                            active = member.spec.read_watts
                            idle = member.spec.idle_watts
                        storage_extra += (active - idle) * \
                            io_seconds * share
                        storage_active += active * io_seconds * share
            full += (idle_watts * duration
                     + cpu_active_extra * busy_fraction * cpu_seconds
                     + storage_extra + grant_watts * duration)
            attributed += (cpu.active_power_per_unit_watts * degree
                           * cpu_seconds
                           + storage_active + grant_watts * duration)
        return full, attributed

    # -- tree walk -----------------------------------------------------------
    def _walk(self, op: Operator, collector: CostCollector) -> _Estimate:
        handler = _HANDLERS.get(type(op))
        if handler is None:
            raise OptimizerError(f"cost model cannot price {op.describe()}")
        return handler(self, op, collector)

    # -- cardinality estimation, one handler per operator -------------------
    def _scan(self, op: TableScan, collector: CostCollector) -> _Estimate:
        op._charge(collector)
        stats = self.statistics_for(op.table)
        selectivity = estimate_selectivity(op.predicate, stats)
        return _Estimate(stats.row_count * selectivity,
                         _kept(stats.columns, op.output_columns))

    def _filter(self, op: Filter, collector: CostCollector) -> _Estimate:
        child = self._walk(op.child, collector)
        op._charge(collector, child.rows)
        fake_stats = TableStatistics("_derived", int(child.rows) or 1,
                                     0, 0, columns=child.columns)
        selectivity = estimate_selectivity(op.predicate, fake_stats)
        return _Estimate(child.rows * selectivity, child.columns)

    def _join_cardinality(self, left: _Estimate, right: _Estimate,
                          left_keys, right_keys) -> float:
        ndv = 1.0
        for lk, rk in zip(left_keys, right_keys):
            v_left = left.columns[lk].ndv if lk in left.columns else 0
            v_right = right.columns[rk].ndv if rk in right.columns else 0
            ndv = max(ndv, float(max(v_left, v_right)))
        return left.rows * right.rows / ndv

    def _hash_join(self, op: HashJoin,
                   collector: CostCollector) -> _Estimate:
        build = self._walk(op.build, collector)
        op._charge_build(collector, build.rows)
        probe = self._walk(op.probe, collector)
        out_rows = self._join_cardinality(build, probe,
                                          op.build_keys, op.probe_keys)
        op._charge_probe(collector, build.rows, probe.rows, out_rows)
        return _Estimate(out_rows, {**build.columns, **probe.columns})

    def _nlj(self, op: BlockNestedLoopJoin,
             collector: CostCollector) -> _Estimate:
        outer = self._walk(op.outer, collector)
        inner = self._walk(op.inner, collector)
        merged = {**outer.columns, **inner.columns}
        fake_stats = TableStatistics(
            "_pairs", max(1, int(outer.rows * inner.rows)), 0, 0,
            columns=merged)
        selectivity = self._join_predicate_selectivity(
            op.predicate, outer, inner, fake_stats)
        out_rows = outer.rows * inner.rows * selectivity
        op._charge(collector, outer.rows, inner.rows, out_rows)
        return _Estimate(out_rows, merged)

    def _join_predicate_selectivity(self, predicate, outer: _Estimate,
                                    inner: _Estimate, fake_stats) -> float:
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
             collector: CostCollector) -> _Estimate:
        left = self._walk(op.left, collector)
        op._charge_sort(collector, left.rows, "left")
        right = self._walk(op.right, collector)
        op._charge_sort(collector, right.rows, "right")
        out_rows = self._join_cardinality(left, right,
                                          op.left_keys, op.right_keys)
        op._charge_merge(collector, left.rows, right.rows, out_rows)
        return _Estimate(out_rows, {**left.columns, **right.columns})

    def _sort(self, op: Sort, collector: CostCollector) -> _Estimate:
        child = self._walk(op.child, collector)
        op._charge(collector, child.rows)
        return child

    def _group_count(self, child: _Estimate, group_by) -> float:
        if not group_by:
            return 1.0
        groups = 1.0
        for key in group_by:
            ndv = child.columns[key].ndv if key in child.columns else 10
            groups *= max(1, ndv)
        return min(child.rows, groups)

    def _aggregate(self, op: HashAggregate | SortedAggregate,
                   collector: CostCollector) -> _Estimate:
        child = self._walk(op.child, collector)
        groups = self._group_count(child, op.group_by)
        op._charge(collector, child.rows, groups)
        return _Estimate(groups, _kept(child.columns, op.group_by))

    def _index_scan(self, op: IndexScan,
                    collector: CostCollector) -> _Estimate:
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
        op._charge(collector, rows)
        return _Estimate(rows, _kept(stats.columns, op.output_columns))

    def _index_nlj(self, op: IndexNestedLoopJoin,
                   collector: CostCollector) -> _Estimate:
        outer = self._walk(op.outer, collector)
        inner_stats = self.statistics_for(op.inner_table)
        inner_col = inner_stats.column(op.index.column)
        matches_per_probe = 1.0
        if inner_col is not None and inner_col.ndv > 0:
            matches_per_probe = inner_stats.row_count / inner_col.ndv
        out_rows = outer.rows * matches_per_probe
        op._charge(collector, outer.rows, out_rows)
        return _Estimate(out_rows, {
            **outer.columns, **_kept(inner_stats.columns, op.inner_columns)})

    def _limit(self, op: Limit, collector: CostCollector) -> _Estimate:
        child = self._walk(op.child, collector)
        return _Estimate(min(child.rows, op.count), child.columns)

    def _exchange(self, op: Exchange, collector: CostCollector) -> _Estimate:
        child = self._walk(op.child, collector)
        op._charge(collector)
        return child


_HANDLERS = {
    IndexNestedLoopJoin: CostModel._index_nlj,
    IndexScan: CostModel._index_scan,
    TableScan: CostModel._scan,
    Filter: CostModel._filter,
    HashJoin: CostModel._hash_join,
    BlockNestedLoopJoin: CostModel._nlj,
    SortMergeJoin: CostModel._smj,
    Sort: CostModel._sort,
    HashAggregate: CostModel._aggregate,
    SortedAggregate: CostModel._aggregate,
    Limit: CostModel._limit,
    Exchange: CostModel._exchange,
}
