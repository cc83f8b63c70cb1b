"""Aggregation operators: hash-based and sorted-input streaming."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.errors import PlanError
from repro.relational.expr import Expr, make_layout
from repro.relational.operators.base import (
    CYCLES_PER_AGG_UPDATE,
    CYCLES_PER_OUTPUT_TUPLE,
    CostCollector,
    Operator,
)

_AGG_FUNCS = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate: function, input expression, output alias."""

    func: str
    expr: Optional[Expr]  # None only for count(*)
    alias: str

    def __post_init__(self) -> None:
        if self.func not in _AGG_FUNCS:
            raise PlanError(f"unknown aggregate {self.func!r}")
        if self.expr is None and self.func != "count":
            raise PlanError(f"{self.func} needs an input expression")
        if not self.alias:
            raise PlanError("aggregate needs an alias")


class _Accumulator:
    __slots__ = ("func", "count", "total", "low", "high")

    def __init__(self, func: str) -> None:
        self.func = func
        self.count = 0
        self.total = 0.0
        self.low: Any = None
        self.high: Any = None

    def update(self, value: Any) -> None:
        if value is None:
            return
        self.count += 1
        if self.func in ("sum", "avg"):
            self.total += value
        elif self.func == "min":
            self.low = value if self.low is None else min(self.low, value)
        elif self.func == "max":
            self.high = value if self.high is None else max(self.high, value)

    def result(self) -> Any:
        if self.func == "count":
            return self.count
        if self.func == "sum":
            return self.total if self.count else None
        if self.func == "avg":
            return self.total / self.count if self.count else None
        if self.func == "min":
            return self.low
        return self.high


class _AggregateBase(Operator):
    def __init__(self, child: Operator, group_by: Sequence[str],
                 aggregates: Sequence[AggregateSpec]) -> None:
        if not aggregates and not group_by:
            raise PlanError("aggregation needs group keys or aggregates")
        available = set(child.output_columns)
        missing = set(group_by) - available
        if missing:
            raise PlanError(f"group keys {missing} not produced by child")
        for spec in aggregates:
            if spec.expr is not None:
                bad = spec.expr.columns() - available
                if bad:
                    raise PlanError(
                        f"aggregate {spec.alias!r} references {bad}")
        names = list(group_by) + [s.alias for s in aggregates]
        super().__init__(names)
        self.child = child
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)

    def children(self) -> list[Operator]:
        return [self.child]

    def _compute(self, rows: list[tuple]) -> list[tuple]:
        layout = make_layout(self.child.output_columns)
        positions = [layout[k] for k in self.group_by]
        groups: dict[tuple, list[_Accumulator]] = {}
        order: list[tuple] = []
        for row in rows:
            key = tuple(row[p] for p in positions)
            accs = groups.get(key)
            if accs is None:
                accs = [_Accumulator(s.func) for s in self.aggregates]
                groups[key] = accs
                order.append(key)
            for acc, spec in zip(accs, self.aggregates):
                if spec.expr is None:
                    acc.count += 1
                else:
                    acc.update(spec.expr.evaluate(row, layout))
        if not self.group_by and not groups:
            # global aggregate over empty input still yields one row
            accs = [_Accumulator(s.func) for s in self.aggregates]
            return [tuple(a.result() for a in accs)]
        return [key + tuple(a.result() for a in groups[key])
                for key in order]

    def _update_cycles(self, n_rows: float) -> float:
        expr_cycles = sum(s.expr.cycles() for s in self.aggregates
                          if s.expr is not None)
        return n_rows * (CYCLES_PER_AGG_UPDATE
                         * max(1, len(self.aggregates)) + expr_cycles)


class HashAggregate(_AggregateBase):
    """Group by hashing; blocking (results emitted after all input)."""

    def _charge(self, collector: CostCollector, n_in: float,
                n_groups: float) -> None:
        collector.charge_cpu(self._update_cycles(n_in))
        # group state lives in memory for the input pipeline's duration
        collector.charge_dram_grant(
            n_groups * (8 * len(self.output_columns) + 64))
        collector.break_pipeline(label="hash-aggregate")
        collector.charge_cpu(n_groups * CYCLES_PER_OUTPUT_TUPLE)

    def execute(self, collector: CostCollector) -> list[tuple]:
        rows = self.child.execute(collector)
        out = self._compute(rows)
        self._charge(collector, len(rows), len(out))
        return out

    def describe(self) -> str:
        aggs = [f"{s.func}->{s.alias}" for s in self.aggregates]
        return f"HashAggregate(by={self.group_by}, {aggs})"


class SortedAggregate(_AggregateBase):
    """Streaming aggregation over input sorted on the group keys.

    Non-blocking (no pipeline break, no hash-table grant) but requires
    sorted input — the classic optimizer alternative to hashing.
    """

    def _charge(self, collector: CostCollector, n_in: float,
                n_groups: float) -> None:
        collector.charge_cpu(self._update_cycles(n_in))
        collector.charge_cpu(n_groups * CYCLES_PER_OUTPUT_TUPLE)

    def execute(self, collector: CostCollector) -> list[tuple]:
        rows = self.child.execute(collector)
        layout = make_layout(self.child.output_columns)
        positions = [layout[k] for k in self.group_by]
        keys = [tuple(row[p] for p in positions) for row in rows]
        if keys != sorted(keys):
            raise PlanError(
                "SortedAggregate requires input sorted on group keys")
        out = self._compute(rows)
        self._charge(collector, len(rows), len(out))
        return out

    def describe(self) -> str:
        aggs = [f"{s.func}->{s.alias}" for s in self.aggregates]
        return f"SortedAggregate(by={self.group_by}, {aggs})"
