"""Filter operator: applies a predicate to its child's tuples."""

from __future__ import annotations

from repro.errors import PlanError
from repro.relational.expr import Expr, make_layout
from repro.relational.operators.base import CostCollector, Operator


class Filter(Operator):
    """Keep tuples for which the predicate evaluates to true."""

    def __init__(self, child: Operator, predicate: Expr) -> None:
        missing = predicate.columns() - set(child.output_columns)
        if missing:
            raise PlanError(
                f"filter references columns {missing} not produced by "
                f"{child.describe()}")
        super().__init__(child.output_columns)
        self.child = child
        self.predicate = predicate

    def children(self) -> list[Operator]:
        return [self.child]

    def _charge(self, collector: CostCollector, n_in: float) -> None:
        collector.charge_cpu(n_in * self.predicate.cycles())

    def execute(self, collector: CostCollector) -> list[tuple]:
        rows = self.child.execute(collector)
        self._charge(collector, len(rows))
        layout = make_layout(self.output_columns)
        predicate = self.predicate
        return [row for row in rows
                if predicate.evaluate(row, layout) is True]

    def describe(self) -> str:
        return f"Filter({self.predicate!r})"
