"""Exchange operator: intra-query parallelism.

Marks the current pipeline to execute its CPU work on ``degree`` cores.
§5.3: "parallelization and system scalability will continue to be
important avenues for maintaining maximum efficiency" — the executor
charges the same cycles across more cores, shortening time while raising
instantaneous CPU power, so the energy effect of parallelism is an
output of the model rather than an assumption.
"""

from __future__ import annotations

from repro.errors import PlanError
from repro.relational.operators.base import CostCollector, Operator


class Exchange(Operator):
    """Run the child's pipeline with the given degree of parallelism."""

    def __init__(self, child: Operator, degree: int) -> None:
        if degree < 1:
            raise PlanError("parallelism degree must be >= 1")
        super().__init__(child.output_columns)
        self.child = child
        self.degree = degree

    def children(self) -> list[Operator]:
        return [self.child]

    def _charge(self, collector: CostCollector) -> None:
        collector.set_parallelism(self.degree)

    def execute(self, collector: CostCollector) -> list[tuple]:
        rows = self.child.execute(collector)
        self._charge(collector)
        return rows

    def describe(self) -> str:
        return f"Exchange(degree={self.degree})"
