"""Energy-aware query optimization (paper §4.1).

The optimizer mirrors the executor's cost arithmetic: a time model and a
power model over the same device constants, combined under a selectable
objective (time, energy, or energy-delay product).  "To improve energy
efficiency, query optimizers will need power models to estimate energy
costs" — this package is that machinery.
"""

from repro.optimizer.stats import ColumnStats, TableStatistics, analyze_table
from repro.optimizer.cost import CostModel, PlanCost
from repro.optimizer.objective import Objective, WeightedObjective, score
from repro.optimizer.planner import Planner, QuerySpec
from repro.optimizer.advisor import DesignAdvisor

__all__ = [
    "ColumnStats",
    "CostModel",
    "DesignAdvisor",
    "Objective",
    "PlanCost",
    "Planner",
    "QuerySpec",
    "TableStatistics",
    "WeightedObjective",
    "analyze_table",
    "score",
]
