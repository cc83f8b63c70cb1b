"""Energy-aware query optimization (paper §4.1).

The cost model charges a plan through the operators' own charge
statements (the ones the executor runs) with estimated cardinalities,
converts the charges to seconds and prices them in Joules on the target
server; a selectable objective (time, energy, or energy-delay product)
scores the result.  "To improve energy efficiency, query optimizers
will need power models to estimate energy costs" — this package is that
machinery.
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
