"""Table statistics and selectivity estimation.

Statistics are computed from the actual stored data (``ANALYZE``-style):
row counts, per-column distinct counts, min/max, and equi-depth
histograms.  Selectivity estimation walks predicate expression trees
using the classic System-R rules with histogram refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.errors import OptimizerError
from repro.relational.expr import (
    Between,
    BoolOp,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    Like,
    Literal,
)
from repro.storage.manager import Table

DEFAULT_SELECTIVITY = 1.0 / 3.0
EQUALITY_FALLBACK = 0.1


@dataclass
class ColumnStats:
    """Distribution summary for one column."""

    ndv: int
    min_value: Any = None
    max_value: Any = None
    null_fraction: float = 0.0
    #: equi-depth bucket upper bounds (len = bucket count)
    histogram: list[Any] = field(default_factory=list)

    def equality_selectivity(self) -> float:
        if self.ndv <= 0:
            return EQUALITY_FALLBACK
        return 1.0 / self.ndv

    def range_selectivity(self, op: str, value: Any) -> float:
        """Fraction of rows passing ``column <op> value``.

        Equi-depth buckets with linear interpolation inside the bucket
        containing ``value`` (for numeric/date columns; non-numeric
        columns fall back to whole-bucket granularity).
        """
        if not self.histogram:
            return DEFAULT_SELECTIVITY
        fraction = self._fraction_at_or_below(value)
        if op in ("<", "<="):
            return fraction
        if op in (">", ">="):
            return 1.0 - fraction
        raise OptimizerError(f"not a range operator: {op}")

    def _fraction_at_or_below(self, value: Any) -> float:
        n = len(self.histogram)
        if self.min_value is not None and value < self.min_value:
            return 0.0
        if value >= self.histogram[-1]:
            return 1.0
        whole = sum(1 for bound in self.histogram if bound <= value)
        # interpolate within the first bucket whose bound exceeds value
        lower = (self.histogram[whole - 1] if whole > 0
                 else self.min_value)
        upper = self.histogram[whole]
        try:
            span = upper - lower
            offset = value - lower
            within = (offset / span) if span else 1.0
            within = max(0.0, min(1.0, float(within)))
        except TypeError:  # non-arithmetic type (e.g. strings)
            within = 0.0
        return (whole + within) / n


@dataclass
class TableStatistics:
    """Physical and logical statistics for one table."""

    table_name: str
    row_count: int
    scan_bytes: int
    plain_bytes: int
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name)


def analyze_table(table: Table) -> TableStatistics:
    """Compute statistics by reading the stored data: the first 50,000
    rows, into 16-bucket equi-depth histograms."""
    sample_rows = 50_000
    names = table.schema.column_names()
    values_by_column: dict[str, list[Any]] = {n: [] for n in names}
    nulls: dict[str, int] = {n: 0 for n in names}
    n_rows = 0
    for row in table.iterate():
        n_rows += 1
        if n_rows > sample_rows:
            continue
        for name, value in zip(names, row):
            if value is None:
                nulls[name] += 1
            else:
                values_by_column[name].append(value)
    stats = TableStatistics(
        table_name=table.name,
        row_count=table.row_count,
        scan_bytes=table.scan_bytes(),
        plain_bytes=table.plain_bytes(),
    )
    sampled = min(n_rows, sample_rows)
    for name in names:
        values = values_by_column[name]
        if not values:
            stats.columns[name] = ColumnStats(
                ndv=0, null_fraction=1.0 if sampled else 0.0)
            continue
        ordered = sorted(values)
        buckets = min(16, len(ordered))
        bounds = [ordered[int((i + 1) * len(ordered) / buckets) - 1]
                  for i in range(buckets)]
        stats.columns[name] = ColumnStats(
            ndv=len(set(values)),
            min_value=ordered[0],
            max_value=ordered[-1],
            null_fraction=nulls[name] / sampled if sampled else 0.0,
            histogram=bounds,
        )
    return stats


def estimate_selectivity(predicate: Optional[Expr],
                         stats: TableStatistics) -> float:
    """Estimated fraction of rows passing ``predicate``."""
    if predicate is None:
        return 1.0
    return max(0.0, min(1.0, _selectivity(predicate, stats)))


def _column_and_literal(expr: Comparison) -> Optional[tuple[str, Any, str]]:
    """Decompose ``col <op> literal`` (either orientation)."""
    flip = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=",
            "!=": "!="}
    if isinstance(expr.left, ColumnRef) and isinstance(expr.right, Literal):
        return expr.left.name, expr.right.value, expr.op
    if isinstance(expr.right, ColumnRef) and isinstance(expr.left, Literal):
        return expr.right.name, expr.left.value, flip[expr.op]
    return None


def _selectivity(expr: Expr, stats: TableStatistics) -> float:
    if isinstance(expr, Literal):
        if expr.value is True:
            return 1.0
        if expr.value is False:
            return 0.0
        return DEFAULT_SELECTIVITY
    if isinstance(expr, Comparison):
        decomposed = _column_and_literal(expr)
        if decomposed is None:
            return DEFAULT_SELECTIVITY
        name, value, op = decomposed
        col_stats = stats.column(name)
        if col_stats is None:
            return DEFAULT_SELECTIVITY
        if op == "=":
            return col_stats.equality_selectivity()
        if op == "!=":
            return 1.0 - col_stats.equality_selectivity()
        return col_stats.range_selectivity(op, value)
    if isinstance(expr, Between):
        if isinstance(expr.value, ColumnRef) and \
                isinstance(expr.low, Literal) and isinstance(expr.high, Literal):
            col_stats = stats.column(expr.value.name)
            if col_stats is not None and col_stats.histogram:
                high = col_stats.range_selectivity("<=", expr.high.value)
                low = col_stats.range_selectivity("<", expr.low.value)
                return max(0.0, high - low)
        return DEFAULT_SELECTIVITY * DEFAULT_SELECTIVITY
    if isinstance(expr, InList):
        if isinstance(expr.value, ColumnRef):
            col_stats = stats.column(expr.value.name)
            if col_stats is not None and col_stats.ndv > 0:
                return min(1.0, len(expr.items) / col_stats.ndv)
        return DEFAULT_SELECTIVITY
    if isinstance(expr, Like):
        return DEFAULT_SELECTIVITY
    if isinstance(expr, BoolOp):
        if expr.op == "not":
            return 1.0 - _selectivity(expr.operands[0], stats)
        parts = [_selectivity(o, stats) for o in expr.operands]
        if expr.op == "and":
            out = 1.0
            for p in parts:
                out *= p
            return out
        # or: inclusion-exclusion, assuming independence
        out = 0.0
        for p in parts:
            out = out + p - out * p
        return out
    return DEFAULT_SELECTIVITY
