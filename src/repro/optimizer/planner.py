"""Cost-based planner: join ordering and algorithm choice per objective.

Dynamic programming over connected join subsets (System-R style), with
three join implementations per step (hash, sort-merge, block nested
loop) and two aggregation strategies, all priced by the
:class:`~repro.optimizer.cost.CostModel` under the caller's
:class:`~repro.optimizer.objective.Objective`.  Because the power model
prices the hash join's memory grant, switching the objective from TIME
to ENERGY can flip plan shapes — the §4.1 prediction, testable here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, Union

from repro.errors import OptimizerError
from repro.relational.expr import (
    Between,
    BoolOp,
    ColumnRef,
    Comparison,
    Expr,
    Literal,
    col,
)
from repro.relational.operators import (
    AggregateSpec,
    BlockNestedLoopJoin,
    Filter,
    HashAggregate,
    HashJoin,
    IndexNestedLoopJoin,
    IndexScan,
    Limit,
    Operator,
    Sort,
    SortMergeJoin,
    SortedAggregate,
    TableScan,
)
from repro.optimizer.cost import CostModel, PlanCost
from repro.optimizer.objective import Objective, WeightedObjective, score
from repro.storage.manager import Table

Builder = Callable[[], Operator]
ObjectiveLike = Union[Objective, WeightedObjective]


def split_conjuncts(expr: Optional[Expr]) -> list[Expr]:
    """Flatten an AND tree into its conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BoolOp) and expr.op == "and":
        out: list[Expr] = []
        for operand in expr.operands:
            out.extend(split_conjuncts(operand))
        return out
    return [expr]


def conjoin(conjuncts: Sequence[Expr]) -> Optional[Expr]:
    """Re-combine conjuncts into one predicate (None if empty)."""
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return BoolOp("and", list(conjuncts))


def sargable_bounds(conjunct: Expr, column: str
                    ) -> Optional[tuple[Any, Any]]:
    """(low, high) bounds if ``conjunct`` is an index-usable restriction
    of ``column`` (either bound may be None)."""
    if isinstance(conjunct, Between):
        if (isinstance(conjunct.value, ColumnRef)
                and conjunct.value.name == column
                and isinstance(conjunct.low, Literal)
                and isinstance(conjunct.high, Literal)):
            return conjunct.low.value, conjunct.high.value
        return None
    if not isinstance(conjunct, Comparison):
        return None
    sides = None
    if (isinstance(conjunct.left, ColumnRef)
            and conjunct.left.name == column
            and isinstance(conjunct.right, Literal)):
        sides = (conjunct.op, conjunct.right.value)
    elif (isinstance(conjunct.right, ColumnRef)
          and conjunct.right.name == column
          and isinstance(conjunct.left, Literal)):
        flip = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "="}
        if conjunct.op not in flip:
            return None
        sides = (flip[conjunct.op], conjunct.left.value)
    if sides is None:
        return None
    op, value = sides
    if op == "=":
        return value, value
    if op in ("<", "<="):
        return None, value
    if op in (">", ">="):
        return value, None
    return None


@dataclass
class TableRef:
    """One base relation in a query, with an optional local predicate."""

    table: Table
    predicate: Optional[Expr] = None
    columns: Optional[list[str]] = None

    @property
    def name(self) -> str:
        return self.table.name


@dataclass
class JoinEdge:
    """An equi-join between two base relations."""

    left_table: str
    right_table: str
    left_keys: list[str]
    right_keys: list[str]

    def __post_init__(self) -> None:
        if len(self.left_keys) != len(self.right_keys) or not self.left_keys:
            raise OptimizerError("join edge needs matching key lists")


@dataclass
class QuerySpec:
    """A declarative query for the planner."""

    tables: list[TableRef]
    joins: list[JoinEdge] = field(default_factory=list)
    group_by: list[str] = field(default_factory=list)
    aggregates: list[AggregateSpec] = field(default_factory=list)
    order_by: list[str] = field(default_factory=list)
    limit: Optional[int] = None


@dataclass
class PlannedQuery:
    """The planner's output: a plan, its predicted cost, and rivals."""

    root: Operator
    cost: PlanCost
    objective: ObjectiveLike
    candidates_considered: int


class Planner:
    """Chooses the cheapest plan under an objective."""

    def __init__(self, cost_model: CostModel,
                 objective: ObjectiveLike = Objective.TIME) -> None:
        self.cost_model = cost_model
        self.objective = objective
        self._considered = 0

    # -- public ----------------------------------------------------------
    def plan(self, spec: QuerySpec) -> PlannedQuery:
        """Optimize a query spec into a physical plan."""
        if not spec.tables:
            raise OptimizerError("query needs at least one table")
        names = [t.name for t in spec.tables]
        if len(set(names)) != len(names):
            raise OptimizerError("duplicate tables; self-joins need aliases")
        self._considered = 0
        best_builder = self._plan_joins(spec)
        builder = self._add_post_join(spec, best_builder)
        root = builder()
        return PlannedQuery(
            root=root,
            cost=self.cost_model.cost(builder()),
            objective=self.objective,
            candidates_considered=self._considered,
        )

    def _score(self, cost: PlanCost) -> float:
        if isinstance(self.objective, WeightedObjective):
            return self.objective.score(cost)
        return score(cost, self.objective)

    # -- join enumeration --------------------------------------------------
    def _columns_for(self, ref: TableRef,
                     needed: dict[str, set[str]]) -> Optional[list[str]]:
        return ref.columns or sorted(
            needed[ref.name] & set(ref.table.schema.column_names())) or None

    def _access_paths(self, ref: TableRef,
                      needed: dict[str, set[str]]) -> list[Builder]:
        """All single-relation access paths: full scan plus any usable
        index scans (with residual filters)."""
        from repro.relational.expr import fold_constants
        columns = self._columns_for(ref, needed)
        predicate = (fold_constants(ref.predicate)
                     if ref.predicate is not None else None)

        def full_scan() -> Operator:
            return TableScan(ref.table, columns=columns,
                             predicate=predicate)

        paths: list[Builder] = [full_scan]
        conjuncts = split_conjuncts(predicate)
        for position, conjunct in enumerate(conjuncts):
            for column, _index in ref.table.indexes.items():
                bounds = sargable_bounds(conjunct, column)
                if bounds is None:
                    continue
                low, high = bounds
                # the index range is inclusive: a strict bound stays in
                # the residual filter
                strict = (isinstance(conjunct, Comparison)
                          and conjunct.op in ("<", ">"))
                residual = conjoin(conjuncts if strict else
                                   conjuncts[:position]
                                   + conjuncts[position + 1:])

                def index_path(low=low, high=high, column=column,
                               residual=residual) -> Operator:
                    scan: Operator = IndexScan(ref.table, column,
                                               low=low, high=high,
                                               columns=columns)
                    if residual is not None:
                        scan = Filter(scan, residual)
                    return scan

                paths.append(index_path)
        return paths

    def _plan_joins(self, spec: QuerySpec) -> Builder:
        refs = {t.name: t for t in spec.tables}
        needed = self._needed_columns(spec)

        # DP table: frozenset of names -> (builder, cost, score)
        best: dict[frozenset, tuple[Builder, PlanCost, float]] = {}
        for name in refs:
            entry = None
            for builder in self._access_paths(refs[name], needed):
                cost = self.cost_model.cost(builder())
                self._considered += 1
                candidate_score = self._score(cost)
                if entry is None or candidate_score < entry[2]:
                    entry = (builder, cost, candidate_score)
            assert entry is not None
            best[frozenset([name])] = entry
        n = len(refs)
        if n == 1:
            return best[frozenset(refs)][0]
        if not spec.joins:
            raise OptimizerError("multi-table query without join edges "
                                 "(cross products not supported)")
        all_names = frozenset(refs)
        for size in range(2, n + 1):
            for subset in map(frozenset,
                              itertools.combinations(sorted(refs), size)):
                candidates = []
                for right_name in sorted(subset):
                    left_set = subset - {right_name}
                    if left_set not in best:
                        continue
                    edge_keys = self._connecting_keys(
                        spec.joins, left_set, right_name)
                    if edge_keys is None:
                        continue
                    left_keys, right_keys = edge_keys
                    left_entry = best[left_set]
                    right_builder = best[frozenset([right_name])][0]
                    candidates.extend(self._join_candidates(
                        left_entry[0], right_builder, left_keys, right_keys,
                        refs[right_name], needed))
                if not candidates:
                    if subset == all_names or size == n:
                        raise OptimizerError(
                            f"join graph is disconnected for {sorted(subset)}")
                    continue
                best_entry = None
                for builder in candidates:
                    self._considered += 1
                    try:
                        cost = self.cost_model.cost(builder())
                    except OptimizerError:
                        continue
                    entry_score = self._score(cost)
                    if best_entry is None or entry_score < best_entry[2]:
                        best_entry = (builder, cost, entry_score)
                if best_entry is not None:
                    best[subset] = best_entry
        if all_names not in best:
            raise OptimizerError("could not connect all tables via joins")
        return best[all_names][0]

    def _join_candidates(self, left_builder: Builder,
                         right_builder: Builder,
                         left_keys: list[str], right_keys: list[str],
                         right_ref: TableRef,
                         needed: dict[str, set[str]]) -> list[Builder]:
        """All physical implementations of one join step."""
        candidates: list[Builder] = [
            # hash join, building on either side
            lambda: HashJoin(right_builder(), left_builder(),
                             right_keys, left_keys),
            lambda: HashJoin(left_builder(), right_builder(),
                             left_keys, right_keys),
            lambda: SortMergeJoin(left_builder(), right_builder(),
                                  left_keys, right_keys),
        ]
        if len(left_keys) == 1:
            lk, rk = left_keys[0], right_keys[0]
            columns = self._columns_for(right_ref, needed)

            def nlj() -> Operator:
                # classic block NLJ re-reads the raw inner table
                inner = TableScan(right_ref.table, columns=columns,
                                  predicate=right_ref.predicate)
                return BlockNestedLoopJoin(
                    left_builder(), inner, predicate=col(lk) == col(rk))

            candidates.append(nlj)
            if (right_ref.table.index_on(rk) is not None
                    and right_ref.predicate is None):
                def index_nlj() -> Operator:
                    return IndexNestedLoopJoin(
                        left_builder(), right_ref.table, rk, lk,
                        inner_columns=columns)

                candidates.append(index_nlj)
        return candidates

    def _connecting_keys(self, joins: Sequence[JoinEdge],
                         left_set: frozenset, right_name: str
                         ) -> Optional[tuple[list[str], list[str]]]:
        """Keys joining ``right_name`` to any relation in ``left_set``."""
        left_keys: list[str] = []
        right_keys: list[str] = []
        for edge in joins:
            if edge.right_table == right_name and edge.left_table in left_set:
                left_keys.extend(edge.left_keys)
                right_keys.extend(edge.right_keys)
            elif edge.left_table == right_name and edge.right_table in left_set:
                left_keys.extend(edge.right_keys)
                right_keys.extend(edge.left_keys)
        if not left_keys:
            return None
        return left_keys, right_keys

    # -- post-join operators ------------------------------------------------
    def _add_post_join(self, spec: QuerySpec, builder: Builder) -> Builder:
        result = builder
        if spec.aggregates or spec.group_by:
            result = self._best_aggregation(spec, result)
        if spec.order_by:
            prev = result
            result = lambda: Sort(prev(), spec.order_by)  # noqa: E731
        if spec.limit is not None:
            prev2 = result
            result = lambda: Limit(prev2(), spec.limit)  # noqa: E731
        return result

    def _best_aggregation(self, spec: QuerySpec, builder: Builder) -> Builder:
        def hash_based() -> Operator:
            return HashAggregate(builder(), spec.group_by, spec.aggregates)

        if not spec.group_by:
            return hash_based

        def sort_based() -> Operator:
            return SortedAggregate(Sort(builder(), spec.group_by),
                                   spec.group_by, spec.aggregates)

        choices = []
        for candidate in (hash_based, sort_based):
            self._considered += 1
            cost = self.cost_model.cost(candidate())
            choices.append((self._score(cost), candidate))
        choices.sort(key=lambda pair: pair[0])
        return choices[0][1]

    # -- column pruning --------------------------------------------------------
    def _needed_columns(self, spec: QuerySpec) -> dict[str, set[str]]:
        """Columns each base table must project."""
        needed: dict[str, set[str]] = {t.name: set() for t in spec.tables}
        global_needs: set[str] = set(spec.group_by) | set(spec.order_by)
        for agg in spec.aggregates:
            if agg.expr is not None:
                global_needs |= agg.expr.columns()
        if not spec.aggregates and not spec.group_by:
            # no aggregation: the query returns all projected columns
            for ref in spec.tables:
                needed[ref.name] |= set(
                    ref.columns or ref.table.schema.column_names())
        for edge in spec.joins:
            for ref in spec.tables:
                if ref.name == edge.left_table:
                    needed[ref.name] |= set(edge.left_keys)
                if ref.name == edge.right_table:
                    needed[ref.name] |= set(edge.right_keys)
        for ref in spec.tables:
            if ref.predicate is not None:
                needed[ref.name] |= (ref.predicate.columns()
                                     & set(ref.table.schema.column_names()))
            needed[ref.name] |= (global_needs
                                 & set(ref.table.schema.column_names()))
        return needed
