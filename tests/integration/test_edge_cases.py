"""Edge cases through the full stack: empty tables, single rows,
zero-limit queries, empty aggregations — places engines classically
crash (division by zero in chunking, empty pipelines, etc.)."""

import pytest

from repro.hardware.profiles import commodity
from repro.optimizer import CostModel, Objective, Planner, QuerySpec
from repro.optimizer.planner import JoinEdge, TableRef
from repro.relational.executor import ExecutionContext, Executor
from repro.relational.expr import col
from repro.relational.operators import (
    AggregateSpec,
    Filter,
    HashAggregate,
    HashJoin,
    Limit,
    Sort,
    SortMergeJoin,
    TableScan,
)
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.sim import Simulation
from repro.storage.manager import StorageManager


@pytest.fixture
def env():
    sim = Simulation()
    server, array = commodity(sim)
    storage = StorageManager(sim)

    def table(name, rows):
        t = storage.create_table(
            TableSchema(name, [
                Column(f"{name}_k", DataType.INT64, nullable=False),
                Column(f"{name}_v", DataType.FLOAT64, nullable=False),
            ]), layout="row", placement=array)
        t.load(rows)
        return t

    empty = table("empty", [])
    single = table("single", [(7, 7.5)])
    normal = table("normal", [(i, float(i)) for i in range(100)])
    executor = Executor(ExecutionContext(sim=sim, server=server))
    return sim, server, executor, empty, single, normal


def test_scan_of_empty_table(env):
    _, _, executor, empty, *_ = env
    result = executor.run(TableScan(empty))
    assert result.rows == []
    assert result.energy_joules >= 0


def test_filter_nothing_matches(env):
    _, _, executor, _, _, normal = env
    result = executor.run(Filter(TableScan(normal),
                                 col("normal_k") > 10_000))
    assert result.rows == []


def test_join_with_empty_side(env):
    _, _, executor, empty, _, normal = env
    result = executor.run(HashJoin(TableScan(empty), TableScan(normal),
                                   ["empty_k"], ["normal_k"]))
    assert result.rows == []
    result = executor.run(HashJoin(TableScan(normal), TableScan(empty),
                                   ["normal_k"], ["empty_k"]))
    assert result.rows == []


def test_sort_merge_join_with_empty_side(env):
    _, _, executor, empty, _, normal = env
    result = executor.run(SortMergeJoin(
        TableScan(empty), TableScan(normal), ["empty_k"], ["normal_k"]))
    assert result.rows == []


def test_sort_empty_and_single(env):
    _, _, executor, empty, single, _ = env
    assert executor.run(Sort(TableScan(empty), ["empty_k"])).rows == []
    assert executor.run(Sort(TableScan(single),
                             ["single_k"])).rows == [(7, 7.5)]


def test_limit_zero(env):
    _, _, executor, _, _, normal = env
    result = executor.run(Limit(TableScan(normal), 0))
    assert result.rows == []


def test_limit_beyond_input(env):
    _, _, executor, _, single, _ = env
    result = executor.run(Limit(TableScan(single), 99))
    assert result.row_count == 1


def test_aggregate_over_empty_table(env):
    _, _, executor, empty, *_ = env
    result = executor.run(HashAggregate(
        TableScan(empty), [],
        [AggregateSpec("count", None, "n"),
         AggregateSpec("min", col("empty_v"), "lo")]))
    assert result.rows == [(0, None)]


def test_grouped_aggregate_over_empty_table(env):
    _, _, executor, empty, *_ = env
    result = executor.run(HashAggregate(
        TableScan(empty), ["empty_k"],
        [AggregateSpec("count", None, "n")]))
    assert result.rows == []


def test_planner_on_empty_table(env):
    _, server, executor, empty, _, normal = env
    planner = Planner(CostModel(server), Objective.ENERGY)
    planned = planner.plan(QuerySpec(
        tables=[TableRef(empty), TableRef(normal)],
        joins=[JoinEdge("empty", "normal",
                        ["empty_k"], ["normal_k"])]))
    result = executor.run(planned.root)
    assert result.rows == []


def test_cost_model_on_empty_table(env):
    _, server, _, empty, *_ = env
    cost = CostModel(server).cost(TableScan(empty))
    assert cost.out_rows == 0
    assert cost.seconds >= 0
    assert cost.energy_full_joules >= 0


def test_single_row_join(env):
    _, _, executor, _, single, normal = env
    result = executor.run(HashJoin(TableScan(single), TableScan(normal),
                                   ["single_k"], ["normal_k"]))
    assert result.rows == [(7, 7.5, 7, 7.0)]


def test_index_on_empty_table(env):
    sim, server, executor, empty, *_ = env
    index = empty.create_index("empty_k")
    assert len(index.tree) == 0
    assert index.search_rows(1) == []
    assert list(index.range_rows(0, 10)) == []
