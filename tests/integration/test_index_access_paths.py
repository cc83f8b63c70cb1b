"""Integration tests: index operators, costing, and planner access paths."""

import pytest

from repro.hardware.profiles import commodity
from repro.optimizer import CostModel, Objective, Planner, QuerySpec
from repro.optimizer.planner import (
    JoinEdge,
    TableRef,
    conjoin,
    sargable_bounds,
    split_conjuncts,
)
from repro.relational.executor import ExecutionContext, Executor
from repro.relational.expr import Between, Literal, col
from repro.relational.operators import (
    CostCollector,
    Filter,
    HashJoin,
    IndexNestedLoopJoin,
    IndexScan,
    TableScan,
)
from repro.relational.operators.index import CYCLES_PER_TREE_LEVEL
from repro.relational.plan import explain
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.errors import PlanError
from repro.sim import Simulation
from repro.storage.manager import StorageManager


@pytest.fixture
def env():
    sim = Simulation()
    server, array = commodity(sim)
    storage = StorageManager(sim)
    orders = storage.create_table(
        TableSchema("orders", [
            Column("o_id", DataType.INT64, nullable=False),
            Column("o_cust", DataType.INT64, nullable=False),
            Column("o_total", DataType.FLOAT64, nullable=False),
        ]), layout="row", placement=array)
    orders.load([(i, i % 100, float(i % 977)) for i in range(5000)])
    orders.create_index("o_id", clustered=True)
    orders.create_index("o_cust")
    customers = storage.create_table(
        TableSchema("customers", [
            Column("c_id", DataType.INT64, nullable=False),
            Column("c_seg", DataType.INT64, nullable=False),
        ]), layout="row", placement=array)
    customers.load([(i, i % 5) for i in range(100)])
    return sim, server, orders, customers


def run(op):
    collector = CostCollector()
    return op.execute(collector), collector


class TestIndexScanOperator:
    def test_range_results_match_filter(self, env):
        _, _, orders, _ = env
        via_index, _ = run(IndexScan(orders, "o_id", low=100, high=199))
        via_scan, _ = run(Filter(TableScan(orders),
                                 Between(col("o_id"), 100, 199)))
        assert sorted(via_index) == sorted(via_scan)

    def test_exact_match(self, env):
        _, _, orders, _ = env
        rows, _ = run(IndexScan(orders, "o_cust", low=7, high=7))
        assert len(rows) == 50
        assert all(r[1] == 7 for r in rows)

    def test_projection(self, env):
        _, _, orders, _ = env
        op = IndexScan(orders, "o_id", low=10, high=12,
                       columns=["o_total", "o_id"])
        rows, _ = run(op)
        assert rows == [(10.0, 10), (11.0, 11), (12.0, 12)]

    def test_selective_index_scan_reads_less_than_table_scan(self, env):
        _, _, orders, _ = env
        _, ix_collector = run(IndexScan(orders, "o_id", low=0, high=49))
        _, scan_collector = run(TableScan(orders))
        assert ix_collector.total_io_bytes() < \
            0.5 * scan_collector.total_io_bytes()

    def test_unclustered_fetches_are_random(self, env):
        _, _, orders, _ = env
        _, collector = run(IndexScan(orders, "o_cust", low=3, high=3))
        random_requests = sum(req.n_random_requests
                              for p in collector.pipelines for req in p.io)
        assert random_requests > 0

    def test_clustered_fetches_are_sequential(self, env):
        _, _, orders, _ = env
        _, collector = run(IndexScan(orders, "o_id", low=0, high=99))
        random_requests = sum(req.n_random_requests
                              for p in collector.pipelines for req in p.io)
        assert random_requests == 0

    def test_empty_range_charges_the_tree_descent(self, env):
        """A range past the last key still descends the tree and reads
        a leaf; the model predicts the same charges."""
        _, server, orders, _ = env
        op = IndexScan(orders, "o_id", low=5000, high=6000)
        rows, collector = run(op)
        assert rows == []
        assert collector.total_cpu_cycles() == \
            op.index.tree.height * CYCLES_PER_TREE_LEVEL > 0
        assert collector.total_io_bytes() == op.index.range_leaf_bytes(
            5000, 6000) > 0
        predicted = CostModel(server).cost(op)
        assert [(p.cpu_cycles, p.io_bytes) for p in predicted.pipelines] \
            == [(p.cpu_cycles, p.io_bytes) for p in collector.pipelines]

    def test_requires_bound(self, env):
        _, _, orders, _ = env
        with pytest.raises(PlanError):
            IndexScan(orders, "o_id")

    def test_requires_index(self, env):
        _, _, orders, _ = env
        with pytest.raises(PlanError):
            IndexScan(orders, "o_total", low=1.0, high=2.0)

    def test_executes_on_simulated_hardware(self, env):
        sim, server, orders, _ = env
        result = Executor(ExecutionContext(sim=sim, server=server)).run(
            IndexScan(orders, "o_id", low=500, high=999))
        assert result.row_count == 500
        assert result.elapsed_seconds > 0
        assert result.energy_joules > 0


class TestIndexNestedLoopJoin:
    def test_matches_hash_join(self, env):
        _, _, orders, customers = env
        inlj_rows, _ = run(IndexNestedLoopJoin(
            TableScan(customers), orders, "o_cust", "c_id"))
        hash_rows, _ = run(HashJoin(
            TableScan(customers), TableScan(orders),
            ["c_id"], ["o_cust"]))
        # reorder hash output columns to match INLJ's layout
        assert len(inlj_rows) == len(hash_rows) == 5000
        assert sorted(inlj_rows) == sorted(hash_rows)

    def test_uses_no_memory_grant(self, env):
        _, _, orders, customers = env
        _, collector = run(IndexNestedLoopJoin(
            TableScan(customers), orders, "o_cust", "c_id"))
        assert all(p.dram_grant_bytes == 0 for p in collector.pipelines)

    def test_charges_random_probes(self, env):
        _, _, orders, customers = env
        _, collector = run(IndexNestedLoopJoin(
            TableScan(customers), orders, "o_cust", "c_id"))
        random_requests = sum(req.n_random_requests
                              for p in collector.pipelines for req in p.io)
        assert random_requests >= 100  # one probe per outer row

    def test_requires_index_on_inner(self, env):
        _, _, orders, customers = env
        with pytest.raises(PlanError):
            IndexNestedLoopJoin(TableScan(customers), orders,
                                "o_total", "c_id")


class TestCostModelIndexHandlers:
    def test_index_scan_cardinality(self, env):
        _, server, orders, _ = env
        model = CostModel(server)
        cost = model.cost(IndexScan(orders, "o_id", low=0, high=499))
        assert cost.out_rows == pytest.approx(500, rel=0.25)

    def test_index_scan_cheaper_when_selective(self, env):
        """At realistic data volumes (scale 500) a 1 %-selective
        clustered index scan beats the full scan; at toy volume the
        positioning costs make the full scan win — both are correct."""
        _, server, orders, _ = env
        model = CostModel(server, scale=500.0)
        narrow = model.cost(IndexScan(orders, "o_id", low=0, high=49))
        full = model.cost(TableScan(orders))
        assert narrow.seconds < full.seconds
        tiny_model = CostModel(server)  # toy scale: table fits a whisker
        assert tiny_model.cost(
            IndexScan(orders, "o_id", low=0, high=49)).seconds > \
            tiny_model.cost(TableScan(orders)).seconds * 0.5

    def test_inlj_cost_positive(self, env):
        _, server, orders, customers = env
        model = CostModel(server)
        cost = model.cost(IndexNestedLoopJoin(
            TableScan(customers), orders, "o_cust", "c_id"))
        assert cost.out_rows == pytest.approx(5000, rel=0.25)
        assert cost.io_seconds > 0


class TestPlannerAccessPaths:
    def test_sargable_decomposition(self):
        pred = (col("a") > 5) & (col("b") == Literal("x"))
        conjuncts = split_conjuncts(pred)
        assert len(conjuncts) == 2
        assert sargable_bounds(conjuncts[0], "a") == (5, None)
        assert sargable_bounds(conjuncts[1], "b") == ("x", "x")
        assert sargable_bounds(conjuncts[0], "b") is None
        assert conjoin(conjuncts) is not None
        assert conjoin([]) is None

    def test_between_is_sargable(self):
        bounds = sargable_bounds(Between(col("a"), 3, 9), "a")
        assert bounds == (3, 9)

    def test_reversed_literal_comparison(self):
        bounds = sargable_bounds(Literal(10) > col("a"), "a")
        assert bounds == (None, 10)

    def test_planner_picks_index_for_selective_predicate(self, env):
        _, server, orders, _ = env
        planner = Planner(CostModel(server, scale=500.0), Objective.TIME)
        planned = planner.plan(QuerySpec(
            tables=[TableRef(orders,
                             predicate=Between(col("o_id"), 0, 49))]))
        assert "IndexScan" in explain(planned.root)

    def test_planner_keeps_table_scan_for_wide_predicate(self, env):
        _, server, orders, _ = env
        planner = Planner(CostModel(server), Objective.TIME)
        planned = planner.plan(QuerySpec(
            tables=[TableRef(orders,
                             predicate=col("o_id") >= 0)]))
        assert "TableScan" in explain(planned.root)

    def test_planner_results_correct_with_index_plans(self, env):
        sim, server, orders, customers = env
        planner = Planner(CostModel(server), Objective.TIME)
        planned = planner.plan(QuerySpec(
            tables=[TableRef(orders,
                             predicate=Between(col("o_id"), 100, 149)),
                    TableRef(customers)],
            joins=[JoinEdge("customers", "orders",
                            ["c_id"], ["o_cust"])]))
        result = Executor(ExecutionContext(sim=sim, server=server)).run(
            planned.root)
        assert result.row_count == 50
        # the index range is inclusive: a strict bound must still hold
        selective = Planner(CostModel(server, scale=500.0), Objective.TIME)
        for predicate in (col("o_id") < 50, col("o_id") > 4949,
                          col("o_id") <= 49, Literal(50) > col("o_id")):
            planned = selective.plan(QuerySpec(
                tables=[TableRef(orders, predicate=predicate)]))
            assert "IndexScan" in explain(planned.root)
            result = Executor(ExecutionContext(sim=sim, server=server)).run(
                planned.root)
            assert result.row_count == 50, predicate

    def test_planner_considers_inlj(self, env):
        """With an index on the join key and a selective outer, the
        planner should at least consider (and under TIME often pick)
        the index nested-loop join."""
        sim, server, orders, customers = env
        planner = Planner(CostModel(server), Objective.TIME)
        spec = QuerySpec(
            tables=[TableRef(customers, predicate=col("c_seg") == 2),
                    TableRef(orders)],
            joins=[JoinEdge("customers", "orders",
                            ["c_id"], ["o_cust"])])
        planned = planner.plan(spec)
        result = Executor(ExecutionContext(sim=sim, server=server)).run(
            planned.root)
        assert result.row_count == 1000
        assert planned.candidates_considered >= 7
