"""Integration tests: cost model accuracy, planner choices, advisor."""

import pytest

from repro.hardware.profiles import commodity, flash_scan_node
from repro.relational.expr import col
from repro.relational.executor import ExecutionContext, Executor
from repro.relational.operators import (
    AggregateSpec,
    CostCollector,
    Filter,
    HashAggregate,
    HashJoin,
    SortMergeJoin,
    TableScan,
)
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.optimizer import (
    CostModel,
    DesignAdvisor,
    Objective,
    Planner,
    QuerySpec,
    WeightedObjective,
    score,
)
from repro.optimizer.planner import JoinEdge, TableRef
from repro.sim import Simulation
from repro.storage.manager import StorageManager
from repro.units import MIB


def build_env(n_orders=3000, n_customers=50):
    sim = Simulation()
    server, array = commodity(sim)
    storage = StorageManager(sim)
    orders = storage.create_table(
        TableSchema("orders", [
            Column("o_id", DataType.INT64, nullable=False),
            Column("o_cust", DataType.INT64, nullable=False),
            Column("o_total", DataType.FLOAT64, nullable=False),
        ]), layout="row", placement=array)
    orders.load([(i, i % n_customers, float(i % 213))
                 for i in range(n_orders)])
    customers = storage.create_table(
        TableSchema("customers", [
            Column("c_id", DataType.INT64, nullable=False),
            Column("c_region", DataType.INT64, nullable=False),
        ]), layout="row", placement=array)
    customers.load([(i, i % 5) for i in range(n_customers)])
    return sim, server, storage, orders, customers


class TestCostModelAccuracy:
    """The model must track what the collector actually charges."""

    def check(self, plan_builder, rel=0.25):
        sim, server, _, orders, customers = build_env()
        model = CostModel(server)
        predicted = model.cost(plan_builder())
        collector = CostCollector()
        plan_builder().execute(collector)
        actual_cpu = collector.total_cpu_cycles()
        actual_io = collector.total_io_bytes()
        predicted_cpu = sum(p.cpu_cycles for p in predicted.pipelines)
        predicted_io = sum(p.io_bytes for p in predicted.pipelines)
        assert predicted_io == pytest.approx(actual_io, rel=rel)
        assert predicted_cpu == pytest.approx(actual_cpu, rel=rel)
        return predicted

    def test_scan_cost_exact(self):
        sim, server, _, orders, _ = build_env()
        model = CostModel(server)
        predicted = model.cost(TableScan(orders))
        collector = CostCollector()
        TableScan(orders).execute(collector)
        assert sum(p.io_bytes for p in predicted.pipelines) == \
            pytest.approx(collector.total_io_bytes(), rel=1e-9)
        assert sum(p.cpu_cycles for p in predicted.pipelines) == \
            pytest.approx(collector.total_cpu_cycles(), rel=1e-9)

    def test_filter_cost(self):
        sim, server, _, orders, _ = build_env()

        def build():
            return Filter(TableScan(orders), col("o_total") > 100.0)

        model = CostModel(server)
        predicted = model.cost(build())
        assert predicted.out_rows == pytest.approx(
            len(build().execute(CostCollector())), rel=0.25)

    def test_hash_join_cost(self):
        sim, server, _, orders, customers = build_env()

        def build():
            return HashJoin(TableScan(customers), TableScan(orders),
                            ["c_id"], ["o_cust"])

        model = CostModel(server)
        predicted = model.cost(build())
        collector = CostCollector()
        rows = build().execute(collector)
        assert predicted.out_rows == pytest.approx(len(rows), rel=0.2)
        assert sum(p.cpu_cycles for p in predicted.pipelines) == \
            pytest.approx(collector.total_cpu_cycles(), rel=0.25)

    def test_aggregate_cost(self):
        sim, server, _, orders, _ = build_env()

        def build():
            return HashAggregate(
                TableScan(orders), ["o_cust"],
                [AggregateSpec("sum", col("o_total"), "t")])

        model = CostModel(server)
        predicted = model.cost(build())
        assert predicted.out_rows == pytest.approx(50, rel=0.1)

    def test_predicted_time_tracks_simulated_time(self):
        sim, server, _, orders, _ = build_env()
        model = CostModel(server, chunk_bytes=1 * MIB)
        predicted = model.cost(TableScan(orders))
        ctx = ExecutionContext(sim=sim, server=server, chunk_bytes=1 * MIB)
        result = Executor(ctx).run(TableScan(orders))
        assert predicted.seconds == pytest.approx(
            result.elapsed_seconds, rel=0.35)

    def test_predicted_energy_positive_and_ordered(self):
        sim, server, _, orders, _ = build_env()
        model = CostModel(server)
        cost = model.cost(TableScan(orders))
        assert 0 < cost.energy_attributed_joules
        assert cost.energy_attributed_joules != cost.energy_full_joules


class TestPlanner:
    def make_spec(self, orders, customers, predicate=None):
        return QuerySpec(
            tables=[TableRef(orders, predicate=predicate),
                    TableRef(customers)],
            joins=[JoinEdge("customers", "orders", ["c_id"], ["o_cust"])],
            group_by=["c_region"],
            aggregates=[AggregateSpec("sum", col("o_total"), "revenue")],
        )

    def test_planner_produces_correct_results(self):
        sim, server, _, orders, customers = build_env()
        planner = Planner(CostModel(server), Objective.TIME)
        planned = planner.plan(self.make_spec(orders, customers))
        result = Executor(ExecutionContext(sim=sim, server=server)).run(
            planned.root)
        assert result.row_count == 5
        total = sum(r[1] for r in result.rows)
        expected = sum(float(i % 213) for i in range(3000))
        assert total == pytest.approx(expected)

    def test_planner_explores_candidates(self):
        sim, server, _, orders, customers = build_env()
        planner = Planner(CostModel(server), Objective.TIME)
        planned = planner.plan(self.make_spec(orders, customers))
        assert planned.candidates_considered >= 5

    def test_single_table_query(self):
        sim, server, _, orders, _ = build_env()
        planner = Planner(CostModel(server), Objective.TIME)
        planned = planner.plan(QuerySpec(
            tables=[TableRef(orders, predicate=col("o_total") > 100.0)],
            aggregates=[AggregateSpec("count", None, "n")]))
        result = Executor(ExecutionContext(sim=sim, server=server)).run(
            planned.root)
        assert result.rows[0][0] == sum(
            1 for i in range(3000) if (i % 213) > 100)

    def test_disconnected_join_graph_rejected(self):
        from repro.errors import OptimizerError
        sim, server, _, orders, customers = build_env()
        planner = Planner(CostModel(server), Objective.TIME)
        with pytest.raises(OptimizerError):
            planner.plan(QuerySpec(tables=[TableRef(orders),
                                           TableRef(customers)]))

    def test_objective_changes_scores(self):
        sim, server, _, orders, customers = build_env()
        model = CostModel(server)
        plan = HashJoin(TableScan(customers), TableScan(orders),
                        ["c_id"], ["o_cust"])
        cost = model.cost(plan)
        assert score(cost, Objective.TIME) != score(cost, Objective.ENERGY)
        assert score(cost, Objective.EDP) == pytest.approx(
            cost.seconds * cost.energy_full_joules)

    def test_weighted_objective_interpolates(self):
        sim, server, _, orders, _ = build_env()
        cost = CostModel(server).cost(TableScan(orders))
        w_time = WeightedObjective(1.0).score(cost)
        w_energy = WeightedObjective(0.0).score(cost)
        w_mid = WeightedObjective(0.5).score(cost)
        assert min(w_time, w_energy) <= w_mid <= max(w_time, w_energy)

    def test_three_way_join_plans(self):
        sim, server, storage, orders, customers = build_env()
        regions = storage.create_table(
            TableSchema("regions", [
                Column("r_id", DataType.INT64, nullable=False),
                Column("r_name", DataType.VARCHAR, nullable=False),
            ]), layout="row", placement=orders.placement)
        regions.load([(i, f"region{i}") for i in range(5)])
        spec = QuerySpec(
            tables=[TableRef(orders), TableRef(customers),
                    TableRef(regions)],
            joins=[JoinEdge("customers", "orders", ["c_id"], ["o_cust"]),
                   JoinEdge("regions", "customers", ["r_id"], ["c_region"])],
            group_by=["r_name"],
            aggregates=[AggregateSpec("count", None, "n")])
        planner = Planner(CostModel(server), Objective.TIME)
        planned = planner.plan(spec)
        result = Executor(ExecutionContext(sim=sim, server=server)).run(
            planned.root)
        assert result.row_count == 5
        assert sum(r[1] for r in result.rows) == 3000


class TestAdvisor:
    def test_for_server_prices(self):
        sim = Simulation()
        server, _ = flash_scan_node(sim)
        advisor = DesignAdvisor.for_server(server)
        assert advisor.cpu_joules_per_cycle > 0
        assert advisor.io_joules_per_byte > 0

    def test_codec_choice_depends_on_power_ratio(self):
        """With a power-hungry CPU, the energy objective should avoid
        CPU-heavy codecs that a pure size objective would pick."""
        values = [f"val{i % 7}" for i in range(3000)]
        hungry_cpu = DesignAdvisor(cpu_joules_per_cycle=1e-6,
                                   io_joules_per_byte=1e-9)
        cheap_cpu = DesignAdvisor(cpu_joules_per_cycle=1e-12,
                                  io_joules_per_byte=1e-6)
        pick_hungry = hungry_cpu.choose_codec(
            "c", values, DataType.VARCHAR).codec
        pick_cheap = cheap_cpu.choose_codec(
            "c", values, DataType.VARCHAR).codec
        assert pick_hungry == "none"
        assert pick_cheap != "none"

    def test_choose_codecs_for_table(self):
        sim, server, _, orders, _ = build_env()
        advisor = DesignAdvisor(cpu_joules_per_cycle=1e-12,
                                io_joules_per_byte=1e-6)
        codecs = advisor.choose_codecs(orders)
        assert set(codecs) == {"o_id", "o_cust", "o_total"}
        assert codecs["o_id"] == "delta"  # sorted ints
