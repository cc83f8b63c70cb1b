"""Unit tests for physical operators (evaluate phase: results + costs)."""

import pytest

from repro.errors import PlanError
from repro.hardware.raid import RaidArray
from repro.hardware.ssd import FlashSsd, SsdSpec
from repro.relational.expr import col
from repro.relational.operators import (
    AggregateSpec,
    BlockNestedLoopJoin,
    CostCollector,
    Exchange,
    Filter,
    HashAggregate,
    HashJoin,
    Limit,
    Sort,
    SortMergeJoin,
    SortedAggregate,
    TableScan,
)
from repro.relational.plan import explain
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.sim import Simulation
from repro.storage.manager import StorageManager
from repro.units import MB


@pytest.fixture
def env():
    sim = Simulation()
    ssd = FlashSsd(sim, SsdSpec(name="s0", capacity_bytes=1000 * MB,
                                read_bandwidth_bytes_per_s=100 * MB,
                                write_bandwidth_bytes_per_s=100 * MB,
                                read_watts=2.0, write_watts=2.0,
                                idle_watts=0.0))
    array = RaidArray(sim, [ssd], name="a0")
    storage = StorageManager(sim)
    orders = storage.create_table(
        TableSchema("orders", [
            Column("o_id", DataType.INT64, nullable=False),
            Column("o_cust", DataType.INT64, nullable=False),
            Column("o_total", DataType.FLOAT64, nullable=False),
        ]), layout="row", placement=array)
    orders.load([(i, i % 5, float(i) * 10) for i in range(100)])
    customers = storage.create_table(
        TableSchema("customers", [
            Column("c_id", DataType.INT64, nullable=False),
            Column("c_name", DataType.VARCHAR, nullable=False),
        ]), layout="row", placement=array)
    customers.load([(i, f"cust{i}") for i in range(5)])
    return sim, storage, orders, customers


def run(op):
    collector = CostCollector()
    rows = op.execute(collector)
    return rows, collector


class TestScanFilterProject:
    def test_scan_all(self, env):
        _, _, orders, _ = env
        rows, collector = run(TableScan(orders))
        assert len(rows) == 100
        assert collector.total_io_bytes() > 0
        assert collector.total_cpu_cycles() > 0

    def test_scan_projection(self, env):
        _, _, orders, _ = env
        rows, _ = run(TableScan(orders, columns=["o_id"]))
        assert rows[:3] == [(0,), (1,), (2,)]

    def test_scan_predicate_pushdown(self, env):
        _, _, orders, _ = env
        rows, _ = run(TableScan(orders, predicate=col("o_cust") == 2))
        assert len(rows) == 20
        assert all(r[1] == 2 for r in rows)

    def test_scan_unknown_column_rejected(self, env):
        _, _, orders, _ = env
        with pytest.raises(PlanError):
            TableScan(orders, columns=["ghost"])

    def test_scan_predicate_needs_projected_columns(self, env):
        _, _, orders, _ = env
        with pytest.raises(PlanError):
            TableScan(orders, columns=["o_id"],
                      predicate=col("o_total") > 0)

    def test_filter(self, env):
        _, _, orders, _ = env
        rows, _ = run(Filter(TableScan(orders), col("o_total") > 500.0))
        assert len(rows) == 49

    def test_filter_charges_cpu_per_row(self, env):
        _, _, orders, _ = env
        scan_only = run(TableScan(orders))[1].total_cpu_cycles()
        filtered = run(Filter(TableScan(orders),
                              col("o_id") >= 0))[1].total_cpu_cycles()
        assert filtered > scan_only


class TestJoins:
    def test_hash_join_results(self, env):
        _, _, orders, customers = env
        join = HashJoin(TableScan(customers), TableScan(orders),
                        ["c_id"], ["o_cust"])
        rows, collector = run(join)
        assert len(rows) == 100
        assert join.output_columns == ["c_id", "c_name", "o_id", "o_cust",
                                       "o_total"]
        # the build boundary splits the plan into >= 2 pipelines
        assert len(collector.pipelines) >= 2

    def test_hash_join_charges_memory_grant(self, env):
        _, _, orders, customers = env
        join = HashJoin(TableScan(customers), TableScan(orders),
                        ["c_id"], ["o_cust"])
        _, collector = run(join)
        assert any(p.dram_grant_bytes > 0 for p in collector.pipelines)

    def test_hash_join_key_mismatch_rejected(self, env):
        _, _, orders, customers = env
        with pytest.raises(PlanError):
            HashJoin(TableScan(customers), TableScan(orders),
                     ["c_id"], ["o_cust", "o_id"])

    def test_join_column_collision_rejected(self, env):
        _, _, orders, _ = env
        with pytest.raises(PlanError):
            HashJoin(TableScan(orders), TableScan(orders),
                     ["o_id"], ["o_id"])

    def test_nested_loop_join_matches_hash_join(self, env):
        _, _, orders, customers = env
        hash_rows, _ = run(HashJoin(TableScan(customers), TableScan(orders),
                                    ["c_id"], ["o_cust"]))
        nlj = BlockNestedLoopJoin(
            TableScan(customers), TableScan(orders),
            predicate=col("c_id") == col("o_cust"), block_rows=2)
        nlj_rows, _ = run(nlj)
        assert sorted(hash_rows) == sorted(nlj_rows)

    def test_nested_loop_charges_inner_rescans(self, env):
        _, _, orders, customers = env
        single = run(TableScan(orders))[1].total_io_bytes()
        nlj = BlockNestedLoopJoin(
            TableScan(customers), TableScan(orders),
            predicate=col("c_id") == col("o_cust"), block_rows=2)
        _, collector = run(nlj)
        # 5 customers / block_rows=2 -> 3 blocks -> 3 reads of orders
        orders_io = collector.total_io_bytes()
        assert orders_io > 2.5 * single

    def test_nested_loop_uses_little_memory(self, env):
        _, _, orders, customers = env
        nlj = BlockNestedLoopJoin(
            TableScan(customers), TableScan(orders),
            predicate=col("c_id") == col("o_cust"))
        _, collector = run(nlj)
        assert all(p.dram_grant_bytes == 0 for p in collector.pipelines)

    def test_nested_loop_inner_must_be_scan(self, env):
        _, _, orders, customers = env
        with pytest.raises(PlanError):
            BlockNestedLoopJoin(
                TableScan(customers),
                Filter(TableScan(orders), col("o_id") > 0),
                predicate=col("c_id") == col("o_cust"))

    def test_sort_merge_join_matches_hash_join(self, env):
        _, _, orders, customers = env
        hash_rows, _ = run(HashJoin(TableScan(customers), TableScan(orders),
                                    ["c_id"], ["o_cust"]))
        smj_rows, _ = run(SortMergeJoin(TableScan(customers),
                                        TableScan(orders),
                                        ["c_id"], ["o_cust"]))
        assert sorted(r for r in hash_rows) == sorted(smj_rows)


class TestSortAggregateLimit:
    def test_sort_ascending(self, env):
        _, _, orders, _ = env
        rows, _ = run(Sort(TableScan(orders), ["o_total"]))
        totals = [r[2] for r in rows]
        assert totals == sorted(totals)

    def test_sort_multi_key_stable(self, env):
        _, _, orders, _ = env
        rows, _ = run(Sort(TableScan(orders), ["o_cust", "o_id"]))
        assert [r[1] for r in rows] == sorted(r[1] for r in rows)
        # within a customer, ids ascend
        cust0 = [r[0] for r in rows if r[1] == 0]
        assert cust0 == sorted(cust0)

    def test_sort_breaks_pipeline(self, env):
        _, _, orders, _ = env
        _, collector = run(Sort(TableScan(orders), ["o_id"]))
        assert len(collector.pipelines) >= 2

    def test_external_sort_spills(self, env):
        sim, _, orders, _ = env
        spill_array = orders.placement
        op = Sort(TableScan(orders), ["o_total"],
                  memory_grant_bytes=100.0, spill_placement=spill_array)
        rows, collector = run(op)
        assert op.spilled
        assert [r[2] for r in rows] == sorted(r[2] for r in rows)
        writes = sum(req.nbytes for p in collector.pipelines
                     for req in p.io if req.is_write)
        assert writes > 0

    def test_hash_aggregate(self, env):
        _, _, orders, _ = env
        op = HashAggregate(
            TableScan(orders), ["o_cust"],
            [AggregateSpec("count", None, "n"),
             AggregateSpec("sum", col("o_total"), "total"),
             AggregateSpec("max", col("o_id"), "top")])
        rows, _ = run(op)
        assert len(rows) == 5
        by_cust = {r[0]: r for r in rows}
        assert by_cust[0][1] == 20
        assert by_cust[4][3] == 99

    def test_global_aggregate_without_groups(self, env):
        _, _, orders, _ = env
        rows, _ = run(HashAggregate(
            TableScan(orders), [],
            [AggregateSpec("avg", col("o_total"), "mean")]))
        assert rows == [(pytest.approx(495.0),)]

    def test_aggregate_over_empty_input(self, env):
        _, _, orders, _ = env
        rows, _ = run(HashAggregate(
            Filter(TableScan(orders), col("o_id") < 0), [],
            [AggregateSpec("count", None, "n"),
             AggregateSpec("sum", col("o_total"), "s")]))
        assert rows == [(0, None)]

    def test_sorted_aggregate_matches_hash(self, env):
        _, _, orders, _ = env
        hash_rows, _ = run(HashAggregate(
            TableScan(orders), ["o_cust"],
            [AggregateSpec("sum", col("o_total"), "t")]))
        sorted_rows, collector = run(SortedAggregate(
            Sort(TableScan(orders), ["o_cust"]), ["o_cust"],
            [AggregateSpec("sum", col("o_total"), "t")]))
        assert sorted(hash_rows) == sorted(sorted_rows)

    def test_sorted_aggregate_rejects_unsorted(self, env):
        _, _, orders, _ = env
        op = SortedAggregate(TableScan(orders), ["o_cust"],
                             [AggregateSpec("count", None, "n")])
        with pytest.raises(PlanError):
            run(op)

    def test_limit_and_offset(self, env):
        _, _, orders, _ = env
        rows, _ = run(Limit(TableScan(orders), 5, offset=10))
        assert [r[0] for r in rows] == [10, 11, 12, 13, 14]

    def test_exchange_sets_parallelism(self, env):
        _, _, orders, _ = env
        _, collector = run(Exchange(TableScan(orders), degree=4))
        assert collector.pipelines[0].parallelism == 4


class TestPlanUtilities:
    def test_explain_tree(self, env):
        _, _, orders, customers = env
        plan = HashJoin(TableScan(customers),
                        Filter(TableScan(orders), col("o_id") > 3),
                        ["c_id"], ["o_cust"])
        text = explain(plan)
        assert "HashJoin" in text
        assert text.count("TableScan") == 2
