"""TPC-H-style analytic queries.

Simplified analogues that preserve each query's operator mix and
data-flow shape: Q1 (scan-heavy aggregation), Q6 (selective scan with an
arithmetic aggregate), Q3/Q5/Q10 (multi-way joins with aggregation).
Q1 and Q6 are provided as direct operator trees; the join queries as
:class:`~repro.optimizer.planner.QuerySpec` for the planner.
"""

from __future__ import annotations

from datetime import date

from repro.relational.expr import Between, Case, InList, Like, col
from repro.relational.operators import (
    AggregateSpec,
    Exchange,
    HashAggregate,
    HashJoin,
    Operator,
    Sort,
    TableScan,
)
from repro.optimizer.planner import JoinEdge, QuerySpec, TableRef
from repro.workloads.tpch_gen import TpchDatabase


def q1(db: TpchDatabase, parallelism: int = 1) -> Operator:
    """Pricing summary report: big scan, group by two flags (the
    validation cutoff, 1998-09-02)."""
    scan: Operator = TableScan(
        db["lineitem"],
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_tax", "l_shipdate"],
        predicate=col("l_shipdate") <= date(1998, 9, 2))
    if parallelism > 1:
        scan = Exchange(scan, parallelism)
    disc_price = col("l_extendedprice") * (col("l_discount") * -1.0 + 1.0)
    return Sort(HashAggregate(
        scan, ["l_returnflag", "l_linestatus"],
        [AggregateSpec("sum", col("l_quantity"), "sum_qty"),
         AggregateSpec("sum", col("l_extendedprice"), "sum_base_price"),
         AggregateSpec("sum", disc_price, "sum_disc_price"),
         AggregateSpec("avg", col("l_quantity"), "avg_qty"),
         AggregateSpec("avg", col("l_discount"), "avg_disc"),
         AggregateSpec("count", None, "count_order")]),
        ["l_returnflag", "l_linestatus"])


def q6(db: TpchDatabase, parallelism: int = 1) -> Operator:
    """Forecasting revenue change: selective scan + single aggregate
    (the validation parameters: 1994, discount 0.06, quantity 24)."""
    predicate = ((col("l_shipdate") >= date(1994, 1, 1))
                 & (col("l_shipdate") < date(1995, 1, 1))
                 & Between(col("l_discount"), round(0.06 - 0.011, 3),
                           round(0.06 + 0.011, 3))
                 & (col("l_quantity") < 24.0))
    scan: Operator = TableScan(
        db["lineitem"],
        columns=["l_shipdate", "l_discount", "l_quantity",
                 "l_extendedprice"],
        predicate=predicate)
    if parallelism > 1:
        scan = Exchange(scan, parallelism)
    revenue = col("l_extendedprice") * col("l_discount")
    return HashAggregate(scan, [],
                         [AggregateSpec("sum", revenue, "revenue")])


def q14(db: TpchDatabase, month_start: date = date(1995, 9, 1),
        month_end: date = date(1995, 10, 1),
        parallelism: int = 1) -> Operator:
    """Promotion effect: share of revenue from PROMO parts.

    lineitem x part with a conditional (CASE) aggregate — the classic
    promo-revenue percentage.
    """
    part_scan: Operator = TableScan(
        db["part"], columns=["p_partkey", "p_type"])
    line_scan: Operator = TableScan(
        db["lineitem"],
        columns=["l_partkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
        predicate=((col("l_shipdate") >= month_start)
                   & (col("l_shipdate") < month_end)))
    if parallelism > 1:
        line_scan = Exchange(line_scan, parallelism)
    joined = HashJoin(part_scan, line_scan,
                      ["p_partkey"], ["l_partkey"])
    revenue = col("l_extendedprice") * (col("l_discount") * -1.0 + 1.0)
    promo_revenue = Case(
        [(Like(col("p_type"), "PROMO%"), revenue)], default=0.0)
    return HashAggregate(
        joined, [],
        [AggregateSpec("sum", promo_revenue, "promo_revenue"),
         AggregateSpec("sum", revenue, "total_revenue")])


def q3_spec(db: TpchDatabase, segment: str = "BUILDING",
            cutoff: date = date(1995, 3, 15)) -> QuerySpec:
    """Shipping priority: customer x orders x lineitem, top revenue."""
    return QuerySpec(
        tables=[
            TableRef(db["customer"],
                     predicate=col("c_mktsegment") == segment,
                     columns=["c_custkey", "c_mktsegment"]),
            TableRef(db["orders"],
                     predicate=col("o_orderdate") < cutoff,
                     columns=["o_orderkey", "o_custkey", "o_orderdate"]),
            TableRef(db["lineitem"],
                     predicate=col("l_shipdate") > cutoff,
                     columns=["l_orderkey", "l_extendedprice",
                              "l_discount", "l_shipdate"]),
        ],
        joins=[
            JoinEdge("customer", "orders", ["c_custkey"], ["o_custkey"]),
            JoinEdge("orders", "lineitem", ["o_orderkey"], ["l_orderkey"]),
        ],
        group_by=["o_orderkey"],
        aggregates=[AggregateSpec(
            "sum", col("l_extendedprice") * (col("l_discount") * -1.0 + 1.0),
            "revenue")],
        order_by=["o_orderkey"],
        limit=10,
    )


def q5_spec(db: TpchDatabase, region: str = "ASIA",
            year_start: date = date(1994, 1, 1),
            year_end: date = date(1995, 1, 1)) -> QuerySpec:
    """Local supplier volume: five-way join, revenue by nation."""
    return QuerySpec(
        tables=[
            TableRef(db["region"], predicate=col("r_name") == region),
            TableRef(db["nation"]),
            TableRef(db["supplier"], columns=["s_suppkey", "s_nationkey"]),
            TableRef(db["lineitem"],
                     columns=["l_orderkey", "l_suppkey",
                              "l_extendedprice", "l_discount"]),
            TableRef(db["orders"],
                     predicate=((col("o_orderdate") >= year_start)
                                & (col("o_orderdate") < year_end)),
                     columns=["o_orderkey", "o_orderdate"]),
        ],
        joins=[
            JoinEdge("region", "nation", ["r_regionkey"], ["n_regionkey"]),
            JoinEdge("nation", "supplier", ["n_nationkey"], ["s_nationkey"]),
            JoinEdge("supplier", "lineitem", ["s_suppkey"], ["l_suppkey"]),
            JoinEdge("orders", "lineitem", ["o_orderkey"], ["l_orderkey"]),
        ],
        group_by=["n_name"],
        aggregates=[AggregateSpec(
            "sum", col("l_extendedprice") * (col("l_discount") * -1.0 + 1.0),
            "revenue")],
        order_by=["n_name"],
    )


def q10_spec(db: TpchDatabase,
             quarter_start: date = date(1993, 10, 1),
             quarter_end: date = date(1994, 1, 1)) -> QuerySpec:
    """Returned-item reporting: revenue lost to returns, by customer."""
    return QuerySpec(
        tables=[
            TableRef(db["customer"], columns=["c_custkey", "c_name"]),
            TableRef(db["orders"],
                     predicate=((col("o_orderdate") >= quarter_start)
                                & (col("o_orderdate") < quarter_end)),
                     columns=["o_orderkey", "o_custkey", "o_orderdate"]),
            TableRef(db["lineitem"],
                     predicate=col("l_returnflag") == "R",
                     columns=["l_orderkey", "l_extendedprice",
                              "l_discount", "l_returnflag"]),
        ],
        joins=[
            JoinEdge("customer", "orders", ["c_custkey"], ["o_custkey"]),
            JoinEdge("orders", "lineitem", ["o_orderkey"], ["l_orderkey"]),
        ],
        group_by=["c_custkey"],
        aggregates=[AggregateSpec(
            "sum", col("l_extendedprice") * (col("l_discount") * -1.0 + 1.0),
            "revenue")],
        limit=20,
    )


def throughput_mix(db: TpchDatabase, parallelism: int = 4) -> list:
    """The query mix one throughput-test stream cycles through.

    Returns plan *builders* (each call constructs a fresh operator tree,
    since trees are single-use), scan-dominated like the TPC-H
    throughput test.
    """
    modes = ["SHIP", "RAIL"]

    def q_scan_orders() -> Operator:
        from repro.workloads.tpch_schema import ORDERS_SCAN_COLUMNS
        scan: Operator = TableScan(db["orders"],
                                   columns=ORDERS_SCAN_COLUMNS)
        if parallelism > 1:
            scan = Exchange(scan, parallelism)
        return HashAggregate(
            scan, ["o_orderstatus"],
            [AggregateSpec("sum", col("o_totalprice"), "total"),
             AggregateSpec("count", None, "n")])

    def q_shipmode() -> Operator:
        scan: Operator = TableScan(
            db["lineitem"],
            columns=["l_shipmode", "l_extendedprice", "l_quantity"],
            predicate=InList(col("l_shipmode"), modes))
        if parallelism > 1:
            scan = Exchange(scan, parallelism)
        return HashAggregate(
            scan, ["l_shipmode"],
            [AggregateSpec("sum", col("l_extendedprice"), "revenue"),
             AggregateSpec("avg", col("l_quantity"), "avg_qty")])

    return [
        lambda: q1(db, parallelism=parallelism),
        lambda: q6(db, parallelism=parallelism),
        q_scan_orders,
        q_shipmode,
    ]
