"""Integration tests for TPC-H generation, queries, and drivers."""

from datetime import date

import pytest

from repro.errors import WorkloadError
from repro.hardware.profiles import commodity, dl785
from repro.relational.executor import ExecutionContext, Executor
from repro.optimizer import CostModel, Objective, Planner
from repro.sim import Simulation
from repro.storage.manager import StorageManager
from repro.storage.wal import WriteAheadLog
from repro.workloads import (
    generate_tpch,
    q1,
    q3_spec,
    q6,
    q10_spec,
    run_oltp_stream,
    run_scan,
    run_throughput,
    throughput_mix,
    tpch_schemas,
)
from repro.workloads.tpch_gen import _row_counts


@pytest.fixture(scope="module")
def env():
    sim = Simulation()
    server, array = commodity(sim)
    storage = StorageManager(sim)
    db = generate_tpch(storage, array, scale_factor=0.001)
    return sim, server, db


class TestGenerator:
    def test_all_tables_present(self, env):
        _, _, db = env
        assert set(db.tables) == set(tpch_schemas())

    def test_row_counts_follow_ratios(self, env):
        _, _, db = env
        counts = _row_counts(0.001)
        assert db["orders"].row_count == counts["orders"] == 1500
        assert db["lineitem"].row_count == counts["lineitem"] == 6000
        assert db["region"].row_count == 5
        assert db["nation"].row_count == 25

    def test_generation_deterministic(self):
        def checksum(seed):
            sim = Simulation()
            _server, array = commodity(sim)
            storage = StorageManager(sim)
            db = generate_tpch(storage, array, scale_factor=0.0005,
                               seed=seed)
            return sum(hash(r) for r in db["orders"].iterate())

        assert checksum(1) == checksum(1)
        assert checksum(1) != checksum(2)

    def test_foreign_keys_resolve(self, env):
        _, _, db = env
        cust_keys = {r[0] for r in db["customer"].iterate(["c_custkey"])}
        assert all(r[0] in cust_keys
                   for r in db["orders"].iterate(["o_custkey"]))
        nation_keys = {r[0] for r in db["nation"].iterate(["n_nationkey"])}
        assert all(r[0] in nation_keys
                   for r in db["customer"].iterate(["c_nationkey"]))

    def test_orders_has_seven_attributes(self, env):
        _, _, db = env
        assert len(db["orders"].schema) == 7

    def test_dates_within_range(self, env):
        _, _, db = env
        dates = [r[0] for r in db["lineitem"].iterate(["l_shipdate"])]
        assert min(dates) >= date(1992, 1, 1)
        assert max(dates) <= date(1998, 12, 1)

    def test_bad_scale_factor_rejected(self):
        sim = Simulation()
        _server, array = commodity(sim)
        with pytest.raises(WorkloadError):
            generate_tpch(StorageManager(sim), array, scale_factor=0)


class TestQueries:
    def test_q1_produces_flag_groups(self, env):
        sim, server, db = env
        result = Executor(ExecutionContext(sim=sim, server=server)).run(
            q1(db))
        assert 1 <= result.row_count <= 6  # at most 3 flags x 2 statuses
        assert result.columns[0] == "l_returnflag"
        # sums are positive and count matches filtered rows
        assert all(r[2] > 0 for r in result.rows)

    def test_q6_single_revenue_number(self, env):
        sim, server, db = env
        result = Executor(ExecutionContext(sim=sim, server=server)).run(
            q6(db))
        assert result.row_count == 1
        expected = sum(
            p * d for (s, d, q, p) in db["lineitem"].iterate(
                ["l_shipdate", "l_discount", "l_quantity",
                 "l_extendedprice"])
            if date(1994, 1, 1) <= s < date(1995, 1, 1)
            and 0.049 <= d <= 0.071 and q < 24)
        assert result.rows[0][0] == pytest.approx(expected)

    def test_q3_plans_and_runs(self, env):
        sim, server, db = env
        planner = Planner(CostModel(server), Objective.TIME)
        planned = planner.plan(q3_spec(db))
        result = Executor(ExecutionContext(sim=sim, server=server)).run(
            planned.root)
        assert result.row_count <= 10

    def test_q10_plans_and_runs(self, env):
        sim, server, db = env
        planner = Planner(CostModel(server), Objective.ENERGY)
        planned = planner.plan(q10_spec(db))
        result = Executor(ExecutionContext(sim=sim, server=server)).run(
            planned.root)
        assert result.row_count <= 20

    def test_throughput_mix_builders_are_fresh(self, env):
        _, _, db = env
        mix = throughput_mix(db)
        assert mix[0]() is not mix[0]()  # new tree per call


class TestThroughputDriver:
    def test_report_fields_consistent(self):
        sim = Simulation()
        server, array = dl785(sim, n_disks=12, spindle_groups=12)
        storage = StorageManager(sim)
        db = generate_tpch(storage, array, scale_factor=0.0005)
        report = run_throughput(sim, server, throughput_mix(db),
                                streams=2, queries_per_stream=2,
                                scale=100.0)
        assert report.queries_completed == 4
        assert len(report.query_seconds) == 4
        assert report.makespan_seconds > 0
        assert report.energy_joules == pytest.approx(
            report.average_power_watts * report.makespan_seconds, rel=1e-6)
        assert report.energy_efficiency > 0

    def test_more_disks_run_faster(self):
        def makespan(n):
            sim = Simulation()
            server, array = dl785(sim, n_disks=n, spindle_groups=6)
            storage = StorageManager(sim)
            db = generate_tpch(storage, array, scale_factor=0.0005)
            report = run_throughput(sim, server, throughput_mix(db),
                                    streams=2, queries_per_stream=2,
                                    scale=2000.0)
            return report.makespan_seconds

        assert makespan(24) < makespan(6)

    def test_empty_mix_rejected(self):
        sim = Simulation()
        server, _array = dl785(sim, n_disks=6)
        with pytest.raises(WorkloadError):
            run_throughput(sim, server, [], streams=1)


class TestScanExperiment:
    def test_uncompressed_matches_paper_numbers(self):
        report = run_scan(compressed=False, scale_factor=0.001)
        assert report.total_seconds == pytest.approx(10.0, rel=0.05)
        assert report.cpu_seconds == pytest.approx(3.2, rel=0.05)
        assert report.energy_joules == pytest.approx(338.0, rel=0.05)
        assert report.compression_ratio == pytest.approx(1.0, abs=0.02)

    def test_compressed_is_faster_but_hungrier(self):
        plain = run_scan(compressed=False, scale_factor=0.001)
        packed = run_scan(compressed=True, scale_factor=0.001)
        assert packed.total_seconds < 0.7 * plain.total_seconds
        assert packed.energy_joules > 1.15 * plain.energy_joules
        assert packed.cpu_seconds > plain.cpu_seconds
        assert packed.compression_ratio < 0.7

    def test_energy_efficiency_metric(self):
        report = run_scan(compressed=False, scale_factor=0.001)
        assert report.energy_efficiency == pytest.approx(
            1.0 / report.energy_joules)


class TestOltpStream:
    def run_stream(self, batch_records, batch_timeout):
        sim = Simulation()
        server, _array = commodity(sim)
        log_device = server.storage[-1]  # the NVMe drive
        wal = WriteAheadLog(sim, log_device, batch_records=batch_records,
                            batch_timeout_seconds=batch_timeout)
        return run_oltp_stream(sim, server.cpu, wal, n_transactions=300,
                               arrival_rate_per_s=2000.0)

    def test_all_transactions_commit(self):
        report = self.run_stream(1, 0.0)
        assert report.transactions == 300
        assert report.throughput_tps > 0

    def test_batching_cuts_flushes_and_raises_latency(self):
        eager = self.run_stream(1, 0.0)
        batched = self.run_stream(16, 0.05)
        assert batched.log_flushes < eager.log_flushes / 4
        assert batched.mean_commit_latency_seconds > \
            eager.mean_commit_latency_seconds
        assert batched.log_bytes_flushed < eager.log_bytes_flushed

    def test_p99_at_least_mean(self):
        report = self.run_stream(8, 0.01)
        assert report.p99_commit_latency_seconds >= \
            report.mean_commit_latency_seconds
