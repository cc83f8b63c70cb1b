"""Integration tests for consolidation: batching, migration, cluster."""

import pytest

from repro.errors import ConsolidationError
from repro.consolidation import (
    ClusterPolicy,
    diurnal_trace,
    execute_consolidation,
    poisson_arrivals,
    run_batched,
    run_fifo,
    simulate_cluster,
)
from repro.consolidation.cluster import ServerPowerModel
from repro.hardware.profiles import commodity
from repro.relational.executor import ExecutionContext, Executor
from repro.relational.operators import TableScan
from repro.sim import Simulation
from repro.storage.manager import StorageManager
from repro.storage.partitioner import DeviceSlot, Partition, Partitioner
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.units import MB


def build_env(scale=200.0):
    sim = Simulation()
    server, array = commodity(sim)
    storage = StorageManager(sim)
    table = storage.create_table(
        TableSchema("t", [Column("k", DataType.INT64, nullable=False)]),
        layout="row", placement=array)
    table.load([(i,) for i in range(2000)])
    executor = Executor(ExecutionContext(sim=sim, server=server,
                                         scale=scale))
    return sim, server, array, table, executor


class TestBatchingScheduler:
    def make_arrivals(self, table, n=8, rate=0.02):
        # sparse arrivals: ~50 s apart, well past the disks' break-even
        return poisson_arrivals([lambda: TableScan(table)], n, rate)

    def test_fifo_completes_all(self):
        sim, server, _array, table, executor = build_env()
        report = run_fifo(sim, server, executor,
                          self.make_arrivals(table))
        assert report.completed == 8
        assert report.policy == "fifo"
        assert report.mean_latency_seconds > 0

    def test_batching_saves_energy_at_latency_cost(self):
        def run(policy):
            sim, server, array, table, executor = build_env()
            arrivals = self.make_arrivals(table)
            horizon = max(a.at_seconds for a in arrivals) + 120.0
            if policy == "fifo":
                rep = run_fifo(sim, server, executor, arrivals,
                               tail_seconds=horizon - sim.now)
            else:
                rep = run_batched(sim, server, executor, arrivals, array,
                                  window_seconds=100.0,
                                  tail_seconds=horizon - sim.now)
            return rep

        fifo = run("fifo")
        batched = run("batched")
        assert batched.energy_joules < fifo.energy_joules
        assert batched.mean_latency_seconds > fifo.mean_latency_seconds
        assert batched.spin_down_count >= 1

    def test_bad_window_rejected(self):
        sim, server, array, table, executor = build_env()
        with pytest.raises(ConsolidationError):
            run_batched(sim, server, executor,
                        self.make_arrivals(table), array,
                        window_seconds=0.0)

    def test_batching_point_without_queries_rejected(self):
        from repro.consolidation.experiments import batching_point
        with pytest.raises(ConsolidationError,
                           match="need at least one query"):
            batching_point(queries=0)

    def test_poisson_arrivals_sorted_and_cycling(self):
        arrivals = poisson_arrivals([lambda: 1, lambda: 2], 10, 1.0)
        times = [a.at_seconds for a in arrivals]
        assert times == sorted(times)
        assert arrivals[0].builder() == 1
        assert arrivals[1].builder() == 2


class TestMigration:
    def test_execute_consolidation_meters_costs(self):
        sim = Simulation()
        server, _array = commodity(sim, n_disks=4)
        disks = {d.name: d for d in server.storage
                 if d.name.startswith("hdd")}
        slots = [DeviceSlot(name, d.spec.capacity_bytes,
                            d.spec.bandwidth_bytes_per_s,
                            d.spec.idle_watts, d.spec.active_watts)
                 for name, d in disks.items()]
        partitioner = Partitioner(slots)
        parts = [Partition(f"p{i}", 200 * MB, read_bytes_per_s=1 * MB)
                 for i in range(4)]
        current = {f"p{i}": f"hdd{i}" for i in range(4)}
        plan = partitioner.plan_consolidation(parts, current)
        outcome = execute_consolidation(sim, plan, disks)
        assert outcome.moved_bytes == sum(m.size_bytes for m in plan.moves)
        assert outcome.migration_energy_joules > 0
        assert len(outcome.released_devices) == len(plan.devices_released)
        assert 0 < outcome.breakeven_seconds() < float("inf")
        # released disks really are in standby now
        for name in outcome.released_devices:
            assert disks[name].state == "standby"

    def test_metered_breakeven_tracks_planned(self):
        sim = Simulation()
        server, _array = commodity(sim, n_disks=2)
        disks = {d.name: d for d in server.storage
                 if d.name.startswith("hdd")}
        slots = [DeviceSlot(name, d.spec.capacity_bytes,
                            d.spec.bandwidth_bytes_per_s,
                            d.spec.idle_watts, d.spec.active_watts)
                 for name, d in disks.items()]
        partitioner = Partitioner(slots)
        parts = [Partition("a", 100 * MB), Partition("b", 100 * MB)]
        plan = partitioner.plan_consolidation(
            parts, {"a": "hdd0", "b": "hdd1"})
        outcome = execute_consolidation(sim, plan, disks)
        # the plan is a lower bound (pipelined copy, no spin-down time);
        # metered reality is store-and-forward plus the spin-down
        assert plan.migration_seconds <= outcome.migration_seconds \
            <= 5 * plan.migration_seconds

    def test_unknown_device_rejected(self):
        sim = Simulation()
        from repro.storage.partitioner import ConsolidationPlan, Move
        plan = ConsolidationPlan(assignments={},
                                 moves=[Move("p", "ghost", "also-ghost", 1)])
        with pytest.raises(ConsolidationError):
            execute_consolidation(sim, plan, {})


class TestCluster:
    def test_consolidation_beats_all_on(self):
        trace = diurnal_trace()
        all_on = simulate_cluster(trace, 16, ClusterPolicy.ALL_ON)
        packed = simulate_cluster(trace, 16, ClusterPolicy.CONSOLIDATE)
        assert packed.total_energy_joules < 0.8 * all_on.total_energy_joules
        assert packed.server_hours < all_on.server_hours

    def test_consolidated_cluster_more_proportional(self):
        trace = diurnal_trace()
        all_on = simulate_cluster(trace, 16, ClusterPolicy.ALL_ON)
        packed = simulate_cluster(trace, 16, ClusterPolicy.CONSOLIDATE)
        assert packed.proportionality() > all_on.proportionality()

    def test_lazy_policy_between_extremes(self):
        trace = diurnal_trace()
        all_on = simulate_cluster(trace, 16, ClusterPolicy.ALL_ON)
        packed = simulate_cluster(trace, 16, ClusterPolicy.CONSOLIDATE)
        lazy = simulate_cluster(trace, 16, ClusterPolicy.CONSOLIDATE_LAZY)
        assert packed.total_energy_joules <= lazy.total_energy_joules \
            <= all_on.total_energy_joules

    def test_cycle_energy_charged(self):
        trace = [0.2, 0.9, 0.2, 0.9]
        packed = simulate_cluster(trace, 10, ClusterPolicy.CONSOLIDATE)
        assert packed.cycle_energy_joules > 0

    def test_all_on_has_flat_power_curve(self):
        trace = diurnal_trace()
        report = simulate_cluster(trace, 8, ClusterPolicy.ALL_ON)
        powers = [p for _, p in report.power_curve]
        spread = (max(powers) - min(powers)) / max(powers)
        # only the utilization-linear term varies; idle dominates
        assert spread < 0.5

    def test_trace_validation(self):
        with pytest.raises(ConsolidationError):
            simulate_cluster([1.5], 4, ClusterPolicy.ALL_ON)
        with pytest.raises(ConsolidationError):
            simulate_cluster([0.5], 0, ClusterPolicy.ALL_ON)

    def test_power_model_bounds(self):
        model = ServerPowerModel(idle_watts=100, peak_watts=200)
        assert model.power(0.0) == 100
        assert model.power(1.0) == 200
        with pytest.raises(ConsolidationError):
            model.power(1.2)
