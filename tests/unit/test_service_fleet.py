"""Unit tests for the fleet-serving layer: power models, node energy
accounting, workload streams, dispatch policies, and the autoscaler."""

import pytest

from repro.errors import ReproError
from repro.service import (Autoscaler, DispatchContext, FleetNode,
                           FleetSpec, LeastLoaded, NodePowerModel,
                           PowerAwarePacking, RoundRobin,
                           ServiceError, ServiceReport, Tenant,
                           build_stream, make_policy, simulate_service)
from repro.service.report import NodeStats, TenantStats, quantile


def make_model(**overrides):
    base = dict(name="test", idle_watts=100.0, peak_watts=200.0,
                boot_seconds=10.0, boot_joules=2000.0,
                drain_seconds=2.0, drain_joules=300.0)
    base.update(overrides)
    return NodePowerModel(**base)


class TestNodePowerModel:
    def test_power_is_utilization_linear(self):
        model = make_model()
        assert model.power(0.0) == pytest.approx(100.0)
        assert model.power(0.5) == pytest.approx(150.0)
        assert model.power(1.0) == pytest.approx(200.0)

    def test_rejects_inverted_curve(self):
        with pytest.raises(ServiceError):
            make_model(idle_watts=300.0, peak_watts=200.0)

    def test_breakeven_repays_cycle_at_idle_draw(self):
        model = make_model()
        assert model.breakeven_seconds() == pytest.approx(2300.0 / 100.0)

    def test_from_server_matches_profile_spec_arithmetic(self):
        from repro.hardware.profiles import commodity
        from repro.sim import Simulation
        model = NodePowerModel.from_server("commodity")
        server, _ = commodity(Simulation())
        assert model.idle_watts == pytest.approx(server.idle_power_watts())
        assert model.peak_watts == pytest.approx(server.peak_power_watts())
        assert model.boot_joules == pytest.approx(
            model.peak_watts * model.boot_seconds)

    def test_from_server_unknown_profile(self):
        with pytest.raises(ServiceError, match="unknown hardware profile"):
            NodePowerModel.from_server("mainframe")


class TestFleetNodeEnergy:
    def test_idle_interval_closed_form(self):
        node = FleetNode("n", make_model())
        stats = node.finalize(100.0)
        assert stats.energy_joules == pytest.approx(100.0 * 100.0)
        assert stats.on_seconds == pytest.approx(100.0)
        assert stats.busy_seconds == 0.0

    def test_busy_interval_adds_peak_minus_idle(self):
        node = FleetNode("n", make_model())
        latency = node.serve(10.0, 5.0)
        assert latency == pytest.approx(5.0)
        stats = node.finalize(100.0)
        # idle for the whole span, plus the busy delta for 5 s
        assert stats.energy_joules == pytest.approx(
            100.0 * 100.0 + (200.0 - 100.0) * 5.0)
        assert stats.busy_seconds == pytest.approx(5.0)

    def test_fcfs_waits_accumulate(self):
        node = FleetNode("n", make_model())
        assert node.serve(0.0, 4.0) == pytest.approx(4.0)
        # arrives at 1.0 behind 3.0 s of backlog
        assert node.backlog(1.0) == pytest.approx(3.0)
        assert node.serve(1.0, 2.0) == pytest.approx(3.0 + 2.0)

    def test_power_cycle_charges_lumps_once(self):
        model = make_model()
        node = FleetNode("n", model)
        node.power_off(50.0)
        node.power_on(100.0)
        stats = node.finalize(150.0)
        # [0,50] idle + drain lump + boot lump + [100,150] with the
        # 10 s boot window priced only by the lump
        expected = (100.0 * 50.0 + 300.0 + 2000.0
                    + 100.0 * (50.0 - 10.0))
        assert stats.energy_joules == pytest.approx(expected)
        assert stats.boots == 1
        assert stats.on_seconds == pytest.approx(100.0)

    def test_power_off_refuses_backlogged_pipe(self):
        node = FleetNode("n", make_model())
        node.serve(0.0, 100.0)
        with pytest.raises(ServiceError, match="backlog"):
            node.power_off(50.0)

    def test_serve_refuses_powered_off_node(self):
        node = FleetNode("n", make_model())
        node.on = False
        with pytest.raises(ServiceError, match="powered-off"):
            node.serve(0.0, 1.0)

    def test_boot_delays_service(self):
        node = FleetNode("n", make_model())
        node.on = False
        node.power_on(100.0)
        # arrival during boot waits for boot completion
        assert node.serve(101.0, 1.0) == pytest.approx(9.0 + 1.0)


class TestWorkloadStream:
    def test_stream_is_time_ordered_and_complete(self):
        stream = build_stream(5_000, seed=3)
        assert len(stream) == 5_000
        times = stream.times
        assert (times[1:] >= times[:-1]).all()

    def test_same_seed_same_stream(self):
        a = build_stream(2_000, seed=11)
        b = build_stream(2_000, seed=11)
        assert (a.times == b.times).all()
        assert (a.class_index == b.class_index).all()

    def test_different_seed_different_stream(self):
        a = build_stream(2_000, seed=11)
        b = build_stream(2_000, seed=12)
        assert (a.times != b.times).any()

    def test_tenant_arrivals_independent_of_other_tenants(self):
        # removing a tenant must not perturb the survivors' draws
        t1 = Tenant("a", rate_per_s=2.0, sla_p95_seconds=1.0,
                    mix=(("point", 1.0),))
        t2 = Tenant("b", rate_per_s=1.0, sla_p95_seconds=1.0,
                    mix=(("point", 1.0),))
        both = build_stream(300, tenants=(t1, t2), seed=5)
        solo = build_stream(200, tenants=(t1,), seed=5)
        both_a = both.times[both.tenant_index == 0]
        assert (both_a[:100] == solo.times[:100]).all()

    def test_counts_proportional_to_rates(self):
        stream = build_stream(10_000, seed=1)
        rates = [t.rate_per_s for t in stream.tenants]
        for i, rate in enumerate(rates):
            share = (stream.tenant_index == i).sum() / len(stream)
            assert share == pytest.approx(rate / sum(rates), abs=1e-3)

    def test_rejects_unknown_class_in_mix(self):
        bad = Tenant("x", rate_per_s=1.0, sla_p95_seconds=1.0,
                     mix=(("nope", 1.0),))
        with pytest.raises(ServiceError, match="unknown query class"):
            build_stream(10, tenants=(bad,))

    def test_rejects_empty_stream(self):
        with pytest.raises(ServiceError):
            build_stream(0)


class TestDispatchPolicies:
    def nodes(self, backlogs):
        model = make_model()
        out = []
        for i, b in enumerate(backlogs):
            node = FleetNode(f"n{i}", model)
            if b:
                node.serve(0.0, b)
            out.append(node)
        return out

    @staticmethod
    def ctx(nodes, on_ids):
        return DispatchContext(nodes, on_ids, 0.0, 1.0)

    def test_round_robin_rotates(self):
        nodes = self.nodes([0, 0, 0])
        policy = RoundRobin()
        picks = [policy.route(self.ctx(nodes, [0, 1, 2]))
                 for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_loaded_takes_smallest_backlog(self):
        nodes = self.nodes([5.0, 1.0, 3.0])
        assert LeastLoaded().route(self.ctx(nodes, [0, 1, 2])) == 1

    def test_packing_fills_first_underbound_node(self):
        nodes = self.nodes([0.1, 0.0, 0.0])
        policy = PowerAwarePacking(pack_backlog_seconds=0.2)
        assert policy.route(self.ctx(nodes, [0, 1, 2])) == 0

    def test_packing_spills_to_least_loaded(self):
        nodes = self.nodes([5.0, 2.0, 3.0])
        policy = PowerAwarePacking(pack_backlog_seconds=0.2)
        assert policy.route(self.ctx(nodes, [0, 1, 2])) == 1

    def test_packing_skips_powered_off_nodes(self):
        nodes = self.nodes([4.0, 0.0, 0.0])
        policy = PowerAwarePacking(pack_backlog_seconds=0.2)
        # node 1 is off: on_ids excludes it
        assert policy.route(self.ctx(nodes, [0, 2])) == 2

    def test_admission_limit_rejects_deep_backlog(self):
        nodes = self.nodes([10.0])
        policy = RoundRobin(admission_limit_seconds=1.0)
        assert not policy.admits(nodes[0], 0.0)
        assert policy.admits(nodes[0], 9.5)

    def test_make_policy_unknown_name(self):
        with pytest.raises(ServiceError, match="unknown dispatch policy"):
            make_policy("random")

    def test_register_policy_extends_registry(self):
        from repro.service.dispatch import (DISPATCH_POLICIES,
                                            register_policy)

        class Sticky(RoundRobin):
            name = "sticky"

        register_policy(Sticky)
        try:
            assert isinstance(make_policy("sticky"), Sticky)
        finally:
            del DISPATCH_POLICIES["sticky"]


class TestAutoscaler:
    def fleet(self, n=4, model=None):
        model = model or make_model(boot_seconds=0.0, boot_joules=0.0,
                                    drain_seconds=0.0, drain_joules=0.0)
        nodes = [FleetNode(f"n{i}", model) for i in range(n)]
        return nodes, list(range(n))

    def test_scales_down_after_hold(self):
        nodes, on_ids = self.fleet()
        scaler = Autoscaler(nodes[0].model, epoch_seconds=10.0,
                            target_utilization=0.5, min_nodes=1)
        # demand ~0.5 node-seconds/s wants 1 node at 50% target
        t = 0.0
        for _ in range(20):
            t += 10.0
            scaler.observe(5.0)
            scaler.step(t, nodes, on_ids)
        assert len(on_ids) == 1
        assert sum(1 for n in nodes if n.on) == 1

    def test_scale_down_waits_for_breakeven(self):
        model = make_model(boot_seconds=0.0, boot_joules=50_000.0,
                           drain_seconds=0.0, drain_joules=50_000.0)
        nodes = [FleetNode(f"n{i}", model) for i in range(4)]
        on_ids = list(range(4))
        scaler = Autoscaler(model, epoch_seconds=10.0, min_nodes=1)
        # break-even = 100 kJ / 100 W = 1000 s: three low epochs clear
        # the two-epoch cooldown but are not enough evidence to cycle
        # a node
        scaler.step(10.0, nodes, on_ids)
        scaler.step(20.0, nodes, on_ids)
        scaler.step(30.0, nodes, on_ids)
        assert len(on_ids) == 4
        # once demand has stayed low for the break-even time, a node
        # drains
        scaler.step(1010.0, nodes, on_ids)
        assert len(on_ids) < 4

    def test_scales_up_immediately(self):
        nodes, on_ids = self.fleet()
        for i in (2, 3):
            nodes[i].power_off(0.0)
            on_ids.remove(i)
        scaler = Autoscaler(nodes[0].model, epoch_seconds=10.0,
                            target_utilization=0.5, min_nodes=1)
        scaler.observe(18.0)  # 1.8 node-s/s -> 4 nodes at 50%
        scaler.step(10.0, nodes, on_ids)
        assert len(on_ids) == 4

    def test_respects_min_nodes(self):
        nodes, on_ids = self.fleet()
        scaler = Autoscaler(nodes[0].model, epoch_seconds=10.0,
                            min_nodes=2)
        for t in range(1, 30):
            scaler.step(10.0 * t, nodes, on_ids)
        assert len(on_ids) == 2


class TestReports:
    def make_report(self, **overrides):
        base = dict(policy="p", n_nodes=2, queries_offered=10,
                    queries_completed=8, queries_rejected=2,
                    makespan_seconds=100.0, energy_joules=400.0,
                    p50_latency_seconds=0.1, p95_latency_seconds=0.5,
                    p99_latency_seconds=0.9, mean_latency_seconds=0.2,
                    node_seconds_on=150.0,
                    tenants=[TenantStats("t", 8, 2, 0.2, 0.1, 0.5, 0.9,
                                         1.0)],
                    nodes=[NodeStats("n0", 8, 100.0, 20.0, 400.0, 1)])
        base.update(overrides)
        return ServiceReport(**base)

    def test_round_trip_is_exact(self):
        report = self.make_report()
        back = ServiceReport.from_dict(report.to_dict())
        assert back == report

    def test_derived_metrics(self):
        report = self.make_report()
        assert report.joules_per_query == pytest.approx(50.0)
        assert report.average_active_nodes == pytest.approx(1.5)
        assert report.slas_met

    def test_empty_run_raises_like_core_metrics(self):
        report = self.make_report(queries_completed=0,
                                  makespan_seconds=0.0,
                                  energy_joules=0.0)
        with pytest.raises(ReproError):
            report.joules_per_query

    def test_quantile_interpolates(self):
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
        assert quantile([1.0], 0.95) == pytest.approx(1.0)
        with pytest.raises(ServiceError):
            quantile([], 0.5)

class TestScheduleReportProtocol:
    def test_round_trip(self):
        from repro.consolidation.scheduler import ScheduleReport
        report = ScheduleReport(policy="batched", completed=3,
                                makespan_seconds=10.0, energy_joules=5.0,
                                mean_latency_seconds=1.0,
                                max_latency_seconds=2.0,
                                spin_down_count=1,
                                latencies=[0.5, 1.0, 1.5])
        assert ScheduleReport.from_dict(report.to_dict()) == report

    def test_poisson_arrivals_default_seed_is_runner_seed(self):
        from repro.consolidation.scheduler import poisson_arrivals
        from repro.runner.spec import DEFAULT_SEED
        mix = [lambda: None]
        default = poisson_arrivals(mix, 5, 1.0)
        explicit = poisson_arrivals(mix, 5, 1.0, seed=DEFAULT_SEED)
        assert [a.at_seconds for a in default] == \
            [a.at_seconds for a in explicit]


class TestSimulateServiceEdges:
    def test_single_node_serves_everything(self):
        stream = build_stream(500, seed=1)
        report = simulate_service(
            stream, fleet=FleetSpec.homogeneous(1, make_model()),
            policy="round_robin")
        assert report.queries_completed == 500
        assert report.queries_rejected == 0
        assert report.n_nodes == 1

    def test_admission_limit_rejections_show_per_tenant(self):
        tenants = (Tenant("a", rate_per_s=20.0, sla_p95_seconds=5.0,
                          mix=(("point", 1.0),)),
                   Tenant("b", rate_per_s=20.0, sla_p95_seconds=5.0,
                          mix=(("point", 1.0),)))
        stream = build_stream(2_000, tenants=tenants, seed=1)
        report = simulate_service(
            stream, fleet=FleetSpec.homogeneous(1, make_model()),
            policy="round_robin", admission_limit_seconds=0.05)
        assert report.queries_rejected > 0
        assert sum(t.rejected for t in report.tenants) == \
            report.queries_rejected
        assert report.queries_completed + report.queries_rejected == \
            report.queries_offered

    def test_energy_is_sum_of_node_energies(self):
        stream = build_stream(1_000, seed=2)
        report = simulate_service(
            stream, fleet=FleetSpec.homogeneous(4, make_model()),
            policy="power_aware")
        assert report.energy_joules == pytest.approx(
            sum(n.energy_joules for n in report.nodes))
        assert report.queries_completed == pytest.approx(
            sum(n.completed for n in report.nodes))
