"""Integration tests for the chaos experiments and the fault engine.

Covers the acceptance surface of the fault-injection subsystem: the
registered ``chaos_*`` experiments run under the Runner with caching
and reproduce byte-identically; the frontier point meets its
availability / downtime bars; and hand-built single-fault scenarios
pin down the quantitative semantics of throttling, timeouts, and
crash-induced loss, including the telemetry mirror staying exact to
the closed form through a crash.
"""

import json

import numpy as np
import pytest

from repro.faults import (FaultEvent, FaultSchedule, RetryPolicy,
                          build_fault_schedule, chaos_point,
                          simulate_faulty_service)
from repro.runner import ExperimentSpec, ResultCache, Runner
from repro.runner.registry import list_experiments
from repro.service import (ArrivalStream, FleetSpec, NodePowerModel,
                           QueryClass,
                           Tenant, build_stream)
from repro.service.autoscale import Autoscaler
from repro.telemetry import capture

MODEL = NodePowerModel(name="t", idle_watts=50.0, peak_watts=120.0,
                       boot_seconds=1.0, boot_joules=120.0,
                       drain_seconds=0.5, drain_joules=25.0)


def one_tenant_stream(times, service_seconds, sla=10.0):
    """A hand-built stream: explicit arrival instants and demands."""
    times = np.asarray(times, dtype=float)
    return ArrivalStream(
        tenants=(Tenant("only", rate_per_s=1.0, sla_p95_seconds=sla,
                        mix=(("q", 1.0),)),),
        classes=(QueryClass("q", 1.0),),
        times=times,
        service_seconds=np.asarray(service_seconds, dtype=float),
        tenant_index=np.zeros(len(times), dtype=np.int64),
        class_index=np.zeros(len(times), dtype=np.int64),
    )


class TestRegistration:
    def test_chaos_experiments_are_registered(self):
        names = {d.name for d in list_experiments()}
        assert {"chaos_smoke", "chaos_frontier"} <= names

    def test_chaos_smoke_runs_and_aggregates(self, tmp_path):
        runner = Runner(cache=ResultCache(tmp_path))
        run = runner.run(ExperimentSpec("chaos_smoke"))
        (point,) = run.points
        report = point.report
        assert report.faults is not None
        assert report.queries_completed / report.queries_offered >= 0.99

    def test_runner_cache_replays_byte_identical_reports(self, tmp_path):
        spec = ExperimentSpec("chaos_smoke", knobs={"queries": 5_000})
        cold = Runner(cache=ResultCache(tmp_path)).run(spec)
        warm = Runner(cache=ResultCache(tmp_path)).run(spec)
        assert warm.points[0].cache_hit
        assert json.dumps(warm.points[0].report.to_dict(), sort_keys=True) \
            == json.dumps(cold.points[0].report.to_dict(), sort_keys=True)

    def test_fresh_recompute_is_byte_identical(self):
        dumps = [json.dumps(
            chaos_point(queries=20_000, nodes=8, seed=7).to_dict(),
            sort_keys=True) for _ in range(2)]
        assert dumps[0] == dumps[1]


class TestFrontierAcceptance:
    """The ISSUE acceptance bar, at the frontier's top intensity."""

    @pytest.fixture(scope="class")
    def frontier(self):
        return chaos_point(queries=500_000, nodes=16, intensity=2.0,
                           seed=0)

    def test_availability_and_downtime(self, frontier):
        assert frontier.queries_completed / frontier.queries_offered \
            >= 0.99
        assert frontier.faults.downtime_fraction >= 0.05

    def test_surviving_tenants_meet_slas(self, frontier):
        survivors = [t for t in frontier.tenants if t.survived]
        assert survivors, "frontier run lost every tenant?"
        assert all(t.sla_met for t in survivors)

    def test_reconciliation_at_scale(self, frontier):
        assert (frontier.queries_completed + frontier.queries_rejected
                + frontier.faults.queries_lost) == 500_000

    def test_mirror_exact_through_crashes_at_scale(self):
        with capture() as collector:
            report = chaos_point(queries=100_000, nodes=16,
                                 intensity=2.0, seed=0)
        trace = collector.finalize()
        metered = sum(d.energy_joules for d in trace.devices
                      if d.name.startswith("svc.node"))
        assert report.faults.crashes > 0
        assert metered == pytest.approx(report.energy_joules, rel=1e-9)

    def test_fault_counters_are_exported(self):
        with capture() as collector:
            report = chaos_point(queries=20_000, nodes=8, intensity=2.0,
                                 seed=0)
        trace = collector.finalize()
        counters = dict(trace.counters)
        assert counters["fault.crashes"] == report.faults.crashes
        assert counters["fault.queries_lost"] == \
            report.faults.queries_lost


class TestThrottleSemantics:
    def test_dvfs_fraction_scales_latency_and_power(self):
        # one 1 s query on a node throttled to f=0.5: latency doubles,
        # busy power drops to idle + (peak-idle) * f^3
        stream = one_tenant_stream([0.1], [1.0])
        schedule = FaultSchedule(n_nodes=1, horizon_seconds=20.0, events=(
            FaultEvent(kind="throttle", node=0, start=0.05,
                       duration=10.0, severity=0.5),))
        with capture() as collector:
            report = simulate_faulty_service(
                stream, schedule, fleet=FleetSpec.homogeneous(1, MODEL),
                policy="round_robin")
        assert report.p50_latency_seconds == pytest.approx(2.0)
        busy_watts = 50.0 + 70.0 * 0.5**3
        expected = 50.0 * report.makespan_seconds \
            + (busy_watts - 50.0) * 2.0
        assert report.energy_joules == pytest.approx(expected, rel=1e-12)
        trace = collector.finalize()
        metered = sum(d.energy_joules for d in trace.devices
                      if d.name.startswith("svc.node"))
        assert metered == pytest.approx(report.energy_joules, rel=1e-9)
        assert report.faults.throttle_windows == 1


class TestTimeoutSemantics:
    def test_retry_routes_around_a_timeout_window(self):
        stream = one_tenant_stream([1.0], [1.0])
        schedule = FaultSchedule(n_nodes=2, horizon_seconds=20.0, events=(
            FaultEvent(kind="timeout", node=0, start=0.5, duration=5.0),))
        retry = RetryPolicy(max_attempts=3, base_backoff_seconds=0.05,
                            timeout_detect_seconds=0.5)
        report = simulate_faulty_service(
            stream, schedule, fleet=FleetSpec.homogeneous(2, MODEL),
            policy="round_robin", retry=retry)
        assert report.queries_completed == 1
        assert report.faults.timeouts == 1
        assert report.faults.retries == 1
        # detect (0.5) + backoff (0.05) + service (1.0)
        assert report.p50_latency_seconds == pytest.approx(1.55)

    def test_exhausted_attempts_reject_not_hang(self):
        stream = one_tenant_stream([1.0], [1.0])
        schedule = FaultSchedule(n_nodes=1, horizon_seconds=60.0, events=(
            FaultEvent(kind="timeout", node=0, start=0.5,
                       duration=50.0),))
        retry = RetryPolicy(max_attempts=2, base_backoff_seconds=0.05,
                            timeout_detect_seconds=0.5)
        report = simulate_faulty_service(
            stream, schedule, fleet=FleetSpec.homogeneous(1, MODEL),
            policy="round_robin", retry=retry)
        assert report.queries_completed == 0
        assert report.queries_rejected == 1
        assert report.faults.timeouts == 2
        assert (report.queries_completed + report.queries_rejected
                + report.faults.queries_lost) == 1


class TestCrashSemantics:
    def test_crash_with_no_retry_budget_loses_the_backlog(self):
        # 3 x 10 s queries pile onto one node; it crashes at t=3 with
        # a single-attempt budget: everything in flight or queued is
        # crash-attributed, nothing completes, and the mirror still
        # integrates to the closed form through the outage
        stream = one_tenant_stream([0.1, 0.2, 0.3], [10.0, 10.0, 10.0])
        schedule = FaultSchedule(n_nodes=1, horizon_seconds=60.0, events=(
            FaultEvent(kind="crash", node=0, start=3.0, duration=5.0),))
        retry = RetryPolicy(max_attempts=1)
        with capture() as collector:
            report = simulate_faulty_service(
                stream, schedule, fleet=FleetSpec.homogeneous(1, MODEL),
                policy="round_robin", retry=retry)
        assert report.faults.crashes == 1
        assert report.faults.queries_lost == 3
        assert report.queries_completed == 0
        tenant = report.tenants[0]
        assert tenant.crashed == 3 and not tenant.survived
        trace = collector.finalize()
        metered = sum(d.energy_joules for d in trace.devices
                      if d.name.startswith("svc.node"))
        assert metered == pytest.approx(report.energy_joules, rel=1e-9)

    def test_retry_budget_recovers_the_backlog_after_repair(self):
        stream = one_tenant_stream([0.1, 0.2, 0.3], [10.0, 10.0, 10.0],
                                   sla=120.0)
        schedule = FaultSchedule(n_nodes=1, horizon_seconds=60.0, events=(
            FaultEvent(kind="crash", node=0, start=3.0, duration=5.0),))
        retry = RetryPolicy(max_attempts=4, base_backoff_seconds=0.05)
        report = simulate_faulty_service(
            stream, schedule, fleet=FleetSpec.homogeneous(1, MODEL),
            policy="round_robin", retry=retry)
        assert report.queries_completed == 3
        assert report.faults.queries_lost == 0
        assert report.faults.queries_recovered == 3
        assert report.faults.retries >= 3
        assert report.queries_offered == 3

    def test_emergency_boot_prices_break_even(self):
        # a long outage (>> break-even) on an autoscaled fleet makes
        # the autoscaler boot a parked replacement; a blip shorter than
        # break-even must not
        assert MODEL.breakeven_seconds() < 300.0
        long_out = chaos_point(queries=30_000, nodes=8, intensity=2.0,
                               crash_downtime_seconds=300.0, seed=3)
        assert long_out.faults.crashes > 0
        assert long_out.faults.emergency_boots > 0


class TestServiceEntryPoint:
    def test_simulate_service_threads_faults_through(self):
        stream = build_stream(2_000, seed=0)
        schedule = build_fault_schedule(
            4, max(stream.duration_seconds, 1.0) * 1.2, seed=0,
            intensity=2.0)
        report = simulate_faulty_service(
            stream, schedule, fleet=FleetSpec.homogeneous(4),
            policy="power_aware")
        assert report.faults is not None
        assert report.to_dict()["faults"] is not None

    def test_schedule_must_match_fleet_width(self):
        stream = one_tenant_stream([0.1], [1.0])
        schedule = FaultSchedule(n_nodes=4, horizon_seconds=10.0)
        from repro.faults import FaultError
        with pytest.raises(FaultError, match="covers 4 nodes"):
            simulate_faulty_service(
                stream, schedule, fleet=FleetSpec.homogeneous(2, MODEL))


class TestAutoscalerEmergency:
    def _fleet(self, n):
        from repro.service.node import FleetNode
        nodes = [FleetNode(f"svc.node{i:03d}", MODEL) for i in range(n)]
        for node in nodes[1:]:
            node.on = False
        return nodes

    def test_short_blip_is_not_worth_a_boot(self):
        # min_nodes=3 leaves the fleet undersized, so the break-even
        # gate is the only thing holding the boot back
        nodes = self._fleet(4)
        scaler = Autoscaler(MODEL, epoch_seconds=30.0, min_nodes=3)
        booted = scaler.emergency(10.0, nodes, [0],
                                  downtime_seconds=1.0)
        assert booted == []
        assert scaler.emergency_boots == 0

    def test_long_outage_boots_parked_spares(self):
        nodes = self._fleet(4)
        scaler = Autoscaler(MODEL, epoch_seconds=30.0, min_nodes=3)
        on_ids = [0]
        booted = scaler.emergency(10.0, nodes, on_ids,
                                  downtime_seconds=600.0)
        assert len(booted) == 2  # up to desired (= min_nodes here)
        assert scaler.emergency_boots == 2
        assert all(nodes[i].on for i in booted)
        assert on_ids == sorted([0] + booted)
