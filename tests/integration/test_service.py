"""Integration tests for fleet serving: the acceptance energy/SLA
ordering through the real Runner, cache and JSON transport of the new
report types, the telemetry mirror's exactness against the metered
devices, and the facade (eager reports, no v1 entry points)."""

import importlib

import pytest

from repro.runner import ExperimentSpec, Runner, RunResult
from repro.runner.registry import list_experiments
from repro.runner.reports import REPORT_TYPES, decode_report, encode_report
from repro.service import (FleetSpec, NodePowerModel,
                           build_stream,
                           simulate_service)

#: small-but-real sweep: 3 policies x 20k queries on a 16-node fleet
SMOKE_KNOBS = {"queries": 20_000}


@pytest.fixture(scope="module")
def smoke_sweep():
    """One svc_smoke run through the real Runner, shared below."""
    return Runner(workers=1, cache=False).run(ExperimentSpec("svc_smoke"))


def by_policy(run) -> dict:
    return {r.policy: r for r in run.reports}


class TestAcceptanceOrdering:
    def test_packing_beats_round_robin_at_equal_or_better_p95(
            self, smoke_sweep):
        packing = by_policy(smoke_sweep)["power_aware"]
        rr = by_policy(smoke_sweep)["round_robin"]
        assert 1.0 - packing.joules_per_query / rr.joules_per_query >= 0.15
        assert packing.p95_latency_seconds <= rr.p95_latency_seconds

    def test_all_slas_hold_for_every_policy(self, smoke_sweep):
        for report in smoke_sweep.reports:
            assert report.slas_met, (
                f"{report.policy} missed an SLA: {report.tenants}")
            assert report.queries_completed == 20_000

    def test_packing_runs_fewer_node_seconds(self, smoke_sweep):
        packing = by_policy(smoke_sweep)["power_aware"]
        rr = by_policy(smoke_sweep)["round_robin"]
        assert packing.average_active_nodes < rr.average_active_nodes
        assert rr.average_active_nodes == pytest.approx(16.0, rel=1e-6)

    def test_aggregate_is_a_sweep_result(self, smoke_sweep):
        run = smoke_sweep
        assert [r.policy for r in run.reports] == [
            "round_robin", "least_loaded", "power_aware"]
        # JSON transport of the whole run inverts exactly
        assert RunResult.from_dict(run.to_dict()).to_json() == \
            run.to_json()


class TestRunnerTransport:
    def test_svc_points_cache_and_replay_bit_identical(self, tmp_path):
        spec = ExperimentSpec("svc_smoke", knobs={"queries": 4_000})
        first = Runner(workers=2, cache=tmp_path / "cache").run(spec)
        assert first.cache_hits == 0
        again = Runner(workers=2, cache=tmp_path / "cache").run(spec)
        assert again.cache_hits == len(again.points) == 3
        assert again.to_json() == first.to_json()

    def test_batching_experiment_runs_through_runner(self, tmp_path):
        from repro.consolidation.scheduler import ScheduleReport
        spec = ExperimentSpec("batching", knobs={
            "queries": 4, "rate_per_s": 1.0 / 20.0,
            "window_seconds": 60.0, "table_rows": 400, "scale": 100.0,
            "tail_seconds": 60.0})
        run = Runner(workers=1, cache=tmp_path / "cache").run(spec)
        by_policy = {p.knobs["policy"]: p.report for p in run.points}
        assert set(by_policy) == {"fifo", "batched"}
        for report in by_policy.values():
            assert isinstance(report, ScheduleReport)
            assert report.completed == 4
        assert by_policy["batched"].spin_down_count >= 1
        # batching trades latency for spin-down opportunities
        assert by_policy["batched"].mean_latency_seconds > \
            by_policy["fifo"].mean_latency_seconds
        assert RunResult.from_dict(run.to_dict()).to_json() == \
            run.to_json()

    def test_new_report_types_are_registered_and_round_trip(self):
        for name in ("ScheduleReport", "ServiceReport"):
            assert name in REPORT_TYPES
        stream = build_stream(2_000, seed=7)
        report = simulate_service(stream, fleet=FleetSpec.homogeneous(4),
                                  policy="least_loaded")
        payload = encode_report(report)
        assert payload["type"] == "ServiceReport"
        assert decode_report(payload) == report

    def test_svc_experiments_are_registered(self):
        names = {d.name for d in list_experiments()}
        assert {"svc_policies", "svc_smoke", "svc_fleet",
                "batching"} <= names


class TestTelemetryMirror:
    def test_mirror_devices_integrate_to_the_fleet_energy(self):
        from repro.telemetry import capture
        with capture() as collector:
            stream = build_stream(20_000, seed=3)
            report = simulate_service(stream,
                                      fleet=FleetSpec.homogeneous(16),
                                      policy="power_aware")
        trace = collector.finalize()
        fleet_devices = [d for d in trace.devices
                         if d.name.startswith("svc.node")]
        assert len(fleet_devices) == 16
        mirrored = sum(d.energy_joules for d in fleet_devices)
        assert mirrored == pytest.approx(report.energy_joules,
                                         rel=1e-9)

    def test_mirror_spans_cover_powered_on_intervals(self):
        from repro.telemetry import capture
        with capture() as collector:
            stream = build_stream(20_000, seed=3)
            report = simulate_service(stream,
                                      fleet=FleetSpec.homogeneous(16),
                                      policy="power_aware")
        trace = collector.finalize()
        on_spans = [s for s in trace.spans
                    if s.name.startswith("svc.node")]
        assert len(on_spans) >= 16
        spanned = sum(s.ended_at - s.started_at for s in on_spans)
        assert spanned == pytest.approx(report.node_seconds_on,
                                        rel=1e-9)
        assert trace.counters["svc.queries_completed"] == \
            report.queries_completed
        assert trace.counters["svc.queries_rejected"] == \
            report.queries_rejected


@pytest.mark.parametrize("module, name", [
    ("repro", "run_figure1"),
    ("repro", "run_figure2"),
    ("repro.core", "run_figure1"),
    ("repro.core", "run_figure2"),
    ("repro.core.experiments", "run_figure1"),
    ("repro.core.experiments", "run_figure2"),
    ("repro.workloads", "run_scan_experiment"),
    ("repro.workloads", "run_throughput_test"),
    ("repro.workloads.scan_workload", "run_scan_experiment"),
    ("repro.workloads.throughput", "run_throughput_test"),
    ("repro.observatory.dashboard", "_SERIES_LIGHT"),
    ("repro.observatory.dashboard", "_SERIES_DARK"),
])
def test_v1_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)


class TestFacade:
    def test_reports_export_eagerly_from_repro(self):
        import repro
        from repro.consolidation.scheduler import ScheduleReport
        from repro.service.report import ServiceReport
        assert repro.ScheduleReport is ScheduleReport
        assert repro.ServiceReport is ServiceReport

    def test_unknown_attribute_still_raises(self):
        import repro
        with pytest.raises(AttributeError):
            repro.run_figure7

    def test_no_internal_module_imports_deprecated_entry_points(self):
        """The 2.0 acceptance clause: importing the facade is clean
        under ``-W error::DeprecationWarning`` and the v1 entry points
        are not on it."""
        import os
        import pathlib
        import subprocess
        import sys

        import repro
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        code = ("import sys, repro, repro.workloads, repro.runner, "
                "repro.service; "
                "assert 'run_figure1' not in vars(repro); "
                "assert 'run_scan_experiment' not in "
                "vars(repro.workloads); "
                "print('clean')")
        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning",
             "-c", code],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "clean"
