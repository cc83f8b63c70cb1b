"""Integration: the fleet flight recorder end to end.

The acceptance surface of the observability subsystem: recording is a
pure observer (closed-form reports identical with it on or off, for
the healthy engine and the chaos engine alike), the recorded event
stream replays the run's energy to within 1e-9 of the closed-form
books under every mechanism mix (PVC, QED, faults), recordings ride
the Runner's process pool and result cache, and the timeline console
renders the operator's questions — which nodes downclocked, which
queries QED held, where the SLO budget burned — from one recorded
``svc_pvc_qed``-shaped point.
"""

from __future__ import annotations

import json

import pytest

from repro.faults import build_fault_schedule, simulate_faulty_service
from repro.flightrec import record
from repro.flightrec.slo import SLOMonitor
from repro.runner import ExperimentSpec, ResultCache, Runner
from repro.service import (FleetSpec, PVCPolicy, QEDPolicy, build_stream,
                           simulate_service)

QUERIES = 8_000


@pytest.fixture(scope="module")
def stream():
    return build_stream(QUERIES, seed=7)


@pytest.fixture(scope="module")
def schedule():
    return build_fault_schedule(8, 900.0, seed=0, intensity=2.0)


def _healthy(stream, policy):
    return simulate_service(stream, fleet=FleetSpec.homogeneous(8),
                            policy=policy)


def _chaos(stream, schedule, policy, fleet=None):
    return simulate_faulty_service(
        stream, schedule, fleet=fleet or FleetSpec.homogeneous(8),
        policy=policy)


def _record(fn):
    with record() as rec:
        report = fn()
    return report, rec.finalize()


class TestPureObserver:
    """Recording on vs. off: the closed-form report is byte-identical."""

    @pytest.mark.parametrize("policy_fn", [
        lambda: "power_aware",
        lambda: QEDPolicy(inner=PVCPolicy()),
    ], ids=["plain", "pvc_qed"])
    def test_healthy_reports_identical(self, stream, policy_fn):
        plain = _healthy(stream, policy_fn())
        recorded, _ = _record(lambda: _healthy(stream, policy_fn()))
        assert json.dumps(plain.to_dict(), sort_keys=True) \
            == json.dumps(recorded.to_dict(), sort_keys=True)

    @pytest.mark.parametrize("policy_fn", [
        lambda: "power_aware",
        lambda: QEDPolicy(inner=PVCPolicy()),
    ], ids=["plain", "pvc_qed"])
    def test_chaos_reports_identical(self, stream, schedule, policy_fn):
        plain = _chaos(stream, schedule, policy_fn())
        recorded, _ = _record(
            lambda: _chaos(stream, schedule, policy_fn()))
        assert json.dumps(plain.to_dict(), sort_keys=True) \
            == json.dumps(recorded.to_dict(), sort_keys=True)


class TestEnergyReconciliation:
    """The replayed event stream reprices the whole run to 1e-9."""

    @pytest.mark.parametrize("policy_fn", [
        lambda: "power_aware",
        lambda: PVCPolicy(),
        lambda: QEDPolicy(),
        lambda: QEDPolicy(inner=PVCPolicy()),
    ], ids=["plain", "pvc", "qed", "pvc_qed"])
    def test_healthy_replay_matches_books(self, stream, policy_fn):
        report, recording = _record(
            lambda: _healthy(stream, policy_fn()))
        assert recording.replayed_energy_joules() \
            == pytest.approx(report.energy_joules, rel=1e-9)

    @pytest.mark.parametrize("policy_fn", [
        lambda: "power_aware",
        lambda: QEDPolicy(inner=PVCPolicy()),
    ], ids=["plain", "pvc_qed"])
    def test_chaos_replay_matches_books(self, stream, schedule,
                                        policy_fn):
        report, recording = _record(
            lambda: _chaos(stream, schedule, policy_fn()))
        assert recording.replayed_energy_joules() \
            == pytest.approx(report.energy_joules, rel=1e-9)

    def test_query_ledger_conserved(self, stream, schedule):
        report, recording = _record(lambda: _chaos(
            stream, schedule, QEDPolicy(inner=PVCPolicy())))
        states = {}
        for s in recording.queries["state"]:
            states[s] = states.get(s, 0) + 1
        assert states.get("done", 0) == report.queries_completed
        assert states.get("lost", 0) == report.faults.queries_lost
        assert states.get("rejected", 0) == report.queries_rejected
        assert sum(states.values()) == QUERIES


class TestMixedClassConservation:
    """PVC + QED + faults on a heterogeneous fleet: the per-class
    rollup still conserves the fleet ledger exactly."""

    @pytest.fixture(scope="class")
    def recorded(self, stream):
        schedule = build_fault_schedule(12, 900.0, seed=0,
                                        intensity=2.0)
        return _record(lambda: _chaos(
            stream, schedule, QEDPolicy(inner=PVCPolicy()),
            fleet=FleetSpec.of(beefy=4, wimpy=8)))

    @pytest.fixture(scope="class")
    def report(self, recorded):
        return recorded[0]

    def test_all_three_mechanisms_fired(self, recorded):
        report, recording = recorded
        # QED shared at least one execution
        assert any(m > 1 for m in recording.batches["members"])
        # PVC downclocked at least one execution
        assert any(f is not None and f < 1.0
                   for f in recording.queries["frequency"])
        # the fault schedule actually struck the fleet
        assert any(n.crashes for n in report.nodes) \
            or any(n.boots for n in report.nodes)

    def test_class_energy_sums_to_fleet_books(self, report):
        assert sum(c.energy_joules for c in report.classes) \
            == pytest.approx(report.energy_joules, rel=1e-9)

    def test_class_counts_sum_to_fleet(self, report):
        assert sum(c.count for c in report.classes) == 12
        assert {c.node_class for c in report.classes} \
            == {"beefy", "wimpy"}

    def test_class_completions_sum_to_node_ledger(self, report):
        per_node = sum(n.completed for n in report.nodes)
        assert sum(c.completed for c in report.classes) == per_node

    def test_class_rows_match_node_rollup(self, report):
        for cls in report.classes:
            mine = [n for n in report.nodes
                    if n.node_class == cls.node_class]
            assert cls.busy_seconds == pytest.approx(
                sum(n.busy_seconds for n in mine), rel=1e-12)
            assert cls.on_seconds == pytest.approx(
                sum(n.on_seconds for n in mine), rel=1e-12)
            assert cls.boots == sum(n.boots for n in mine)
            assert cls.crashes == sum(n.crashes for n in mine)


class TestRunnerIntegration:
    def test_recordings_ride_pool_and_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = ExperimentSpec("svc_smoke",
                              knobs={"policy": "power_aware"})
        cold = Runner(cache=cache, record=True, workers=2).run(spec)
        assert cold.points[0].recording is not None
        assert cold.cache_hits == 0
        warm = Runner(cache=cache, record=True).run(spec)
        assert warm.cache_hits == 1
        assert warm.to_json() == cold.to_json()

    def test_recorded_and_plain_cache_separately(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = ExperimentSpec("svc_smoke",
                              knobs={"policy": "power_aware"})
        recorded = Runner(cache=cache, record=True).run(spec)
        plain = Runner(cache=cache).run(spec)
        assert plain.cache_hits == 0  # distinct cache identity
        assert plain.points[0].recording is None
        assert json.dumps(plain.points[0].report.to_dict(),
                          sort_keys=True) \
            == json.dumps(recorded.points[0].report.to_dict(),
                          sort_keys=True)

    def test_run_result_round_trip_keeps_recording(self, tmp_path):
        from repro.runner.runner import RunResult
        spec = ExperimentSpec("svc_smoke",
                              knobs={"policy": "power_aware"})
        result = Runner(cache=False, record=True).run(spec)
        restored = RunResult.from_dict(json.loads(result.to_json()))
        assert restored.points[0].recording.n_queries \
            == result.points[0].recording.n_queries
        assert restored.to_json() == result.to_json()


class TestConsole:
    @pytest.fixture(scope="class")
    def recording(self, stream):
        _, recording = _record(lambda: _healthy(
            stream, QEDPolicy(inner=PVCPolicy())))
        return recording

    def test_timeline_answers_the_operator_questions(self, recording):
        from repro.flightrec.console import render_timeline
        html = render_timeline(recording)
        assert html.lower().startswith("<!doctype html>")
        # self-contained: no scripts, no external fetches
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html
        # one swimlane per node
        for i in range(recording.n_nodes):
            assert recording.node_name(i) in html
        # QED hold lanes and the batch-savings table
        assert "held" in html.lower() or "hold" in html.lower()
        assert "batch" in html.lower()
        # per-tenant burn strips
        for spec in recording.meta["tenants"]:
            assert spec["name"] in html
        # DVFS windows made it in (PVC downclocked at least once)
        assert any(f < 1.0 and f is not None
                   for f in recording.queries["frequency"])
        assert "downclock" in html.lower()

    def test_timeline_of_chaos_run_shows_faults(self, stream, schedule):
        from repro.flightrec.console import render_timeline
        _, recording = _record(
            lambda: _chaos(stream, schedule, "power_aware"))
        html = render_timeline(recording)
        assert "crash" in html.lower()

    def test_slo_monitor_covers_every_tenant(self, recording):
        monitor = SLOMonitor(recording)
        names = {slo.tenant for slo in monitor.tenants()}
        assert names == {spec["name"]
                         for spec in recording.meta["tenants"]}
        # every completion lands in exactly one window
        for ti, slo in enumerate(monitor.tenants()):
            mine = sum(1 for t in recording.queries["tenant"]
                       if t == ti)
            assert sum(w.completed for w in slo.windows) == mine
