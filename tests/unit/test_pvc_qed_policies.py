"""Unit tests for the PVC frequency governor and the QED batcher.

Policy-object arithmetic only — the governor's step selection, the
hold-queue release protocol, knob validation, and registration; the
engine-level behavior (energy, SLAs, telemetry exactness) lives in
``tests/integration/test_service_pvc_qed.py``.
"""

import pytest

from repro.service import (DISPATCH_POLICIES, DispatchContext, FleetNode,
                           FleetSpec, NodePowerModel, PVCPolicy, QEDPolicy,
                           ServiceError, build_stream, make_policy,
                           simulate_service)
from repro.service.dispatch import Batch

MODEL = NodePowerModel()  # 200 W idle / 350 W peak, speed 1


def ctx_for(node, service_s, sla=None, now=0.0):
    return DispatchContext([node], [0], now, service_s, sla)


class TestPVCGovernor:
    def test_registered_and_named(self):
        assert "pvc" in DISPATCH_POLICIES
        policy = make_policy("pvc")
        assert policy.name == "pvc(power_aware)"
        assert policy.dvfs and not policy.batching
        assert policy.autoscaled  # inherits power_aware's

    def test_picks_deepest_step_that_fits_headroom(self):
        pvc = PVCPolicy(sla_headroom=0.6)
        node = FleetNode("n0", MODEL)
        # 0.3 s job, 2.4 s budget: even 0.55 (0.545 s) fits
        assert pvc.frequency(ctx_for(node, 0.30, sla=4.0), 0) == 0.55
        # 2.5 s job: 2.5/0.85 = 2.94 s > 2.4 s, so full speed
        assert pvc.frequency(ctx_for(node, 2.50, sla=4.0), 0) == 1.0

    def test_backlog_pushes_governor_back_to_full_speed(self):
        pvc = PVCPolicy(sla_headroom=0.6)
        node = FleetNode("n0", MODEL)
        node.serve(0.0, 2.2)  # backlog eats the 2.4 s budget
        assert pvc.frequency(ctx_for(node, 0.30, sla=4.0), 0) == 1.0

    def test_no_sla_means_full_speed(self):
        pvc = PVCPolicy()
        node = FleetNode("n0", MODEL)
        assert pvc.frequency(ctx_for(node, 0.30, sla=None), 0) == 1.0

    def test_slower_node_class_downclocks_less(self):
        pvc = PVCPolicy(sla_headroom=0.6)
        slow = FleetNode("w0", NodePowerModel(name="wimpy",
                                              speed_factor=0.45))
        # 0.9 s job executes 2.0 s on the wimpy class; 2.0/0.85 = 2.35
        # fits the 2.4 s budget but 2.0/0.7 = 2.86 does not
        assert pvc.frequency(ctx_for(slow, 0.90, sla=4.0), 0) == 0.85

    def test_routing_and_admission_delegate_to_inner(self):
        pvc = PVCPolicy(inner="least_loaded")
        assert pvc.name == "pvc(least_loaded)"
        assert not pvc.autoscaled
        a, b = FleetNode("a", MODEL), FleetNode("b", MODEL)
        a.serve(0.0, 5.0)
        ctx = DispatchContext([a, b], [0, 1], 0.0, 0.3, 2.0)
        assert pvc.route(ctx) == 1

    def test_inner_kwargs_pass_through(self):
        pvc = make_policy("pvc", pack_backlog_seconds=0.7)
        assert pvc.inner.pack_backlog_seconds == 0.7
        with pytest.raises(ServiceError, match="unknown knob"):
            make_policy("pvc", no_such_knob=1)

    def test_knob_validation(self):
        with pytest.raises(ServiceError, match="frequency step"):
            PVCPolicy(frequency_steps=())
        with pytest.raises(ServiceError, match=r"\(0, 1\]"):
            PVCPolicy(frequency_steps=(0.5, 1.5))
        with pytest.raises(ServiceError, match="headroom"):
            PVCPolicy(sla_headroom=0.0)
        with pytest.raises(ServiceError, match="wrap"):
            PVCPolicy(inner=PVCPolicy())

    def test_steps_sorted_ascending_and_deduped(self):
        pvc = PVCPolicy(frequency_steps=(1.0, 0.55, 0.85, 0.55))
        assert pvc.frequency_steps == (0.55, 0.85, 1.0)


class TestQEDHoldQueues:
    def test_registered_and_named(self):
        assert "qed" in DISPATCH_POLICIES
        policy = make_policy("qed")
        assert policy.batching and not policy.dvfs
        assert policy.name == "qed(power_aware)"

    def test_holds_then_releases_at_first_member_deadline(self):
        qed = QEDPolicy(hold_seconds=1.0, sla_headroom=0.5,
                        shared_fraction=0.7)
        assert qed.offer(0, 10.0, 0.3, tenant=1, sla_seconds=4.0) == []
        assert qed.next_deadline() == 11.0  # 10.0 + min(1.0, 2.0)
        assert qed.offer(1, 10.4, 0.3, tenant=1, sla_seconds=4.0) == []
        assert qed.next_deadline() == 11.0  # pinned by the first member
        [batch] = qed.due(11.0)
        assert batch.members == (0, 1)
        assert batch.release_at == 11.0
        assert batch.service_seconds == pytest.approx(0.39)
        assert qed.next_deadline() == float("inf")

    def test_sla_headroom_caps_the_hold_window(self):
        qed = QEDPolicy(hold_seconds=10.0, sla_headroom=0.5)
        qed.offer(0, 0.0, 0.05, tenant=0, sla_seconds=2.0)
        assert qed.next_deadline() == 1.0  # 2.0 * 0.5 < 10.0

    def test_incompatible_arrivals_hold_separately(self):
        qed = QEDPolicy(hold_seconds=1.0)
        qed.offer(0, 0.0, 0.3, tenant=0, sla_seconds=4.0)
        qed.offer(1, 0.1, 0.3, tenant=1, sla_seconds=4.0)   # other tenant
        qed.offer(2, 0.2, 0.05, tenant=0, sla_seconds=4.0)  # other class
        batches = qed.flush()
        assert [b.members for b in batches] == [(0,), (1,), (2,)]

    def test_full_queue_releases_immediately(self):
        qed = QEDPolicy(hold_seconds=5.0, max_batch=2,
                        shared_fraction=1.0)
        assert qed.offer(0, 0.0, 0.3, tenant=0, sla_seconds=40.0) == []
        [batch] = qed.offer(1, 0.5, 0.3, tenant=0, sla_seconds=40.0)
        assert batch.members == (0, 1)
        assert batch.release_at == 0.5  # the filling arrival's instant
        assert batch.service_seconds == 0.3  # followers ride free
        assert qed.next_deadline() == float("inf")

    def test_zero_hold_releases_alone_byte_exactly(self):
        qed = QEDPolicy(hold_seconds=0.0)
        [batch] = qed.offer(7, 5.0, 0.05, tenant=0, sla_seconds=2.0)
        assert batch == Batch((7,), 5.0, 0.05, 2.0)

    def test_flush_releases_ascending_by_deadline(self):
        qed = QEDPolicy(hold_seconds=1.0, sla_headroom=0.5)
        qed.offer(0, 0.0, 0.3, tenant=1, sla_seconds=4.0)   # deadline 1.0
        qed.offer(1, 0.8, 0.05, tenant=0, sla_seconds=2.0)  # deadline 1.8
        qed.offer(2, 0.2, 2.5, tenant=2, sla_seconds=15.0)  # deadline 1.2
        batches = qed.flush()
        assert [b.release_at for b in batches] == [1.0, 1.2, 1.8]
        assert qed.flush() == []

    def test_dvfs_composition_delegates_frequency(self):
        stacked = QEDPolicy(inner="pvc")
        assert stacked.name == "qed(pvc(power_aware))"
        assert stacked.batching and stacked.dvfs
        node = FleetNode("n0", MODEL)
        assert stacked.frequency(ctx_for(node, 0.30, sla=4.0), 0) == 0.55

    def test_knob_validation(self):
        with pytest.raises(ServiceError, match="hold window"):
            QEDPolicy(hold_seconds=-1.0)
        with pytest.raises(ServiceError, match="shared fraction"):
            QEDPolicy(shared_fraction=1.5)
        with pytest.raises(ServiceError, match="max batch"):
            QEDPolicy(max_batch=0)
        with pytest.raises(ServiceError, match="nest"):
            QEDPolicy(inner=QEDPolicy())

    def test_batch_validates_itself(self):
        with pytest.raises(ServiceError, match="empty"):
            Batch((), 0.0, 1.0)
        with pytest.raises(ServiceError, match="positive"):
            Batch((0,), 0.0, 0.0)


class TestExecutionHooksUnderFaults:
    """PVC/QED run on the chaos engine: every arrival still lands in
    exactly one ledger bucket, and a degenerate QED window reproduces
    the plain-policy chaos run byte for byte."""

    def _chaos(self, policy):
        from repro.faults.engine import simulate_faulty_service
        from repro.faults.schedule import build_fault_schedule
        stream = build_stream(600, seed=1)
        schedule = build_fault_schedule(
            4, horizon_seconds=stream.duration_seconds, seed=0,
            intensity=2.0)
        return simulate_faulty_service(
            stream, schedule, fleet=FleetSpec.homogeneous(4),
            policy=policy)

    def test_chaos_engine_runs_execution_policies(self):
        for policy in (PVCPolicy(), QEDPolicy(),
                       QEDPolicy(inner=PVCPolicy())):
            report = self._chaos(policy)
            assert report.queries_offered == (
                report.queries_completed + report.queries_rejected
                + report.queries_lost)

    def test_degenerate_qed_matches_plain_policy_under_faults(self):
        import json
        plain = self._chaos("power_aware")
        degenerate = self._chaos(QEDPolicy(hold_seconds=0.0))
        a, b = plain.to_dict(), degenerate.to_dict()
        a.pop("policy"), b.pop("policy")
        assert json.dumps(a, sort_keys=True) == \
            json.dumps(b, sort_keys=True)

    def test_single_step_pvc_matches_plain_policy_under_faults(self):
        import json
        plain = self._chaos("power_aware")
        unity = self._chaos(PVCPolicy(frequency_steps=(1.0,)))
        a, b = plain.to_dict(), unity.to_dict()
        a.pop("policy"), b.pop("policy")
        assert json.dumps(a, sort_keys=True) == \
            json.dumps(b, sort_keys=True)

    def test_base_policy_batching_hooks_are_inert(self):
        from repro.service.dispatch import DispatchPolicy
        base = DispatchPolicy()
        assert base.next_deadline() == float("inf")
        assert base.due(1e9) == []
        assert base.flush() == []
        with pytest.raises(ServiceError, match="offer"):
            base.offer(0, 0.0, 1.0, 0, None)
