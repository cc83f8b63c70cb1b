"""The faulted event-core kernels against the chaos engine's closure.

``simulate_faulty_service(engine="loop")`` runs the reference closure,
``engine="event"`` the kernel generated from the ``_FAULTED`` skeleton
of :mod:`repro.service.engine`.  The two must agree dict for dict: the
report, the flight recording and the telemetry trace.  The grid crosses
every router with a faulted kernel (and the PVC governor) with two
fleets, five hand-built schedules that each aim at one rare path, an
admission limit or none, and plain or QED rows with a batch tenant; a
hypothesis property draws the schedule instead.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (FaultEvent, FaultSchedule, RetryPolicy, ShedPolicy,
                          simulate_faulty_service)
from repro.flightrec import record
from repro.service import (DEFAULT_TENANTS, Autoscaler, FleetSpec,
                           NodePowerModel, PVCPolicy, QEDPolicy, build_stream,
                           make_policy)
from repro.telemetry import capture

ROUTERS = ("round_robin", "least_loaded", "power_aware", "cost_aware",
           "pvc")
#: the reporting tenant is batch work: admission-exempt under a limit
TENANTS = tuple(replace(t, batch=t.name == "reporting")
                for t in DEFAULT_TENANTS)
STREAM = build_stream(1_000, tenants=TENANTS, seed=11)
H = STREAM.duration_seconds


def _nimble(model: NodePowerModel) -> NodePowerModel:
    """Boot in 2 s, drain in 1 s: a short stream sees the autoscaler
    and the crash-inside-a-boot path."""
    return replace(model, boot_seconds=2.0, drain_seconds=1.0,
                   boot_joules=2.0 * model.peak_watts,
                   drain_joules=1.0 * model.idle_watts)


def _fleet(kind: str) -> FleetSpec:
    fleet = (FleetSpec.homogeneous(8, NodePowerModel.from_server(
        "commodity")) if kind == "homogeneous"
        else FleetSpec.of(beefy=3, wimpy=5))
    return FleetSpec(classes=tuple(
        replace(cls, model=_nimble(cls.model)) for cls in fleet.classes))


def _event(kind, node, start, duration, severity=0.0):
    return FaultEvent(kind=kind, node=node, start=start, duration=duration,
                      severity=severity)


#: schedule -> its events on an 8-node fleet over the stream's horizon
SCHEDULES = {
    # staggered windows, then every node at once: exclusion redispatch,
    # and a retry that has to forget its exclusions
    "timeouts": [_event("timeout", i, (0.1 + 0.02 * i) * H, 0.3 * H)
                 for i in range(8)]
    + [_event("timeout", i, 0.6 * H, 0.1 * H) for i in range(8)],
    # crashes with executions queued behind the in-flight one
    "crash_queued": [_event("crash", 0, 0.3 * H, 0.2 * H),
                     _event("crash", 1, 0.31 * H, 0.2 * H),
                     _event("crash", 2, 0.7 * H, 0.1 * H)],
    # compounding throttles over a degraded RAID group
    "throttle_disk": [_event("throttle", 0, 0.1 * H, 0.5 * H, 0.7),
                      _event("throttle", 0, 0.3 * H, 0.2 * H, 0.5),
                      _event("disk", 0, 0.2 * H, 0.4 * H, 0.729),
                      _event("disk", 1, 0.4 * H, 0.3 * H, 0.6),
                      _event("throttle", 1, 0.45 * H, 0.3 * H, 0.8)],
    # the fleet goes dark; node 0 is repaired first, boots into the
    # dark fleet, and crashes again inside its boot window
    "boot_crash": [_event("crash", i, (0.3 + 0.005 * i) * H,
                          0.1 * H + 0.5 * i) for i in range(8)]
    + [_event("crash", 0, 0.4 * H + 1.0, 0.05 * H)],
    # everything down for a long while: parked rows, spare boots
    "blackout": [_event("crash", i, 0.5 * H, 0.3 * H) for i in range(8)],
}


def _policy(router: str, limited: bool, qed: bool):
    limit = {"admission_limit_seconds": 0.6} if limited else {}
    inner = (PVCPolicy(**limit) if router == "pvc"
             else make_policy(router, **limit))
    if qed:
        return QEDPolicy(inner=inner, hold_seconds=0.5,
                         **({"admission_limit_seconds": 0.4}
                            if limited else {}))
    return inner


def serve(engine, fleet_kind, events, router, limited, qed, observer):
    """One chaos run: ``(report, the dict the observer pins)``."""
    fleet = _fleet(fleet_kind)
    schedule = FaultSchedule(n_nodes=fleet.n_nodes, horizon_seconds=H,
                             events=tuple(events))
    autoscaler = Autoscaler(fleet.classes[0].model, epoch_seconds=2.5,
                            target_utilization=0.85, min_nodes=1)

    def run():
        return simulate_faulty_service(
            STREAM, schedule, fleet=fleet,
            policy=_policy(router, limited, qed), autoscaler=autoscaler,
            retry=RetryPolicy(max_attempts=3, base_backoff_seconds=0.2,
                              timeout_detect_seconds=0.1),
            shed=None if limited else ShedPolicy(slack_fraction=1.0),
            engine=engine)

    if observer == "recording":
        with record() as rec:
            report = run()
        return report, rec.finalize().to_dict()
    if observer == "trace":
        with capture() as col:
            report = run()
        return report, col.finalize().to_dict()
    report = run()
    return report, report.to_dict()


def _same(*case):
    kernel, kernel_seen = serve("event", *case)
    closure, closure_seen = serve("loop", *case)
    assert (kernel.engine, closure.engine) == ("event", "loop")
    assert kernel_seen == closure_seen


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("fleet_kind", ["homogeneous", "hetero"])
@pytest.mark.parametrize("router", ROUTERS)
def test_kernel_serves_what_the_closure_serves(router, fleet_kind,
                                               schedule):
    for limited in (False, True):
        for qed in (False, True):
            for observer in ("report", "recording", "trace"):
                _same(fleet_kind, SCHEDULES[schedule], router, limited,
                      qed, observer)


def test_the_schedules_reach_their_paths():
    """Each hand-built schedule does what its comment says, on the
    fleet that packs (power_aware)."""
    def stats(name):
        report, _ = serve("event", "homogeneous", SCHEDULES[name],
                          "power_aware", False, False, "report")
        return report.faults
    assert stats("timeouts").retries > 50
    assert stats("crash_queued").queries_recovered > 0
    assert stats("throttle_disk").throttle_windows == 3
    assert stats("boot_crash").crashes == 9
    assert stats("blackout").emergency_boots > 0


faults = st.builds(
    _event,
    kind=st.sampled_from(["crash", "throttle", "disk", "timeout"]),
    node=st.integers(0, 7),
    start=st.floats(0.0, 1.1 * H),
    duration=st.floats(0.05, 0.4 * H),
    severity=st.floats(0.3, 1.0))


@settings(max_examples=25, deadline=None)
@given(events=st.lists(faults, max_size=24),
       router=st.sampled_from(ROUTERS),
       fleet_kind=st.sampled_from(["homogeneous", "hetero"]),
       limited=st.booleans(), qed=st.booleans(),
       observer=st.sampled_from(["report", "recording"]))
def test_drawn_schedules_agree(events, router, fleet_kind, limited, qed,
                               observer):
    _same(fleet_kind, events, router, limited, qed, observer)
