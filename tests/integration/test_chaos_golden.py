"""Chaos runs, pinned byte for byte.

Whichever interpreter serves a fault run — the chaos engine's
reference closure or a generated event-core kernel — its report, flight
recording and telemetry trace must not move.
``golden_records/chaos.json`` holds SHA-256 digests of
``ServiceReport.to_dict()``, ``FlightRecording.to_dict()`` and
``TelemetryTrace.to_dict()`` for every case below; it was written by
running this file as a script against the tree whose fault runs all
took the closure.  Running the script writes the goldens of the tree on
``PYTHONPATH``.

The cases cover every router, the PVC governor, QED, heterogeneous
fleets, admission limits, shedding on and off, a batch tenant under a
limit, timeout-heavy schedules (redispatch with an exclusion set) and a
fleet that goes dark (blackout boots and parked redispatches).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.faults import (FaultEvent, FaultMix, FaultSchedule, RetryPolicy,
                          ShedPolicy, build_fault_schedule,
                          simulate_faulty_service)
from repro.flightrec import record
from repro.service import (DEFAULT_TENANTS, Autoscaler, FleetSpec,
                           NodePowerModel, PVCPolicy, QEDPolicy, build_stream,
                           make_policy)
from repro.telemetry import capture

GOLDEN = Path(__file__).parent / "golden_records" / "chaos.json"

QUERIES = 2_000

#: intensity 60 on the default rates, with outages short enough for a
#: ~100 s stream: crashes, throttles, disk failures and timeout windows
#: on every node, several of each
STORMY = FaultMix(crash_downtime_seconds=15.0, throttle_duration_seconds=20.0,
                  rebuild_seconds=20.0, timeout_duration_seconds=5.0,
                  intensity=60.0)
#: long timeout windows, few crashes: most retries are exclusion
#: redispatches
TIMEOUTS = FaultMix(crash_rate_per_node_hour=4.0,
                    timeout_rate_per_node_hour=40.0,
                    timeout_duration_seconds=20.0, intensity=1.0)


def _nimble(model: NodePowerModel) -> NodePowerModel:
    """The same node, power-cycling in seconds, so a short stream sees
    the autoscaler drain and boot."""
    return replace(model, boot_seconds=2.0, drain_seconds=1.0,
                   boot_joules=2.0 * model.peak_watts,
                   drain_joules=1.0 * model.idle_watts)


def _fleet(kind: str, n: int = 8) -> FleetSpec:
    fleet = (FleetSpec.homogeneous(n, NodePowerModel.from_server(
        "commodity")) if kind == "homogeneous"
        else FleetSpec.of(beefy=3, wimpy=5))
    return FleetSpec(classes=tuple(
        replace(cls, model=_nimble(cls.model)) for cls in fleet.classes))


def _dark(fleet: FleetSpec, horizon: float) -> FaultSchedule:
    """Every node crashes at once, twice: the fleet goes dark, rows
    park until a repair, and an autoscaled fleet boots spares."""
    events = tuple(
        FaultEvent(kind="crash", node=i, start=at + 0.25 * i,
                   duration=8.0 + i)
        for at in (20.0, 60.0) for i in range(fleet.n_nodes))
    # node 0 is repaired into a dark fleet at 28 s and boots for 2 s:
    # this crash lands inside the boot window and waits for its end
    events += (FaultEvent(kind="crash", node=0, start=29.0, duration=3.0),)
    return FaultSchedule(n_nodes=fleet.n_nodes, horizon_seconds=horizon,
                         events=events)


def _batch_tenants():
    return tuple(replace(t, batch=t.name == "reporting")
                 for t in DEFAULT_TENANTS)


#: case -> knobs; every knob not named takes the defaults of `serve`
CASES = {
    "least_loaded": dict(policy=lambda: "least_loaded"),
    "least_loaded_timeouts": dict(policy=lambda: "least_loaded",
                                  mix=TIMEOUTS),
    "least_loaded_limit_no_shed": dict(
        policy=lambda: make_policy("least_loaded",
                                   admission_limit_seconds=0.3),
        shed=None, load=1.5),
    "power_aware": dict(policy=lambda: "power_aware"),
    "power_aware_timeouts_hetero": dict(policy=lambda: "power_aware",
                                        mix=TIMEOUTS, fleet="hetero"),
    "power_aware_dark": dict(policy=lambda: "power_aware", mix="dark",
                             fleet="homogeneous4", load=0.5),
    "least_loaded_dark_all_on": dict(policy=lambda: "least_loaded",
                                     mix="dark", fleet="homogeneous4",
                                     autoscaled=False),
    "cost_aware_hetero": dict(policy=lambda: "cost_aware", fleet="hetero",
                              shed=None),
    "round_robin": dict(policy=lambda: "round_robin", autoscaled=False),
    "pvc_hetero": dict(policy=lambda: PVCPolicy(inner="least_loaded"),
                       fleet="hetero", load=0.5),
    "pvc_power_aware_limit": dict(
        policy=lambda: PVCPolicy(admission_limit_seconds=0.5)),
    "qed_power_aware": dict(policy=QEDPolicy),
    "qed_pvc_timeouts": dict(policy=lambda: QEDPolicy(inner="pvc"),
                             mix=TIMEOUTS, load=2.0),
    "qed_batch_tenant_limit": dict(
        policy=lambda: QEDPolicy(inner="least_loaded",
                                 admission_limit_seconds=0.2),
        tenants=_batch_tenants(), load=4.0, fleet="homogeneous4"),
    "batch_tenant_limit": dict(
        policy=lambda: make_policy("cost_aware",
                                   admission_limit_seconds=2.0),
        tenants=_batch_tenants(), load=1.5, fleet="homogeneous4"),
}

#: observer -> the dict the case pins under it
OBSERVERS = ("report", "recording", "trace")


def _digest(data: dict) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def serve(case: str, observer: str, **engine):
    """One run of ``case``: ``(report, the observed dict)``; ``engine``
    is passed through to ``simulate_faulty_service``."""
    knobs = CASES[case]
    fleet_kind = knobs.get("fleet", "homogeneous")
    fleet = (_fleet("homogeneous", 4) if fleet_kind == "homogeneous4"
             else _fleet(fleet_kind))
    load = knobs.get("load", 1.0)
    stream = build_stream(
        QUERIES, tenants=tuple(replace(t, rate_per_s=t.rate_per_s * load)
                               for t in knobs.get("tenants",
                                                  DEFAULT_TENANTS)),
        seed=3)
    mix = knobs.get("mix", STORMY)
    schedule = (_dark(fleet, stream.duration_seconds) if mix == "dark"
                else build_fault_schedule(
                    horizon_seconds=stream.duration_seconds, seed=5,
                    fleet=fleet, mix=mix))

    def run():
        autoscaler = Autoscaler(
            fleet.classes[0].model, epoch_seconds=5.0,
            target_utilization=0.85,
            min_nodes=1) if knobs.get("autoscaled", True) else None
        return simulate_faulty_service(
            stream, schedule, fleet=fleet, policy=knobs["policy"](),
            autoscaler=autoscaler,
            retry=RetryPolicy(max_attempts=3, base_backoff_seconds=0.2),
            shed=knobs.get("shed", ShedPolicy(slack_fraction=0.5)),
            **engine)

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


def digests(case: str) -> dict:
    out = {}
    for observer in OBSERVERS:
        report, observed = serve(case, observer)
        out[observer] = _digest(observed)
        # watching a run never changes it
        assert _digest(report.to_dict()) == out["report"]
    return out


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_the_golden_covers_every_case():
    assert sorted(CASES) == sorted(_golden())


@pytest.mark.parametrize("case", sorted(CASES))
def test_digests_are_the_parents(case):
    assert digests(case) == _golden()[case]


if __name__ == "__main__":  # the goldens of the tree on the path
    GOLDEN.write_text(json.dumps({case: digests(case) for case in CASES},
                                 indent=1, sort_keys=True) + "\n")
