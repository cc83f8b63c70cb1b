"""Batching runs, pinned byte for byte.

A batching policy's hold protocol (QED) reads arrivals and the clock,
never the fleet, so its releases can be computed ahead of serving and
served as one stream by whichever interpreter takes the run.  Whatever
serves them, the report, the flight recording and the telemetry trace
of a batching run must not move.  ``golden_records/batch_stream.json``
holds SHA-256 digests of ``ServiceReport.to_dict()``,
``FlightRecording.to_dict()`` and ``TelemetryTrace.to_dict()`` for
every case below; it was written by running this file as a script
against the tree that still served batches one release at a time (a
batched copy of the reference loop, and release events on the chaos
engine's heap); ``qed_epoch_long``'s were re-written from the parent
tree when the autoscaler's cooldown became a fixed two epochs.  Running
the script writes the goldens of the tree on ``PYTHONPATH``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.faults import (FaultMix, build_fault_schedule,
                          simulate_faulty_service)
from repro.flightrec import record
from repro.service import (DEFAULT_TENANTS, Autoscaler, FleetSpec,
                           NodePowerModel, PVCPolicy, QEDPolicy, build_stream,
                           make_policy, simulate_service)
from repro.telemetry import capture

GOLDEN = Path(__file__).parent / "golden_records" / "batch_stream.json"

QUERIES = 2_000


def _nimble(model: NodePowerModel) -> NodePowerModel:
    """The same node, power-cycling in seconds, so a short stream sees
    the autoscaler drain and boot."""
    return replace(model, boot_seconds=2.0, drain_seconds=1.0,
                   boot_joules=2.0 * model.peak_watts,
                   drain_joules=1.0 * model.idle_watts)


def _fleet(kind: str) -> FleetSpec:
    fleet = (FleetSpec.homogeneous(8, NodePowerModel.from_server(
        "commodity")) if kind == "homogeneous"
        else FleetSpec.of(beefy=3, wimpy=5))
    return FleetSpec(classes=tuple(
        replace(cls, model=_nimble(cls.model)) for cls in fleet.classes))


def _every_layer() -> QEDPolicy:
    """A limit on QED, on the PVC governor and on the router, each a
    different value."""
    router = make_policy("least_loaded", admission_limit_seconds=0.6)
    return QEDPolicy(inner=PVCPolicy(inner=router,
                                     admission_limit_seconds=0.9),
                     admission_limit_seconds=0.45)


#: case -> (policy factory, fleet kind, epoch seconds, load, chaos)
CASES = {
    "qed_round_robin": (lambda: QEDPolicy(inner="round_robin"),
                        "homogeneous", 5.0, 1.0, False),
    "qed_least_loaded": (lambda: QEDPolicy(inner="least_loaded"),
                         "homogeneous", 5.0, 1.0, False),
    "qed_power_aware": (QEDPolicy, "homogeneous", 5.0, 1.0, False),
    "qed_cost_aware": (lambda: QEDPolicy(inner="cost_aware"),
                       "homogeneous", 5.0, 1.0, False),
    "qed_pvc": (lambda: QEDPolicy(inner="pvc"),
                "homogeneous", 5.0, 1.0, False),
    "qed_hold_zero": (lambda: QEDPolicy(inner="pvc", hold_seconds=0.0),
                      "homogeneous", 5.0, 1.0, False),
    "qed_max_batch_2": (lambda: QEDPolicy(max_batch=2),
                        "homogeneous", 5.0, 1.0, False),
    "qed_limit": (lambda: QEDPolicy(admission_limit_seconds=0.3),
                  "homogeneous", 5.0, 6.0, False),
    "qed_limit_every_layer": (_every_layer, "homogeneous", 5.0, 6.0,
                              False),
    "qed_pvc_hetero": (lambda: QEDPolicy(inner="pvc"),
                       "hetero", 5.0, 1.0, False),
    "qed_cost_aware_hetero": (lambda: QEDPolicy(inner="cost_aware"),
                              "hetero", 5.0, 2.0, False),
    # (the one case whose autoscaler boots as well as drains)
    "qed_epoch_short": (lambda: QEDPolicy(inner="pvc"),
                        "homogeneous", 2.5, 0.5, False),
    "qed_epoch_long": (lambda: QEDPolicy(inner="pvc"),
                       "homogeneous", 15.0, 1.0, False),
    "qed_load_light": (QEDPolicy, "homogeneous", 5.0, 0.4, False),
    "qed_load_heavy": (QEDPolicy, "homogeneous", 5.0, 4.0, False),
    "chaos_power_aware": (lambda: "power_aware", "homogeneous", 5.0, 1.0,
                          True),
    "chaos_qed": (QEDPolicy, "homogeneous", 5.0, 1.0, True),
    "chaos_pvc_qed": (lambda: QEDPolicy(inner="pvc"), "homogeneous", 5.0,
                      2.0, True),
}

#: observer -> the dict the case pins under it
OBSERVERS = ("report", "recording", "trace")


def _digest(data: dict) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def serve(case: str, observer: str):
    """One run of ``case``: ``(report, the observed dict)``."""
    policy, fleet_kind, epoch, load, chaos = CASES[case]
    fleet = _fleet(fleet_kind)
    stream = build_stream(
        QUERIES, tenants=tuple(replace(t, rate_per_s=t.rate_per_s * load)
                               for t in DEFAULT_TENANTS), seed=3)
    faults = build_fault_schedule(
        horizon_seconds=stream.duration_seconds, seed=5, fleet=fleet,
        mix=FaultMix(intensity=60.0)) if chaos else None

    def run():
        autoscaler = Autoscaler(fleet.classes[0].model, epoch_seconds=epoch,
                                target_utilization=0.85, min_nodes=1)
        if faults is not None:
            return simulate_faulty_service(stream, faults, fleet=fleet,
                                           policy=policy(),
                                           autoscaler=autoscaler)
        return simulate_service(stream, fleet=fleet, policy=policy(),
                                autoscaler=autoscaler)

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
