"""The chaos engine on an empty fault schedule against the reference
loop, over the golden grid of the engine-equivalence suite.

Both interpreters enter through ``fleet._prepare`` and leave through
``fleet._assemble_report``; what stays apart is the per-query
arithmetic.  The two agree *exactly* on every count, every tenant's
latency statistics, the latency quantiles and the makespan — the
routing, queueing and autoscaling decisions are the same decisions.
They agree on Joules only to the last bits: the chaos engine prices
every execution through ``FleetNode.serve_active``'s per-query lane
(it must, a throttle window can change the busy draw mid-run), the
loop through ``serve``'s linear lane, and the two sums associate
differently.  That last-bits drift is why the interpreters are not
merged: it would move every committed ledger.
"""

import pytest

from repro.faults import FaultSchedule, simulate_faulty_service
from repro.service import (Autoscaler, FleetSpec, NodePowerModel, PVCPolicy,
                           QEDPolicy, build_stream, make_policy,
                           simulate_service)
from repro.service.report import FaultStats

MODEL = NodePowerModel.from_server("commodity")

POLICIES = ("round_robin", "least_loaded", "power_aware", "cost_aware",
            "pvc", "qed", "pvc_qed")


def _policy(name: str):
    if name == "pvc":
        return PVCPolicy(sla_headroom=0.6)
    if name == "qed":
        return QEDPolicy(hold_seconds=0.5, sla_headroom=0.6)
    if name == "pvc_qed":
        return QEDPolicy(inner=PVCPolicy(sla_headroom=0.6),
                         hold_seconds=0.5, sla_headroom=0.6)
    return make_policy(name)


def _fleet(kind: str) -> FleetSpec:
    if kind == "homogeneous":
        return FleetSpec.homogeneous(8, MODEL)
    return FleetSpec.of(beefy=3, wimpy=5)


def _serve(stream, policy_name, fleet_kind, autoscale, chaos):
    fleet = _fleet(fleet_kind)
    autoscaler = Autoscaler(
        fleet.classes[0].model, epoch_seconds=20.0,
        target_utilization=0.55, min_nodes=2) if autoscale else None
    if chaos:
        calm = FaultSchedule(n_nodes=fleet.n_nodes,
                             horizon_seconds=stream.duration_seconds)
        return simulate_faulty_service(
            stream, calm, fleet=fleet, policy=_policy(policy_name),
            autoscaler=autoscaler)
    return simulate_service(stream, fleet=fleet,
                            policy=_policy(policy_name),
                            autoscaler=autoscaler, engine="loop")


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("autoscale", [False, True])
@pytest.mark.parametrize("fleet_kind", ["homogeneous", "hetero"])
@pytest.mark.parametrize("policy_name", POLICIES)
def test_empty_schedule_chaos_matches_the_loop(policy_name, fleet_kind,
                                               autoscale, seed):
    stream = build_stream(3_000, seed=seed)
    loop = _serve(stream, policy_name, fleet_kind, autoscale, chaos=False)
    chaos = _serve(stream, policy_name, fleet_kind, autoscale, chaos=True)

    assert chaos.faults == FaultStats()
    assert loop.faults is None
    assert (loop.engine, chaos.engine) == ("loop", "loop")

    for name in ("queries_offered", "queries_completed",
                 "queries_rejected", "makespan_seconds",
                 "p50_latency_seconds", "p95_latency_seconds",
                 "p99_latency_seconds", "mean_latency_seconds",
                 "node_seconds_on"):
        assert getattr(chaos, name) == getattr(loop, name), name
    assert chaos.tenants == loop.tenants
    assert [n.completed for n in chaos.nodes] \
        == [n.completed for n in loop.nodes]
    assert chaos.energy_joules == pytest.approx(loop.energy_joules,
                                                rel=1e-9, abs=0.0)
