"""The chaos engine on an empty fault schedule against the reference
loop, over the golden grid of the engine-equivalence suite.  (The
chaos run takes its router's faulted kernel; the closure stays the
chaos engine's ``engine="loop"`` oracle.)

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

from dataclasses import replace

import pytest

from repro.faults import FaultSchedule, simulate_faulty_service
from repro.service import (DEFAULT_TENANTS, Autoscaler, FleetSpec,
                           NodePowerModel, PVCPolicy, QEDPolicy, build_stream,
                           make_policy, simulate_service)
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


def _serve(stream, policy_name, fleet_kind, autoscale, chaos,
           engine="auto"):
    fleet = _fleet(fleet_kind)
    autoscaler = Autoscaler(
        fleet.classes[0].model, epoch_seconds=20.0,
        target_utilization=0.55, min_nodes=2) if autoscale else None
    if chaos:
        calm = FaultSchedule(n_nodes=fleet.n_nodes,
                             horizon_seconds=stream.duration_seconds)
        return simulate_faulty_service(
            stream, calm, fleet=fleet, policy=_policy(policy_name),
            autoscaler=autoscaler, engine=engine)
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
    # a chaos run takes the faulted kernel
    assert (loop.engine, chaos.engine) == ("loop", "event")

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


@pytest.mark.parametrize("policy_name", ["least_loaded", "pvc_qed"])
def test_chaos_loop_still_runs_the_closure(policy_name):
    """``engine="loop"`` keeps the chaos engine's reference closure —
    the oracle the faulted kernels are held to — and it serves the
    same run."""
    stream = build_stream(3_000, seed=0)
    closure = _serve(stream, policy_name, "hetero", True, chaos=True,
                     engine="loop")
    kernel = _serve(stream, policy_name, "hetero", True, chaos=True)
    assert (closure.engine, kernel.engine) == ("loop", "event")
    assert closure.engine_reason is None
    assert closure.to_dict() == kernel.to_dict()


@pytest.mark.parametrize("policy_name", ["least_loaded", "power_aware",
                                         "qed"])
def test_batch_tenant_under_a_limit_is_admitted_by_both(policy_name):
    """A batch tenant is exempt from the admission limit on the chaos
    engine too: its rows read the stream's batch flag, as the loop's
    do."""
    tenants = tuple(replace(t, batch=t.name == "reporting")
                    for t in DEFAULT_TENANTS)
    stream = build_stream(3_000, tenants=tenants, seed=3)
    fleet = FleetSpec.homogeneous(4, MODEL)

    def policy():
        if policy_name == "qed":
            return QEDPolicy(hold_seconds=0.5, sla_headroom=0.6,
                             admission_limit_seconds=0.05)
        return make_policy(policy_name, admission_limit_seconds=0.05)

    loop = simulate_service(stream, fleet=fleet, policy=policy(),
                            engine="loop")
    calm = FaultSchedule(n_nodes=fleet.n_nodes,
                         horizon_seconds=stream.duration_seconds)
    chaos = simulate_faulty_service(stream, calm, fleet=fleet,
                                    policy=policy())

    rejected = {t.tenant: t.rejected for t in loop.tenants}
    assert rejected["reporting"] == 0 and loop.queries_rejected > 0
    assert chaos.tenants == loop.tenants
    assert chaos.queries_rejected == loop.queries_rejected
