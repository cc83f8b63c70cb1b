"""Property tests: fault injection never forges or loses anything.

Whatever the fault schedule does to the fleet — crashes mid-query,
thermal throttling, degraded RAID groups, dispatch timeouts — two
invariants must hold exactly:

* **query conservation** — every offered query is accounted for as
  completed, rejected (shed / timed out), or crash-attributed lost;
* **energy conservation** — replaying the run's power transitions into
  real metered devices integrates to the closed-form fleet energy to
  relative 1e-9, through every crash and recovery.

Both hold on both chaos interpreters: the reference closure and the
faulted event-core kernel.  Plus determinism: the same (stream,
schedule, policies) produce a byte-identical ServiceReport.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import build_fault_schedule, simulate_faulty_service
from repro.faults.policies import RetryPolicy, ShedPolicy
from repro.service import (FleetSpec, NodePowerModel, Tenant,
                           build_stream)
from repro.telemetry import capture

#: one tenant and two query shapes: a cheap scan and a heavier one
ONE_TENANT = Tenant("micro", rate_per_s=1.0, sla_p95_seconds=60.0,
                    mix=(("point", 0.6), ("report", 0.4)))

POLICIES = ("round_robin", "least_loaded", "power_aware")
#: every policy on the chaos engine's closure, and on the faulted
#: kernel where the router has one
ENGINES = [(policy, "loop") for policy in POLICIES] + [
    (policy, "event") for policy in POLICIES if policy != "round_robin"]

seeds = st.integers(min_value=0, max_value=2**31 - 1)
query_counts = st.integers(min_value=1, max_value=300)
node_counts = st.integers(min_value=1, max_value=8)
intensities = st.floats(min_value=0.0, max_value=8.0,
                        allow_nan=False, allow_infinity=False)


def _model():
    return NodePowerModel(name="t", idle_watts=50.0, peak_watts=120.0,
                          boot_seconds=1.0, boot_joules=120.0,
                          drain_seconds=0.5, drain_joules=25.0)


def _case(queries, n_nodes, seed, intensity):
    # a single tenant so tiny streams cannot starve a tenant
    stream = build_stream(queries, tenants=(ONE_TENANT,), seed=seed)
    horizon = max(stream.duration_seconds, 1.0) * 1.5
    schedule = build_fault_schedule(
        n_nodes, horizon, seed=seed, intensity=intensity,
        crash_downtime_seconds=2.0)
    retry = RetryPolicy(max_attempts=3, base_backoff_seconds=0.01,
                        timeout_detect_seconds=0.05)
    shed = ShedPolicy(slack_fraction=0.5)
    return stream, schedule, retry, shed


@settings(max_examples=20, deadline=None)
@given(queries=query_counts, n_nodes=node_counts, seed=seeds,
       intensity=intensities)
def test_every_query_is_accounted_for(queries, n_nodes, seed, intensity):
    stream, schedule, retry, shed = _case(queries, n_nodes, seed,
                                          intensity)
    for policy, engine in ENGINES:
        report = simulate_faulty_service(
            stream, schedule, fleet=FleetSpec.homogeneous(n_nodes, _model()),
            policy=policy, retry=retry, shed=shed, engine=engine)
        assert report.engine == engine
        assert report.faults is not None
        # exact integer reconciliation: nothing forged, nothing dropped
        assert (report.queries_completed + report.queries_rejected
                + report.faults.queries_lost) == queries
        per_tenant = sum(t.completed for t in report.tenants)
        assert per_tenant == report.queries_completed
        assert report.faults.queries_lost <= report.faults.crashes * queries
        assert report.queries_completed <= report.queries_offered


@settings(max_examples=20, deadline=None)
@given(queries=query_counts, n_nodes=node_counts, seed=seeds,
       intensity=intensities)
# the autoscaler powers node002 off at t=90.0 and the run ends at
# 90.31, inside the 0.5 s drain window whose lump is already charged
@example(queries=88, n_nodes=3, seed=302, intensity=0.0)
def test_metered_energy_matches_closed_form(queries, n_nodes, seed,
                                            intensity):
    stream, schedule, retry, shed = _case(queries, n_nodes, seed,
                                          intensity)
    for policy, engine in ENGINES:
        with capture() as collector:
            report = simulate_faulty_service(
                stream, schedule,
                fleet=FleetSpec.homogeneous(n_nodes, _model()),
                policy=policy, retry=retry, shed=shed, engine=engine)
        trace = collector.finalize()
        metered = sum(d.energy_joules for d in trace.devices
                      if d.name.startswith("svc.node"))
        assert metered == pytest.approx(report.energy_joules,
                                        rel=1e-9, abs=1e-9)


@settings(max_examples=15, deadline=None)
@given(queries=query_counts, n_nodes=node_counts, seed=seeds,
       intensity=intensities)
def test_faulty_service_is_deterministic(queries, n_nodes, seed,
                                         intensity):
    stream, schedule, retry, shed = _case(queries, n_nodes, seed,
                                          intensity)
    dumps = []
    for _ in range(2):
        report = simulate_faulty_service(
            stream, schedule, fleet=FleetSpec.homogeneous(n_nodes, _model()),
            policy="power_aware", retry=retry, shed=shed)
        dumps.append(json.dumps(report.to_dict(), sort_keys=True))
    assert dumps[0] == dumps[1]


@settings(max_examples=15, deadline=None)
@given(queries=query_counts, n_nodes=node_counts, seed=seeds)
def test_empty_schedule_degrades_to_fault_free_bookkeeping(
        queries, n_nodes, seed):
    """With no faults, the engine must report a clean, lossless run."""
    stream = build_stream(queries, tenants=(ONE_TENANT,), seed=seed)
    schedule = build_fault_schedule(
        n_nodes, max(stream.duration_seconds, 1.0), seed=seed,
        intensity=0.0)
    assert len(schedule) == 0
    report = simulate_faulty_service(
        stream, schedule, fleet=FleetSpec.homogeneous(n_nodes, _model()),
        policy="power_aware")
    assert report.queries_completed == queries
    assert report.faults.queries_lost == 0
    assert report.faults.crashes == 0
    assert report.queries_offered == queries
