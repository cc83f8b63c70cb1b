"""Property tests of the analytic fleet: every policy completes every
admitted arrival and marks (never drops) a rejected one, degenerate
policies reduce to the baseline byte for byte, and every policy
conserves queries and bounds its energy between the idle floor and the
peak ceiling.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flightrec import record
from repro.flightrec.events import DONE, REJECTED
from repro.service import (FleetSpec, Tenant, build_stream,
                           make_policy, simulate_service)

POLICIES = ("round_robin", "least_loaded", "power_aware")

#: one tenant and two query shapes: a cheap scan and a heavier one
ONE_TENANT = Tenant("micro", rate_per_s=1.0, sla_p95_seconds=60.0,
                    mix=(("point", 0.6), ("report", 0.4)))

seeds = st.integers(min_value=0, max_value=2**31 - 1)
query_counts = st.integers(min_value=1, max_value=12)
node_counts = st.integers(min_value=1, max_value=4)


def one_tenant_stream(queries, seed):
    return build_stream(queries, tenants=(ONE_TENANT,), seed=seed)


def recorded_run(stream, n_nodes, policy):
    with record() as rec:
        report = simulate_service(
            stream, fleet=FleetSpec.homogeneous(n_nodes), policy=policy)
    return report, rec.finalize().queries


@settings(max_examples=20, deadline=None)
@given(queries=query_counts, n_nodes=node_counts, seed=seeds)
def test_all_admitted_arrivals_complete(queries, n_nodes, seed):
    stream = one_tenant_stream(queries, seed)
    for policy in POLICIES:
        report, q = recorded_run(stream, n_nodes, policy)
        for k in range(queries):
            assert q["state"][k] == DONE
            assert 0 <= q["node"][k] < n_nodes
            latency = q["completion"][k] - q["arrival"][k]
            assert not math.isnan(latency) and latency >= 0.0
        assert report.queries_completed == queries


@settings(max_examples=10, deadline=None)
@given(queries=st.integers(min_value=2, max_value=10), seed=seeds)
def test_admission_rejections_are_marked_not_dropped(queries, seed):
    stream = one_tenant_stream(queries, seed)
    # a tiny limit on a single node rejects whatever finds it busy
    policy = make_policy("round_robin", admission_limit_seconds=1e-9)
    report, q = recorded_run(stream, 1, policy)
    for k in range(queries):
        assert q["state"][k] in (DONE, REJECTED)
        if q["state"][k] == REJECTED:
            assert q["completion"][k] is None
    assert q["state"].count(REJECTED) == report.queries_rejected
    assert report.queries_completed + report.queries_rejected == queries


def _report_dict_sans_policy(report):
    d = report.to_dict()
    d.pop("policy")
    return d


@settings(max_examples=20, deadline=None)
@given(queries=st.integers(min_value=1, max_value=300),
       n_nodes=st.integers(min_value=1, max_value=8), seed=seeds)
def test_pvc_at_full_frequency_is_byte_identical_to_baseline(
        queries, n_nodes, seed):
    """A governor whose headroom no downclock step fits never
    downclocks, so its report must be byte-for-byte the wrapped
    policy's (modulo the policy name) — the degenerate-configuration
    law."""
    from repro.service import PVCPolicy

    stream = one_tenant_stream(queries, seed)
    fleet = FleetSpec.homogeneous(n_nodes)
    base = simulate_service(stream, fleet=fleet, policy="power_aware")
    pvc = simulate_service(stream, fleet=fleet,
                           policy=PVCPolicy(sla_headroom=1e-9))
    assert _report_dict_sans_policy(pvc) == _report_dict_sans_policy(base)


@settings(max_examples=20, deadline=None)
@given(queries=st.integers(min_value=1, max_value=300),
       n_nodes=st.integers(min_value=1, max_value=8), seed=seeds)
def test_qed_with_zero_hold_is_byte_identical_to_baseline(
        queries, n_nodes, seed):
    """A zero hold window releases every arrival alone at its own
    arrival instant, reproducing the un-batched engine event for
    event."""
    from repro.service import QEDPolicy

    stream = one_tenant_stream(queries, seed)
    fleet = FleetSpec.homogeneous(n_nodes)
    base = simulate_service(stream, fleet=fleet, policy="power_aware")
    qed = simulate_service(stream, fleet=fleet,
                           policy=QEDPolicy(hold_seconds=0.0))
    assert _report_dict_sans_policy(qed) == _report_dict_sans_policy(base)


@settings(max_examples=20, deadline=None)
@given(queries=st.integers(min_value=1, max_value=300),
       n_nodes=st.integers(min_value=1, max_value=8), seed=seeds)
def test_analytic_fleet_conserves_queries_and_energy(queries, n_nodes,
                                                     seed):
    """Closed-form fleet invariants on arbitrary streams."""
    from repro.service import NodePowerModel

    # a single tenant so tiny streams cannot starve a tenant (which
    # simulate_service rightly treats as an error)
    stream = one_tenant_stream(queries, seed)
    model = NodePowerModel(name="t", idle_watts=50.0, peak_watts=120.0,
                           boot_seconds=1.0, boot_joules=120.0,
                           drain_seconds=0.5, drain_joules=25.0)
    for policy in POLICIES:
        report = simulate_service(
            stream, fleet=FleetSpec.homogeneous(n_nodes, model),
            policy=policy)
        assert report.queries_completed + report.queries_rejected \
            == queries
        assert report.queries_rejected == 0  # no admission limit set
        assert report.energy_joules >= 0.0
        # fleet energy is bounded by every node at peak for the whole
        # makespan plus all transition lumps that were charged
        boots = sum(n.boots for n in report.nodes)
        ceiling = (model.peak_watts * report.node_seconds_on
                   + boots * model.cycle_joules
                   + n_nodes * model.drain_joules + 1e-9)
        assert report.energy_joules <= ceiling
        floor = model.idle_watts * report.node_seconds_on - 1e-9
        assert report.energy_joules >= floor
        assert report.p50_latency_seconds <= report.p95_latency_seconds \
            <= report.p99_latency_seconds
