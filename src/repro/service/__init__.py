"""repro.service: fleet-scale query serving with power-aware dispatch.

The cluster layer of the reproduction (paper §2.4/§4.2 at fleet
scale): multi-tenant open-loop arrival streams, heterogeneous fleets
declared as :class:`FleetSpec` compositions of :class:`NodeClass`
tiers, pluggable dispatch policies routing on a
:class:`DispatchContext` (marginal Joules, SLA slack), an autoscaler
with per-class spin-up break-even accounting, and SLA-vs-energy
reporting through the unified report protocol.

Quick start::

    from repro.service import FleetSpec, build_stream, simulate_service

    stream = build_stream(100_000)
    fleet = FleetSpec.of(beefy=4, wimpy=24)   # or .homogeneous(16)
    report = simulate_service(stream, fleet=fleet, policy="power_aware")
    print(report.joules_per_query, report.p95_latency_seconds)
    for cls in report.classes:                # per-class rollups
        print(cls.node_class, cls.joules_per_query)

Beyond routing, two execution policies reproduce the Lang & Patel
(arXiv 0909.1767) mechanisms: :class:`PVCPolicy` governs per-node
frequency (cubic power, linear slowdown, within SLA headroom) and
:class:`QEDPolicy` holds compatible arrivals to execute them as shared
batches; ``QEDPolicy(inner="pvc")`` stacks both.  POLICIES.md is the
policy-author's guide.

or, the registered sweeps::

    python -m repro.runner run svc_policies   # three policies, 1.05 M
    python -m repro.runner run svc_hetero     # composition x load x SLA
    python -m repro.runner run svc_pvc_qed    # PVC x QED Pareto frontier
"""

from repro.service.autoscale import Autoscaler
from repro.service.dispatch import (DISPATCH_POLICIES, CostAware,
                                    DispatchContext, DispatchPolicy,
                                    LeastLoaded, PowerAwarePacking,
                                    RoundRobin, make_policy,
                                    policy_knob_names, register_policy)
from repro.service.fleet import simulate_service
from repro.service.micro import MicroFleetResult, run_micro_fleet
from repro.service.node import FleetNode, NodePowerModel
from repro.service.pvc import DEFAULT_FREQUENCY_STEPS, PVCPolicy
from repro.service.qed import QEDPolicy
from repro.service.report import (ClassStats, FaultStats, NodeStats,
                                  ServiceError, ServiceReport,
                                  ServiceSweepResult, TenantStats,
                                  rollup_classes)
from repro.service.spec import (NODE_CLASS_REGISTRY, FleetSpec, NodeClass,
                                node_class_model, register_node_class)
from repro.service.workload import (DEFAULT_CLASSES, DEFAULT_TENANTS,
                                    ArrivalStream, QueryClass, Tenant,
                                    build_stream)

__all__ = [
    "ArrivalStream",
    "Autoscaler",
    "ClassStats",
    "CostAware",
    "DEFAULT_CLASSES",
    "DEFAULT_FREQUENCY_STEPS",
    "DEFAULT_TENANTS",
    "DISPATCH_POLICIES",
    "DispatchContext",
    "DispatchPolicy",
    "FaultStats",
    "FleetNode",
    "FleetSpec",
    "LeastLoaded",
    "MicroFleetResult",
    "NODE_CLASS_REGISTRY",
    "NodeClass",
    "NodePowerModel",
    "NodeStats",
    "PVCPolicy",
    "PowerAwarePacking",
    "QEDPolicy",
    "QueryClass",
    "RoundRobin",
    "ServiceError",
    "ServiceReport",
    "ServiceSweepResult",
    "Tenant",
    "TenantStats",
    "build_stream",
    "make_policy",
    "node_class_model",
    "policy_knob_names",
    "register_node_class",
    "register_policy",
    "rollup_classes",
    "run_micro_fleet",
    "simulate_service",
]
