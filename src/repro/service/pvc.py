"""PVC: processor voltage/frequency control as a serving policy.

Lang & Patel (arXiv 0909.1767, PAPERS.md) call the first of their two
eco-friendly mechanisms **PVC**: run the processor at a lower
voltage/frequency point whenever the workload has latency slack, since
dynamic power falls with the *cube* of frequency while service time
only grows linearly.  The repo already owns that arithmetic — the
chaos engine prices CPU throttling with the same cubic rule
(:meth:`~repro.service.node.NodePowerModel.dvfs_watts`) — but there it
is a *fault*.  :class:`PVCPolicy` promotes it to a deliberate
governor: a wrapper around any routing policy that, per admitted
arrival, picks the lowest frequency step whose slowed execution still
fits inside the tenant's SLA headroom.

The engine executes a downclocked query at busy draw

    idle + (peak - idle) * f**3          (watts)

for ``service / f`` seconds, so the active energy above idle scales by
``f**2`` — a 0.55 step spends ~30% of the full-speed active Joules on
the same query.  At ``f == 1.0`` the engine takes the ordinary
:meth:`~repro.service.node.FleetNode.serve` path.

Routing, admission, and autoscaling all delegate to the wrapped
``inner`` policy (default ``power_aware``), so PVC composes with every
registered router, heterogeneous fleets included.  Extra knobs pass
through to the inner factory: ``make_policy("pvc",
pack_backlog_seconds=0.5)`` builds a PVC governor over a packing
router with that bound.

>>> from repro.service.dispatch import DispatchContext
>>> from repro.service.node import FleetNode, NodePowerModel
>>> pvc = PVCPolicy()          # wraps power_aware by default
>>> pvc.name
'pvc(power_aware)'
>>> node = FleetNode("n0", NodePowerModel())    # 200 W idle / 350 W peak
>>> ctx = DispatchContext([node], [0], 0.0, 0.30, sla_seconds=4.0)
>>> pvc.frequency(ctx, 0)      # 0.3 s job, 2.4 s budget: deepest step
0.55
>>> ctx = DispatchContext([node], [0], 0.0, 2.50, sla_seconds=4.0)
>>> pvc.frequency(ctx, 0)      # 2.5 s job: even 0.85 overshoots 2.4 s
1.0
>>> pvc.frequency(DispatchContext([node], [0], 0.0, 0.30), 0)
1.0
"""

from __future__ import annotations

from typing import Optional

from repro.service.dispatch import (DispatchContext, DispatchPolicy,
                                    make_policy, register_policy)
from repro.service.node import FleetNode
from repro.service.report import ServiceError

#: the governor ladder, ascending so the first fitting step is the
#: deepest downclock: three downclock steps, the deepest spending ~30%
#: of full-speed active energy per query, plus full speed
FREQUENCY_STEPS: tuple[float, ...] = (0.55, 0.7, 0.85, 1.0)


class PVCPolicy(DispatchPolicy):
    """Per-node frequency governor over a wrapped routing policy.

    For every admitted arrival the governor asks: after the inner
    policy has routed it to node ``i``, what is the lowest frequency
    step ``f`` such that the node's current backlog plus the slowed
    execution (``scaled_service / f``) still finishes within
    ``sla * sla_headroom``?  That step wins; if none fits — or the
    arrival carries no SLA — the query runs at full speed.  Backlog is
    re-read per arrival, so a queue that builds up under downclocking
    pushes the governor back toward full speed by itself.

    ``sla_headroom`` is the fraction of the p95 target the *estimate*
    may consume; the gap to 1.0 absorbs queueing noise the closed-form
    estimate cannot see.  Because the report's SLA check is on the
    p95, headroom well below 1.0 keeps downclocked tenants compliant.
    """

    name = "pvc"
    dvfs = True

    def __init__(self, inner: DispatchPolicy | str = "power_aware",
                 sla_headroom: float = 0.6,
                 admission_limit_seconds: Optional[float] = None,
                 **inner_kwargs) -> None:
        super().__init__(admission_limit_seconds)
        self.inner = make_policy(inner, **inner_kwargs)
        if self.inner.batching or self.inner.dvfs:
            raise ServiceError(
                f"pvc cannot wrap {self.inner.name!r}: wrap the router "
                "with pvc first, then batch with qed on top")
        if not 0 < sla_headroom <= 1.0:
            raise ServiceError(
                f"SLA headroom must lie in (0, 1], got {sla_headroom}")
        self.sla_headroom = sla_headroom
        self.autoscaled = self.inner.autoscaled
        self.name = f"pvc({self.inner.name})"

    def route(self, ctx: DispatchContext) -> int:
        return self.inner.route(ctx)

    def admits(self, node: FleetNode, now: float) -> bool:
        return super().admits(node, now) and self.inner.admits(node, now)

    def frequency(self, ctx: DispatchContext, i: int) -> float:
        if ctx.sla_seconds is None:
            return 1.0
        budget = ctx.sla_seconds * self.sla_headroom
        backlog = ctx.nodes[i].backlog(ctx.now)
        execution = ctx.scaled_service_seconds(i)
        for f in FREQUENCY_STEPS:
            if f >= 1.0:
                break  # full speed is the engine's ordinary path
            if backlog + execution / f <= budget:
                return f
        return 1.0


register_policy(PVCPolicy)
