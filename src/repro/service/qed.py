"""QED: queued execution — delay queries to share their work.

Lang & Patel's second eco-friendly mechanism (arXiv 0909.1767,
PAPERS.md) is **QED**: instead of dispatching every arrival the
instant it lands, hold compatible queries briefly and execute them as
one shared batch.  The fleet burns active Joules per *execution*, not
per query, so a batch of ``B`` compatible queries whose shared
fraction is ``c`` costs

    s * (1 + (B - 1) * (1 - c))          (speed-1 seconds)

instead of ``B * s`` — and the autoscaler, which observes demand at
release, sees the smaller number and consolidates harder.  The price
is latency: held members wait out the hold window, spending p95 slack
to buy Joules/query.

:class:`QEDPolicy` keys its hold queues by ``(tenant, service
demand)`` — the stream draws each arrival's demand from its query
class's constant, so a queue holds exactly "same tenant, same query
class", the compatibility notion under which work sharing (shared
scans, plan reuse) is defensible.  A queue releases when the *first*
member's latency headroom runs out (``min(hold_seconds, sla *
sla_headroom)`` after its arrival), or immediately when ``max_batch``
fills.  With ``hold_seconds=0`` every arrival releases alone at its
own arrival instant, reproducing the un-batched engine event for
event (the property tests pin byte-identity).

Routing, admission, autoscaling, and the DVFS hook all delegate to
the wrapped ``inner`` policy, so ``QEDPolicy(inner="pvc")`` stacks
batching over the frequency governor — the full PVC+QED composition.
The hold queues never read the fleet, so a run's releases are computed
before serving and the event core serves them, unwrapping QED to the
governor and router inside.

>>> import numpy as np
>>> from repro.service.workload import StreamColumns
>>> arrivals = StreamColumns(
...     times=np.array([10.0, 10.4, 12.0]),
...     service_seconds=np.array([0.3, 0.3, 0.3]),
...     tenant_index=np.array([1, 1, 1]),
...     sla_seconds=np.array([4.0, 4.0, 4.0]))
>>> qed = QEDPolicy(hold_seconds=1.0, shared_fraction=0.7, max_batch=4)
>>> qed.name
'qed(power_aware)'
>>> out = qed.releases(arrivals)    # deadline: 10.0 + min(1.0, 4.0 * 0.5)
>>> out.members, out.times.tolist()
([(0, 1), (2,)], [11.0, 13.0])
>>> [round(s, 3) for s in out.service_seconds.tolist()]
[0.39, 0.3]
>>> QEDPolicy(hold_seconds=0.0).releases(arrivals).members
[(0,), (1,), (2,)]
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

import numpy as np

from repro.observe import current_recorder
from repro.service.dispatch import (DispatchContext, DispatchPolicy,
                                    make_policy, register_policy)
from repro.service.node import FleetNode
from repro.service.report import ServiceError
from repro.service.workload import StreamColumns


class QEDPolicy(DispatchPolicy):
    """Queued/batched execution over a wrapped routing policy.

    ``hold_seconds`` is the longest any query waits in its hold queue;
    ``sla_headroom`` caps the wait at that fraction of the tenant's
    p95 target, so a latency-sensitive tenant's queue releases sooner
    than the global window.  ``shared_fraction`` is how much of each
    *follower*'s demand the shared execution absorbs (``0``: batching
    only saves dispatch events; ``1``: followers ride free).
    ``max_batch`` releases a queue the instant it fills, bounding both
    the shared execution's size and the engine's held state.
    """

    name = "qed"
    batching = True

    def __init__(self, inner: DispatchPolicy | str = "power_aware",
                 hold_seconds: float = 0.5,
                 sla_headroom: float = 0.5,
                 shared_fraction: float = 0.7,
                 max_batch: int = 32,
                 admission_limit_seconds: Optional[float] = None,
                 **inner_kwargs) -> None:
        super().__init__(admission_limit_seconds)
        self.inner = make_policy(inner, **inner_kwargs)
        if self.inner.batching:
            raise ServiceError(
                f"qed cannot wrap {self.inner.name!r}: hold queues do "
                "not nest")
        if not hold_seconds >= 0:
            raise ServiceError(
                "hold window cannot be negative or NaN, got "
                f"hold_seconds={hold_seconds}")
        if not 0 < sla_headroom <= 1.0:
            raise ServiceError(
                f"SLA headroom must lie in (0, 1], got {sla_headroom}")
        if not 0 <= shared_fraction <= 1.0:
            raise ServiceError(
                f"shared fraction must lie in [0, 1], got {shared_fraction}")
        if not max_batch >= 1:
            raise ServiceError(
                f"max batch must be at least 1, got max_batch={max_batch}")
        self.hold_seconds = hold_seconds
        self.sla_headroom = sla_headroom
        self.shared_fraction = shared_fraction
        self.max_batch = int(max_batch)
        self.autoscaled = self.inner.autoscaled
        self.dvfs = self.inner.dvfs
        self.name = f"qed({self.inner.name})"

    # -- routing/admission/DVFS delegate to the wrapped policy --------

    def route(self, ctx: DispatchContext) -> int:
        return self.inner.route(ctx)

    def admits(self, node: FleetNode, now: float) -> bool:
        return super().admits(node, now) and self.inner.admits(node, now)

    def frequency(self, ctx: DispatchContext, i: int) -> float:
        return self.inner.frequency(ctx, i)

    # -- the releases ------------------------------------------------

    def releases(self, cols: StreamColumns) -> StreamColumns:
        """The shared executions of the arrivals in ``cols``, computed
        in one pass before serving.

        The hold queues read arrivals and the clock, never the fleet.
        An open queue is keyed by ``(tenant, service demand)``, and a
        heap orders the open deadlines by ``(deadline, first member)``.
        Before each arrival every queue whose deadline is at or before
        it releases, at its deadline (a deadline that ties an arrival
        releases first), so a batch leaves the instant its latency
        headroom runs out; after the last arrival the rest release the
        same way.  A queue that fills up releases at the filling
        arrival; its heap entry is skipped later because its first
        member no longer matches.

        Each release is one row: its release instant and combined
        demand, its first member's tenant, SLA and batch flag, and its
        ``members``.  The serving pass routes, admits and autoscales
        that row as one execution, so consolidation sees the work the
        policy creates, not the work it absorbed.  With a zero hold
        window every arrival releases alone at its own instant and the
        rows are the arrivals, value for value.
        """
        times, services, slas = cols.lists()
        tenants = cols.tenant_index.tolist()
        hold, headroom = self.hold_seconds, self.sla_headroom
        unshared = 1.0 - self.shared_fraction
        max_batch = self.max_batch
        rec = current_recorder()
        events = None if rec is None else rec.events
        #: (tenant, demand) -> [members, combined demand]
        queues: dict[tuple[int, float], list] = {}
        heap: list[tuple[float, int, tuple[int, float]]] = []
        #: (release instant, combined demand, members) per execution
        rows: list[tuple[float, float, tuple[int, ...]]] = []

        def release_due(upto: float) -> None:
            while heap and heap[0][0] <= upto:
                deadline, first, key = heappop(heap)
                held = queues.get(key)
                if held is None or held[0][0] != first:
                    continue  # that queue filled up and left early
                del queues[key]
                if events is not None:
                    events.append(
                        (deadline, "batch_flush", None, key[0], None,
                         {"first": first, "members": len(held[0]),
                          "reason": "deadline", "combined": held[1]}))
                rows.append((deadline, held[1], tuple(held[0])))

        for k, t in enumerate(times):
            if heap and heap[0][0] <= t:
                release_due(t)
            s = services[k]
            window = hold
            cap = slas[k] * headroom
            if cap < window:
                window = cap
            if window <= 0.0 or max_batch == 1:
                # released alone, at the arrival instant, with the
                # arrival's exact demand: byte-identical to un-batched
                rows.append((t, s, (k,)))
                continue
            tenant = tenants[k]
            key = (tenant, s)
            held = queues.get(key)
            if held is None:
                deadline = t + window
                queues[key] = [[k], s]
                heappush(heap, (deadline, k, key))
                if events is not None:
                    events.append((t, "hold_open", None, tenant, k,
                                   {"deadline": deadline, "window": window,
                                    "service_seconds": s}))
                continue
            held[0].append(k)
            held[1] += s * unshared
            size = len(held[0])
            if events is not None:
                events.append((t, "hold_join", None, tenant, k,
                               {"first": held[0][0], "size": size}))
            if size >= max_batch:
                del queues[key]
                if events is not None:
                    events.append(
                        (t, "batch_flush", None, tenant, None,
                         {"first": held[0][0], "members": size,
                          "reason": "full", "combined": held[1]}))
                rows.append((t, held[1], tuple(held[0])))
        release_due(float("inf"))

        release, demand, members = zip(*rows)
        first = np.fromiter((m[0] for m in members), np.int64, len(rows))
        return StreamColumns(
            times=np.array(release, dtype=np.float64),
            service_seconds=np.array(demand, dtype=np.float64),
            tenant_index=cols.tenant_index[first],
            sla_seconds=cols.sla_seconds[first],
            batch_flags=(None if cols.batch_flags is None
                         else cols.batch_flags[first]),
            members=list(members))

register_policy(QEDPolicy)
