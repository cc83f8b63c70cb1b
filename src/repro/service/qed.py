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

>>> qed = QEDPolicy(hold_seconds=1.0, shared_fraction=0.7, max_batch=4)
>>> qed.name
'qed(power_aware)'
>>> qed.offer(0, 10.0, 0.3, tenant=1, sla_seconds=4.0)    # held
[]
>>> qed.next_deadline()        # 10.0 + min(1.0, 4.0 * 0.5)
11.0
>>> qed.offer(1, 10.4, 0.3, tenant=1, sla_seconds=4.0)    # joins
[]
>>> [batch] = qed.due(11.0)
>>> batch.members, batch.release_at, round(batch.service_seconds, 3)
((0, 1), 11.0, 0.39)
>>> QEDPolicy(hold_seconds=0.0).offer(7, 5.0, 0.05, 0, 2.0)
[Batch(members=(7,), release_at=5.0, service_seconds=0.05, sla_seconds=2.0)]
"""

from __future__ import annotations

from typing import Optional

from repro.observe import current_recorder
from repro.service.dispatch import (Batch, DispatchContext, DispatchPolicy,
                                    make_policy, register_policy)
from repro.service.node import FleetNode
from repro.service.report import ServiceError


class _Hold:
    """One open hold queue: members in arrival order, a release
    deadline pinned by the first member, and the running combined
    (shared) service demand."""

    __slots__ = ("members", "deadline", "service_seconds", "sla_seconds")

    def __init__(self, k: int, deadline: float, service_seconds: float,
                 sla_seconds: Optional[float]) -> None:
        self.members = [k]
        self.deadline = deadline
        self.service_seconds = service_seconds
        self.sla_seconds = sla_seconds

    def to_batch(self, release_at: float) -> Batch:
        return Batch(tuple(self.members), release_at,
                     self.service_seconds, self.sla_seconds)


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
        self._queues: dict[tuple[int, float], _Hold] = {}
        # min(deadline) over _queues, kept as queues open and close:
        # the release pass asks for it once per arrival and per release
        self._next_deadline = float("inf")

    # -- routing/admission/DVFS delegate to the wrapped policy --------

    def route(self, ctx: DispatchContext) -> int:
        return self.inner.route(ctx)

    def admits(self, node: FleetNode, now: float) -> bool:
        return super().admits(node, now) and self.inner.admits(node, now)

    def frequency(self, ctx: DispatchContext, i: int) -> float:
        return self.inner.frequency(ctx, i)

    # -- the hold/release protocol ------------------------------------

    def offer(self, k: int, now: float, service_seconds: float,
              tenant: int, sla_seconds: Optional[float]) -> list[Batch]:
        window = self.hold_seconds
        if sla_seconds is not None:
            cap = sla_seconds * self.sla_headroom
            if cap < window:
                window = cap
        if window <= 0.0 or self.max_batch == 1:
            # degenerate: release alone, at the arrival instant, with
            # the arrival's exact demand — byte-identical to un-batched
            return [Batch((k,), now, service_seconds, sla_seconds)]
        key = (tenant, service_seconds)
        held = self._queues.get(key)
        rec = current_recorder()
        if held is None:
            deadline = now + window
            self._queues[key] = _Hold(k, deadline, service_seconds,
                                      sla_seconds)
            if deadline < self._next_deadline:
                self._next_deadline = deadline
            if rec is not None:
                rec.events.append((now, "hold_open", None, tenant, k,
                                   {"deadline": deadline,
                                    "window": window,
                                    "service_seconds": service_seconds}))
            return []
        held.members.append(k)
        held.service_seconds += \
            service_seconds * (1.0 - self.shared_fraction)
        if rec is not None:
            rec.events.append((now, "hold_join", None, tenant, k,
                               {"first": held.members[0],
                                "size": len(held.members)}))
        if len(held.members) >= self.max_batch:
            del self._queues[key]
            self._recompute_deadline()
            if rec is not None:
                rec.events.append(
                    (now, "batch_flush", None, tenant, None,
                     {"first": held.members[0],
                      "members": len(held.members), "reason": "full",
                      "combined": held.service_seconds}))
            return [held.to_batch(now)]
        return []

    def next_deadline(self) -> float:
        return self._next_deadline

    def _recompute_deadline(self) -> None:
        """Re-derive the earliest open deadline after a queue closes."""
        self._next_deadline = min(
            (held.deadline for held in self._queues.values()),
            default=float("inf"))

    def due(self, now: float) -> list[Batch]:
        ready = sorted(
            (key for key, held in self._queues.items()
             if held.deadline <= now),
            key=lambda key: (self._queues[key].deadline,
                             self._queues[key].members[0]))
        return self._release(ready, "deadline")

    def flush(self) -> list[Batch]:
        ready = sorted(self._queues,
                       key=lambda key: (self._queues[key].deadline,
                                        self._queues[key].members[0]))
        return self._release(ready, "flush")

    def _release(self, ready, reason: str) -> list[Batch]:
        rec = current_recorder()
        out = []
        for key in ready:
            held = self._queues.pop(key)
            if rec is not None:
                rec.events.append(
                    (held.deadline, "batch_flush", None, key[0], None,
                     {"first": held.members[0],
                      "members": len(held.members), "reason": reason,
                      "combined": held.service_seconds}))
            out.append(held.to_batch(held.deadline))
        if out:
            self._recompute_deadline()
        return out


register_policy(QEDPolicy)
