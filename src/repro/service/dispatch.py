"""Pluggable routing/admission policies for the cluster dispatcher.

Four built-ins span the energy/latency design space the paper's §4.2
workload-management agenda sketches:

* :class:`RoundRobin` — the oblivious baseline: every node stays on,
  arrivals rotate across the fleet regardless of backlog.
* :class:`LeastLoaded` — join-the-shortest-queue: every node stays on,
  arrivals go to the smallest backlog (the latency-optimal end).
* :class:`PowerAwarePacking` — consolidation in space: arrivals pack
  onto the lowest-indexed node whose backlog is under a bound, so the
  fleet's tail goes cold and the autoscaler can power it off.  On a
  heterogeneous fleet the packable candidates are grouped by marginal
  Joules per unit of work (``(peak - idle) / speed_factor``): the
  cheapest-per-query class wins whenever a node of it can still meet
  the arrival's SLA, which is the 1208.1933 routing rule.  Spill falls
  back to least-loaded among powered-on nodes.
* :class:`CostAware` — the explicit marginal-cost router: every
  arrival goes to the node that will burn the fewest marginal Joules
  for it (:meth:`DispatchContext.marginal_joules`), among nodes whose
  estimated latency fits the arrival's SLA slack.

Routing decisions read a :class:`DispatchContext` — one documented
dataclass — via :meth:`DispatchPolicy.route`, the one routing method
every policy implements.

Beyond routing, a policy may opt into two *execution* hooks (see
POLICIES.md for the author's guide):

* **frequency control** — a policy that sets ``dvfs = True`` is asked
  :meth:`DispatchPolicy.frequency` for every admitted arrival and may
  return a DVFS factor below 1.0; the engine then runs the query
  slower (service time divides by the factor) at a cubically lower
  busy draw.  :class:`~repro.service.pvc.PVCPolicy` is the built-in
  governor.
* **batched admission** — a policy that sets ``batching = True`` holds
  arrivals in queues instead of dispatching them immediately; the
  engine drives its :meth:`DispatchPolicy.offer` /
  :meth:`DispatchPolicy.next_deadline` / :meth:`DispatchPolicy.due` /
  :meth:`DispatchPolicy.flush` protocol and executes the released
  :class:`Batch` objects.  :class:`~repro.service.qed.QEDPolicy` is
  the built-in queued-execution policy.

Admission is a shared knob (``admission_limit_seconds``) that rejects
an arrival when its chosen node's backlog exceeds the limit —
per-tenant rejection counts land in the
:class:`~repro.service.report.ServiceReport`.

Third-party policies register through :func:`register_policy` and are
then addressable by name from :class:`~repro.runner.ExperimentSpec`
knobs, the same extension pattern as
:func:`repro.runner.register_report`.  Factories declare their knobs
through their signatures: :func:`make_policy` rejects unknown
``**policy_kwargs`` with the same one-line :class:`ServiceError` style
as :meth:`repro.runner.registry.ExperimentDef.validate_knobs`.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.service.node import FleetNode
from repro.service.report import ServiceError


@dataclass(frozen=True, slots=True, init=False)
class DispatchContext:
    """Everything a routing decision may read, for one arrival.

    ``nodes`` is the whole fleet (indexable by the returned id) and
    ``on_ids`` the ascending candidate indices the policy may choose
    from.  ``sla_seconds`` is the arriving tenant's p95 target when the
    engine knows it (``None`` when the caller does not), which is what
    lets class-aware policies trade a slower-but-cheaper node against
    the arrival's latency budget.
    """

    nodes: Sequence[FleetNode]
    on_ids: Sequence[int]
    now: float
    service_seconds: float
    #: the arriving tenant's p95 SLA target (None: unknown)
    sla_seconds: Optional[float] = None

    def __init__(self, nodes: Sequence[FleetNode], on_ids: Sequence[int],
                 now: float, service_seconds: float,
                 sla_seconds: Optional[float] = None) -> None:
        # one context is built per routing decision: storing through
        # the slots' own descriptors skips the five object.__setattr__
        # calls a frozen dataclass's generated __init__ makes
        _set_nodes(self, nodes)
        _set_on_ids(self, on_ids)
        _set_now(self, now)
        _set_service_seconds(self, service_seconds)
        _set_sla_seconds(self, sla_seconds)

    def scaled_service_seconds(self, i: int) -> float:
        """This arrival's execution time on node ``i``'s class."""
        return self.service_seconds / self.nodes[i].model.speed_factor

    def estimated_latency_seconds(self, i: int) -> float:
        """Queueing estimate: node ``i``'s backlog plus execution."""
        return self.nodes[i].backlog(self.now) \
            + self.scaled_service_seconds(i)

    def marginal_watts(self, i: int) -> float:
        """Extra draw node ``i`` adds while busy (peak minus idle)."""
        model = self.nodes[i].model
        return model.peak_watts - model.idle_watts

    def marginal_joules(self, i: int) -> float:
        """Marginal energy of running this arrival on node ``i``:
        execution seconds on its class times its marginal watts."""
        return self.marginal_watts(i) * self.scaled_service_seconds(i)

    def marginal_cost_rate(self, i: int) -> float:
        """Marginal Joules per unit of speed-1 work on node ``i`` —
        the class-ranking constant (arrival-independent)."""
        model = self.nodes[i].model
        return (model.peak_watts - model.idle_watts) / model.speed_factor

    def fits_sla(self, i: int, slack_fraction: float = 1.0) -> bool:
        """Whether node ``i``'s estimated latency fits the arrival's
        SLA budget (vacuously true when the SLA is unknown)."""
        if self.sla_seconds is None:
            return True
        return self.estimated_latency_seconds(i) \
            <= self.sla_seconds * slack_fraction


(_set_nodes, _set_on_ids, _set_now, _set_service_seconds,
 _set_sla_seconds) = (DispatchContext.__dict__[name].__set__
                      for name in DispatchContext.__slots__)


@dataclass(frozen=True, slots=True)
class Batch:
    """One released group of held arrivals, executed as shared work.

    ``members`` are arrival indices into the stream (in hold order,
    oldest first); ``release_at`` is the instant the batch leaves its
    hold queue (>= every member's arrival time); ``service_seconds``
    is the *combined* speed-1 demand of the shared execution — the
    first member's full cost plus the unshared remainder of each
    follower.  A batch of one with zero hold is exactly the member's
    original arrival, which is what makes the degenerate
    configuration byte-identical to un-batched dispatch.
    """

    members: tuple[int, ...]
    release_at: float
    service_seconds: float
    #: the members' tenant p95 SLA target (one queue = one tenant)
    sla_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.members:
            raise ServiceError("empty batch")
        if self.service_seconds <= 0:
            raise ServiceError("batch service time must be positive")


class DispatchPolicy:
    """Base routing policy.

    ``autoscaled`` declares whether the policy wants the fleet's
    autoscaler active (packing concentrates load precisely so the
    autoscaler has something to switch off; the all-on baselines do
    not).  ``dvfs`` declares the frequency-control hook
    (:meth:`frequency`) and ``batching`` the queued-admission hook
    (:meth:`offer` and friends); both default off, so plain routing
    policies never pay for them.

    Subclasses implement :meth:`route`, which reads a
    :class:`DispatchContext`.
    """

    name = "base"
    autoscaled = False
    #: True: the engine asks :meth:`frequency` per admitted arrival
    dvfs = False
    #: True: the engine drives the offer/due/flush hold protocol
    batching = False

    def __init__(self,
                 admission_limit_seconds: Optional[float] = None) -> None:
        # knob checks are written `not x > bound` so NaN fails them too
        if admission_limit_seconds is not None \
                and not admission_limit_seconds > 0:
            raise ServiceError(
                "admission limit must be positive, got "
                f"admission_limit_seconds={admission_limit_seconds}")
        self.admission_limit_seconds = admission_limit_seconds

    def route(self, ctx: DispatchContext) -> int:
        """Index (into ``ctx.nodes``) of the node to serve this
        arrival."""
        raise ServiceError(
            f"policy {self.name!r} does not implement route()")

    def admits(self, node: FleetNode, now: float) -> bool:
        """Whether the routed arrival is admitted (else: rejected)."""
        limit = self.admission_limit_seconds
        return limit is None or node.backlog(now) <= limit

    # -- execution hooks (opt-in; see POLICIES.md) --------------------

    def frequency(self, ctx: DispatchContext, i: int) -> float:
        """DVFS factor for the routed execution on node ``i``.

        Only consulted when the policy declares ``dvfs = True``.  A
        factor ``f < 1`` runs the query ``1/f`` times slower at busy
        draw ``idle + (peak - idle) * f**3`` (the cubic dynamic-power
        rule); ``1.0`` is the unthrottled baseline path.
        """
        return 1.0

    def offer(self, k: int, now: float, service_seconds: float,
              tenant: int, sla_seconds: Optional[float]) -> list[Batch]:
        """Admit arrival ``k`` into the policy's hold queues.

        Only consulted when the policy declares ``batching = True``.
        Returns the batches this arrival forces out *right now* (a
        full queue, or a zero hold window); an empty list means the
        arrival is held for a later :meth:`due`/:meth:`flush` release.
        """
        raise ServiceError(
            f"policy {self.name!r} declares batching but implements no "
            "offer()")

    def next_deadline(self) -> float:
        """Earliest instant a held queue must release (``inf``: none
        held).  Only consulted when ``batching = True``."""
        return float("inf")

    def due(self, now: float) -> list[Batch]:
        """Release every queue whose deadline has arrived by ``now``."""
        return []

    def flush(self) -> list[Batch]:
        """End of the stream: release everything still held, each
        batch at its own deadline, ascending."""
        return []


class RoundRobin(DispatchPolicy):
    """Rotate across powered-on nodes, blind to backlog."""

    name = "round_robin"

    def __init__(self,
                 admission_limit_seconds: Optional[float] = None) -> None:
        super().__init__(admission_limit_seconds)
        self._next = 0

    def route(self, ctx: DispatchContext) -> int:
        on_ids = ctx.on_ids
        chosen = on_ids[self._next % len(on_ids)]
        self._next += 1
        return chosen


class LeastLoaded(DispatchPolicy):
    """Join the shortest queue (smallest backlog, ties to the lowest
    index)."""

    name = "least_loaded"

    def route(self, ctx: DispatchContext) -> int:
        nodes = ctx.nodes
        on_ids = ctx.on_ids
        best = on_ids[0]
        best_backlog = nodes[best].busy_until
        for i in on_ids[1:]:
            b = nodes[i].busy_until
            if b < best_backlog:
                best, best_backlog = i, b
        return best


class PowerAwarePacking(DispatchPolicy):
    """Pack load onto the cheapest nodes so the rest can sleep.

    Packable candidates are the powered-on nodes whose backlog is at
    most ``pack_backlog_seconds``.  On a single-class fleet the first
    candidate in index order wins — exactly the classic packing rule.
    On a heterogeneous fleet, candidates are ranked by marginal Joules
    per unit of work (:meth:`DispatchContext.marginal_cost_rate`):
    the cheapest class that can still meet the arrival's SLA takes the
    query (lowest index within the class); if no candidate fits the
    SLA, the cheapest class takes it anyway (the SLA is already lost —
    don't also lose the Joules).  When every node is past the pack
    bound, spills to the least-loaded powered-on node (bounding the
    worst-case wait by the fleet-wide minimum backlog, not by an
    unlucky rotation).

    The per-node cost rates are constants of the node list, so they
    are computed once per list (not per arrival) and cached on the
    policy; a node list must not change its members or their models
    while a policy instance is routing over it.
    """

    name = "power_aware"
    autoscaled = True

    def __init__(self, pack_backlog_seconds: float = 0.2,
                 admission_limit_seconds: Optional[float] = None) -> None:
        super().__init__(admission_limit_seconds)
        if not pack_backlog_seconds >= 0:
            raise ServiceError(
                "pack bound cannot be negative or NaN, got "
                f"pack_backlog_seconds={pack_backlog_seconds}")
        self.pack_backlog_seconds = pack_backlog_seconds
        # (node list, its per-node cost rates, all rates equal); keyed
        # by list identity — holding the list keeps its id from being
        # recycled by a later fleet
        self._rated: tuple = (None, [], True)

    def _rate(self, nodes: Sequence[FleetNode]) -> None:
        """Cache ``nodes``' marginal-cost rates (the same arithmetic as
        :meth:`DispatchContext.marginal_cost_rate`) and whether they
        are all one class."""
        rates = [(m.peak_watts - m.idle_watts) / m.speed_factor
                 for m in (node.model for node in nodes)]
        self._rated = (nodes, rates, all(r == rates[0] for r in rates[1:]))

    def route(self, ctx: DispatchContext) -> int:
        nodes = ctx.nodes
        on_ids = ctx.on_ids
        if self._rated[0] is not nodes:
            self._rate(nodes)
        _, rates, one_class = self._rated
        bound = ctx.now + self.pack_backlog_seconds
        # one scan finds the packable nodes (on a one-class fleet only
        # the first is kept) and the lowest-index least-loaded node to
        # spill to when there are none
        spill = on_ids[0]
        spill_backlog = nodes[spill].busy_until
        packable = []
        for i in on_ids:
            b = nodes[i].busy_until
            if b <= bound:
                if not one_class:
                    packable.append(i)
                elif ctx.fits_sla(i):
                    # the classic packing rule: first packable node in
                    # index order that meets the SLA — stop right here
                    return i
                elif not packable:
                    packable.append(i)
            elif b < spill_backlog:
                spill, spill_backlog = i, b
        if not packable:
            return spill
        if one_class:
            return packable[0]  # nothing fits: first packable anyway
        for rate in sorted({rates[i] for i in packable}):
            for i in packable:
                if rates[i] == rate and ctx.fits_sla(i):
                    return i
        # nothing fits: cheapest class anyway, lowest index within it
        return min(packable, key=rates.__getitem__)


class CostAware(DispatchPolicy):
    """Route each arrival to its cheapest marginal-Joules node.

    The explicit form of the 1208.1933 rule: among powered-on nodes
    whose estimated latency (backlog + execution on that class) fits
    the arrival's SLA times ``sla_slack_fraction``, take the one whose
    marginal Joules for this arrival are lowest (ties to the lowest
    index, which keeps the tail cold for the autoscaler).  When no
    node fits the budget, falls back to the lowest estimated latency.
    """

    name = "cost_aware"
    autoscaled = True

    def __init__(self, sla_slack_fraction: float = 1.0,
                 admission_limit_seconds: Optional[float] = None) -> None:
        super().__init__(admission_limit_seconds)
        if not sla_slack_fraction > 0:
            raise ServiceError(
                "SLA slack fraction must be positive, got "
                f"sla_slack_fraction={sla_slack_fraction}")
        self.sla_slack_fraction = sla_slack_fraction

    def route(self, ctx: DispatchContext) -> int:
        best = -1
        best_cost = float("inf")
        fastest = ctx.on_ids[0]
        fastest_latency = float("inf")
        for i in ctx.on_ids:
            latency = ctx.estimated_latency_seconds(i)
            if latency < fastest_latency:
                fastest, fastest_latency = i, latency
            if ctx.sla_seconds is not None and latency \
                    > ctx.sla_seconds * self.sla_slack_fraction:
                continue
            cost = ctx.marginal_joules(i)
            if cost < best_cost:
                best, best_cost = i, cost
        return best if best >= 0 else fastest


def dispatch_candidates(ctx: DispatchContext, chosen: int) -> dict:
    """The considered-candidate table behind one routing decision.

    One row per powered-on node: ``[index, marginal watts, marginal
    Joules for this arrival, estimated latency, fits-SLA]`` — the same
    quantities the cost-aware and packing routers rank on.  The flight
    recorder emits this (detail mode) so a recording can answer not
    just *where* an arrival went but what the alternatives would have
    cost in Joules and SLA slack.
    """
    return {
        "chosen": chosen,
        "candidates": [
            [i, ctx.marginal_watts(i), ctx.marginal_joules(i),
             ctx.estimated_latency_seconds(i), bool(ctx.fits_sla(i))]
            for i in ctx.on_ids],
    }


#: policy name -> factory, for spec knobs and third-party extension
DISPATCH_POLICIES: dict[str, Callable[..., DispatchPolicy]] = {}


def register_policy(factory: Callable[..., DispatchPolicy],
                    name: Optional[str] = None) -> Callable[..., DispatchPolicy]:
    """Register a policy factory under ``name`` (default: its class
    ``name`` attribute); usable as a decorator."""
    DISPATCH_POLICIES[name or factory.name] = factory
    return factory


for _cls in (RoundRobin, LeastLoaded, PowerAwarePacking):
    register_policy(_cls)
register_policy(CostAware)


def _lookup_policy(policy) -> Callable[..., DispatchPolicy]:
    try:
        return DISPATCH_POLICIES[policy]
    except (KeyError, TypeError):
        known = ", ".join(sorted(DISPATCH_POLICIES))
        raise ServiceError(
            f"unknown dispatch policy {policy!r}; registered: {known}"
        ) from None


def policy_knob_names(policy: str) -> set[str]:
    """Knob names the registered ``policy``'s factory declares in its
    signature — the policy analogue of
    :meth:`repro.runner.registry.ExperimentDef.knob_names`."""
    params = inspect.signature(_lookup_policy(policy)).parameters
    return {p.name for p in params.values()
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)}


def make_policy(policy, **kwargs) -> DispatchPolicy:
    """Resolve a policy name (or pass a ready instance through).

    Factories declare their knobs through their signatures; unknown
    ``kwargs`` are rejected by name, same one-liner style as the
    runner's knob validation.
    """
    if isinstance(policy, DispatchPolicy):
        if kwargs:
            raise ServiceError(
                f"policy {policy.name!r} is already constructed; knob(s) "
                f"{', '.join(map(repr, sorted(kwargs)))} cannot apply")
        return policy
    factory = _lookup_policy(policy)
    params = inspect.signature(factory).parameters
    if not any(p.kind is p.VAR_KEYWORD for p in params.values()):
        valid = policy_knob_names(policy)
        unknown = sorted(set(kwargs) - valid)
        if unknown:
            raise ServiceError(
                f"unknown knob(s) {', '.join(map(repr, unknown))} for "
                f"policy {policy!r}; valid knobs: "
                f"{', '.join(sorted(valid))}")
    return factory(**kwargs)
