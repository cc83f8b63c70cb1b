"""Runner-facing entry points for the serving subsystem.

:func:`service_point` is the physics of one ``svc_*`` sweep point —
one dispatch policy over one generated arrival stream.  It is
registered in :mod:`repro.runner.registry`, so::

    python -m repro.runner run svc_policies

serves the full 3-policy × 350k-query grid (1.05 M queries) through
the ordinary Runner machinery: process pool, content-addressed cache,
structured events, optional telemetry traces.

:func:`hetero_point` is the heterogeneous-fleet analogue — one named
fleet *composition* (:data:`COMPOSITIONS`) serving one load- and
SLA-scaled stream.  The ``svc_hetero`` composition × load × SLA grid
reproduces the wimpy-vs-beefy crossover of Lang et al. (arXiv
1208.1933): wimpy fleets win Joules-per-query at low utilization on
their lower idle floor, beefy fleets win once utilization (or a
tightened SLA) makes the wimpy marginal cost — watts divided by a
sub-unity speed factor — the dominant term.

:func:`pvc_qed_point` runs the Lang & Patel (arXiv 0909.1767)
mechanism sweep — the ``power_aware`` baseline against the PVC
frequency governor, the QED batcher, and their composition.  The
claim read off the config × SLA-headroom grid: some mechanism config
strictly beats the baseline on Joules/query while every tenant SLA
holds.

``svc_mega`` is :func:`service_point` at fleet scale — 10M+ queries
over 256+ nodes at ``load=30``, tractable because ``engine="auto"``
routes onto the vectorized array-of-events core — and
:func:`mega_calibration_point` races both engines on one stream, proves
their reports byte-identical, and returns a
:class:`MegaCalibrationReport` pricing the speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional

from repro.observe import current_collector, current_recorder
from repro.records import Record
from repro.service.autoscale import Autoscaler
from repro.service.dispatch import (DispatchPolicy, make_policy,
                                    policy_knob_names)
from repro.service.fleet import simulate_service
from repro.service.node import NodePowerModel
from repro.service.report import ServiceError, ServiceReport
from repro.service.spec import FleetSpec
from repro.service.workload import DEFAULT_TENANTS, build_stream

#: named fleet compositions for the ``svc_hetero`` sweep, sized for
#: equal speed-1 capacity (beefy 9.0, wimpy 20 × 0.45 = 9.0, mixed
#: 5 + 9 × 0.45 = 9.05) so the axis compares *composition*, not size
COMPOSITIONS: dict[str, tuple[tuple[str, int], ...]] = {
    "beefy": (("beefy", 9),),
    "wimpy": (("wimpy", 20),),
    "mixed": (("beefy", 5), ("wimpy", 9)),
}


def composition_fleet(composition: str) -> FleetSpec:
    """Resolve a :data:`COMPOSITIONS` name into its :class:`FleetSpec`."""
    try:
        parts = COMPOSITIONS[composition]
    except KeyError:
        raise ServiceError(
            f"unknown composition {composition!r}; known: "
            f"{', '.join(sorted(COMPOSITIONS))}") from None
    return FleetSpec.of(**dict(parts))


def _policy_and_autoscaler(policy, fleet: FleetSpec,
                           knobs: Mapping[str, Any],
                           epoch_seconds: float,
                           target_utilization: float,
                           min_nodes: int):
    """What one sweep point serves with: the dispatch policy — a
    registered name built from just the ``knobs`` its factory declares,
    or a ready instance — and the autoscaler, when the policy wants
    one."""
    if not isinstance(policy, DispatchPolicy):
        accepted = policy_knob_names(policy)
        policy = make_policy(policy, **{k: v for k, v in knobs.items()
                                        if k in accepted})
    autoscaler = Autoscaler(
        fleet.classes[0].model,
        epoch_seconds=epoch_seconds,
        target_utilization=target_utilization,
        min_nodes=min_nodes,
    ) if policy.autoscaled else None
    return policy, autoscaler


def _scaled_tenants(load: float):
    """The :data:`DEFAULT_TENANTS` mix with every arrival rate
    multiplied by ``load`` — the per-tenant SLAs stay untouched, so
    the stream is *denser*, not *tighter*."""
    if load <= 0:
        raise ServiceError("load multiplier must be positive")
    return tuple(replace(t, rate_per_s=t.rate_per_s * load)
                 for t in DEFAULT_TENANTS)


def service_point(policy: str = "power_aware",
                  queries: int = 350_000,
                  nodes: int = 16,
                  profile: str = "commodity",
                  pack_backlog_seconds: float = 0.2,
                  admission_limit_seconds: Optional[float] = None,
                  target_utilization: float = 0.55,
                  epoch_seconds: float = 30.0,
                  min_nodes: int = 2,
                  seed: int = 0,
                  *,  # late knobs: hashed and keyed only where set
                  sla_slack_fraction: float = 1.0,
                  load: float = 1.0,
                  engine: str = "auto") -> Any:
    """Serve one generated multi-tenant stream under one policy.

    The node power curve is calibrated from the named hardware
    ``profile`` (idle/peak watts read off the metered server model), so
    fleet Joules are in the same currency as every single-node
    experiment.  Policy knobs are filtered through
    :func:`~repro.service.dispatch.policy_knob_names`, so each policy
    only sees the knobs its factory declares.

    ``load`` multiplies every tenant's arrival rate (per-tenant SLAs
    stay at their defaults) so a 256-node ``svc_mega`` fleet actually
    has work; that scale is only tractable because ``engine="auto"``
    routes eligible configurations onto the vectorized array-of-events
    core (:mod:`repro.service.engine`).  ``engine="loop"`` forces the
    reference core — same report, reference wall-clock.
    """
    fleet = FleetSpec.homogeneous(nodes,
                                  NodePowerModel.from_server(profile))
    stream = build_stream(queries, tenants=_scaled_tenants(load),
                          seed=seed)
    dispatch, autoscaler = _policy_and_autoscaler(policy, fleet, {
        "pack_backlog_seconds": pack_backlog_seconds,
        "admission_limit_seconds": admission_limit_seconds,
        "sla_slack_fraction": sla_slack_fraction,
    }, epoch_seconds, target_utilization, min_nodes)
    return simulate_service(stream, fleet=fleet, policy=dispatch,
                            autoscaler=autoscaler, engine=engine)


def hetero_point(composition: str = "mixed",
                 policy: str = "power_aware",
                 queries: int = 40_000,
                 load: float = 1.0,
                 sla_scale: float = 1.0,
                 pack_backlog_seconds: float = 0.2,
                 admission_limit_seconds: Optional[float] = None,
                 target_utilization: float = 0.55,
                 epoch_seconds: float = 30.0,
                 min_nodes: int = 2,
                 seed: int = 0,
                 *,  # late knobs: hashed and keyed only where set
                 sla_slack_fraction: float = 1.0) -> Any:
    """Serve one load- and SLA-scaled stream on one named composition.

    ``load`` multiplies every tenant's arrival rate (per-tenant
    ``SeedSequence`` lanes keep the stream *structure* fixed while the
    inter-arrival gaps scale), and ``sla_scale`` multiplies every
    tenant's p95 SLA — the axis that prices wimpy nodes out of
    latency-tight regimes even where their Joules would win.
    """
    if load <= 0:
        raise ServiceError("load multiplier must be positive")
    if sla_scale <= 0:
        raise ServiceError("sla_scale must be positive")
    fleet = composition_fleet(composition)
    tenants = tuple(
        replace(t, rate_per_s=t.rate_per_s * load,
                sla_p95_seconds=t.sla_p95_seconds * sla_scale)
        for t in DEFAULT_TENANTS)
    stream = build_stream(queries, tenants=tenants, seed=seed)
    dispatch, autoscaler = _policy_and_autoscaler(policy, fleet, {
        "pack_backlog_seconds": pack_backlog_seconds,
        "admission_limit_seconds": admission_limit_seconds,
        "sla_slack_fraction": sla_slack_fraction,
    }, epoch_seconds, target_utilization, min_nodes)
    return simulate_service(stream, fleet=fleet, policy=dispatch,
                            autoscaler=autoscaler)


#: the ``svc_pvc_qed`` mechanism axis: the PR-4 baseline, each
#: 0909.1767 mechanism alone, and the stacked composition
PVC_QED_CONFIGS: tuple[str, ...] = ("power_aware", "pvc", "qed",
                                    "pvc_qed")


def _pvc_qed_policy(config: str,
                    sla_headroom: float,
                    hold_seconds: float,
                    shared_fraction: float,
                    max_batch: int,
                    pack_backlog_seconds: float,
                    admission_limit_seconds: Optional[float]):
    """Build one mechanism config over a shared power_aware router."""
    from repro.service.pvc import PVCPolicy
    from repro.service.qed import QEDPolicy
    if config == "power_aware":
        return make_policy("power_aware",
                           pack_backlog_seconds=pack_backlog_seconds,
                           admission_limit_seconds=admission_limit_seconds)
    if config == "pvc":
        return PVCPolicy(sla_headroom=sla_headroom,
                         admission_limit_seconds=admission_limit_seconds,
                         pack_backlog_seconds=pack_backlog_seconds)
    if config == "qed":
        return QEDPolicy(hold_seconds=hold_seconds,
                         sla_headroom=sla_headroom,
                         shared_fraction=shared_fraction,
                         max_batch=max_batch,
                         admission_limit_seconds=admission_limit_seconds,
                         pack_backlog_seconds=pack_backlog_seconds)
    if config == "pvc_qed":
        return QEDPolicy(
            inner=PVCPolicy(sla_headroom=sla_headroom,
                            pack_backlog_seconds=pack_backlog_seconds),
            hold_seconds=hold_seconds,
            sla_headroom=sla_headroom,
            shared_fraction=shared_fraction,
            max_batch=max_batch,
            admission_limit_seconds=admission_limit_seconds)
    raise ServiceError(
        f"unknown pvc_qed config {config!r}; known: "
        f"{', '.join(PVC_QED_CONFIGS)}")


def pvc_qed_point(config: str = "power_aware",
                  queries: int = 40_000,
                  nodes: int = 16,
                  profile: str = "commodity",
                  sla_headroom: float = 0.6,
                  hold_seconds: float = 0.5,
                  shared_fraction: float = 0.7,
                  max_batch: int = 32,
                  pack_backlog_seconds: float = 0.2,
                  admission_limit_seconds: Optional[float] = None,
                  target_utilization: float = 0.55,
                  epoch_seconds: float = 30.0,
                  min_nodes: int = 2,
                  seed: int = 0) -> Any:
    """Serve one stream under one PVC/QED mechanism configuration.

    Every ``config`` routes through the same ``power_aware`` packer on
    the same calibrated homogeneous fleet, so differences are the
    mechanisms', not the router's.  ``sla_headroom`` is the shared
    latency budget both mechanisms spend (the PVC governor's slowdown
    allowance and the QED hold-window cap), which makes it the sweep's
    Pareto knob: small headroom hugs the baseline latency, large
    headroom buys the deepest Joules/query cuts.
    """
    fleet = FleetSpec.homogeneous(nodes,
                                  NodePowerModel.from_server(profile))
    stream = build_stream(queries, seed=seed)
    dispatch, autoscaler = _policy_and_autoscaler(
        _pvc_qed_policy(config, sla_headroom, hold_seconds,
                        shared_fraction, max_batch, pack_backlog_seconds,
                        admission_limit_seconds),
        fleet, {}, epoch_seconds, target_utilization, min_nodes)
    return simulate_service(stream, fleet=fleet, policy=dispatch,
                            autoscaler=autoscaler)


@dataclass
class MegaCalibrationReport(Record):
    """Both engines over one stream: proof of identity, price of each.

    ``loop_seconds`` and ``event_seconds`` are host wall-clock and vary
    run to run; everything else is simulation output and deterministic.
    The constructor refuses ``identical=False`` — a calibration whose
    engines disagree is not a slower data point, it is a broken build,
    and :func:`mega_calibration_point` raises before constructing one.
    """

    policy: str
    queries: int
    nodes: int
    loop_seconds: float
    event_seconds: float
    identical: bool
    makespan_seconds: float
    energy_joules: float
    queries_completed: int
    p95_latency_seconds: float

    def __post_init__(self) -> None:
        if not self.identical:
            raise ServiceError(
                "calibration engines disagree: the event core must be "
                "byte-identical to the reference loop")

    @property
    def speedup(self) -> float:
        """Reference-loop seconds per event-core second (>= 1 is a
        win; the svc_mega acceptance bar is 10x at the 1M point)."""
        return (self.loop_seconds / self.event_seconds
                if self.event_seconds > 0 else float("inf"))

    DERIVED_KEYS = ("speedup",)

    def to_dict(self) -> dict[str, Any]:
        # derived key: the headline ratio rides along for ledger readers
        return {**super().to_dict(), "speedup": self.speedup}


def mega_calibration_point(policy: str = "power_aware",
                           queries: int = 1_000_000,
                           nodes: int = 256,
                           load: float = 30.0,
                           profile: str = "commodity",
                           pack_backlog_seconds: float = 0.2,
                           admission_limit_seconds: Optional[float] = None,
                           target_utilization: float = 0.55,
                           epoch_seconds: float = 30.0,
                           min_nodes: int = 2,
                           seed: int = 0,
                           *,  # late knobs: hashed and keyed only where set
                           sla_slack_fraction: float = 1.0
                           ) -> MegaCalibrationReport:
    """Race the reference loop against the event core on one stream.

    Runs the *same* generated stream through ``engine="loop"`` and
    ``engine="event"`` with independently built policy/autoscaler state,
    times each with :func:`time.perf_counter`, and raises
    :class:`ServiceError` unless the two :class:`ServiceReport` dicts
    are byte-identical.  Wall-clock fields are host-informational (the
    observatory never gates them); the simulation fields carried along
    (makespan, Joules, completions, p95) are deterministic and *are*
    gated, so a ledgered calibration still pins the physics.
    """
    from time import perf_counter

    if current_collector() is not None or current_recorder() is not None:
        raise ServiceError(
            "the engine calibration races engine='event' against "
            "engine='loop' in one point, and a telemetry collector or "
            "flight recorder holds exactly one run: run "
            "svc_mega_calibration without --trace/--record (the "
            "observatory records it with --no-trace)")

    model = NodePowerModel.from_server(profile)
    stream = build_stream(queries, tenants=_scaled_tenants(load),
                          seed=seed)
    knobs = {
        "pack_backlog_seconds": pack_backlog_seconds,
        "admission_limit_seconds": admission_limit_seconds,
        "sla_slack_fraction": sla_slack_fraction,
    }

    def race(engine: str) -> tuple[Any, float]:
        # fresh fleet/policy/autoscaler per engine: routers and
        # autoscalers are stateful, and a shared instance would leak
        # one engine's cursor into the other's run
        fleet = FleetSpec.homogeneous(nodes, model)
        dispatch, autoscaler = _policy_and_autoscaler(
            policy, fleet, knobs, epoch_seconds, target_utilization,
            min_nodes)
        start = perf_counter()
        report = simulate_service(stream, fleet=fleet, policy=dispatch,
                                  autoscaler=autoscaler, engine=engine)
        return report, perf_counter() - start

    loop_report, loop_seconds = race("loop")
    event_report, event_seconds = race("event")
    identical = loop_report.to_dict() == event_report.to_dict()
    if not identical:
        raise ServiceError(
            f"engine calibration diverged for policy {policy!r}: the "
            "event core's report is not byte-identical to the "
            "reference loop's")
    return MegaCalibrationReport(
        policy=policy,
        queries=queries,
        nodes=nodes,
        loop_seconds=loop_seconds,
        event_seconds=event_seconds,
        identical=identical,
        makespan_seconds=loop_report.makespan_seconds,
        energy_joules=loop_report.energy_joules,
        queries_completed=loop_report.queries_completed,
        p95_latency_seconds=loop_report.p95_latency_seconds)
