"""Runner-facing entry points for the chaos subsystem.

:func:`chaos_point` is one ``chaos_*`` sweep point: one dispatch
policy serving one generated arrival stream while one seeded
:class:`~repro.faults.schedule.FaultSchedule` breaks the fleet.  All
knobs are JSON scalars, so chaos runs cache, sweep, and pool like
every other registered experiment::

    python -m repro.runner run chaos_smoke
    python -m repro.runner run chaos_frontier      # intensity sweep

:func:`chaos_aggregate` folds an intensity sweep into a
:class:`ChaosSweepResult` — the availability-vs-energy frontier the
operator's handbook (OPERATIONS.md) reads chaos reports against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.faults.engine import simulate_faulty_service
from repro.faults.policies import RetryPolicy, ShedPolicy
from repro.faults.schedule import FaultError, FaultMix, build_fault_schedule
from repro.records import Record
from repro.service.experiments import _policy_and_autoscaler
from repro.service.node import NodePowerModel
from repro.service.report import ServiceReport
from repro.service.spec import FleetSpec
from repro.service.workload import build_stream


def chaos_point(policy: str = "power_aware",
                queries: int = 100_000,
                nodes: int = 16,
                profile: str = "commodity",
                intensity: float = 1.0,
                crash_rate_per_node_hour: float = 0.8,
                crash_downtime_seconds: float = 300.0,
                throttle_rate_per_node_hour: float = 0.3,
                throttle_dvfs_fraction: float = 0.7,
                disk_rate_per_node_hour: float = 0.1,
                raid_width: int = 8,
                timeout_rate_per_node_hour: float = 0.2,
                max_attempts: int = 4,
                base_backoff_seconds: float = 0.05,
                timeout_detect_seconds: float = 0.5,
                shed_slack_fraction: Optional[float] = 0.5,
                pack_backlog_seconds: float = 0.2,
                target_utilization: float = 0.55,
                epoch_seconds: float = 30.0,
                min_nodes: int = 2,
                seed: int = 0,
                *,  # late knobs: hashed and keyed only where set
                admission_limit_seconds: Optional[float] = None,
                horizon_slack: float = 1.1) -> ServiceReport:
    """Serve one stream while a seeded fault schedule breaks the fleet.

    The same ``seed`` drives both the arrival stream and the fault
    schedule (each through its own ``SeedSequence`` lanes), so one
    integer reproduces the whole run.  ``shed_slack_fraction=None``
    disables admission shedding; ``intensity`` scales every fault rate
    at once — the ``chaos_frontier`` sweep axis.
    """
    fleet = FleetSpec.homogeneous(nodes,
                                  NodePowerModel.from_server(profile))
    stream = build_stream(queries, seed=seed)
    schedule = build_fault_schedule(
        nodes, stream.duration_seconds * horizon_slack, seed=seed,
        mix=FaultMix(
            crash_rate_per_node_hour=crash_rate_per_node_hour,
            crash_downtime_seconds=crash_downtime_seconds,
            throttle_rate_per_node_hour=throttle_rate_per_node_hour,
            throttle_dvfs_fraction=throttle_dvfs_fraction,
            disk_rate_per_node_hour=disk_rate_per_node_hour,
            raid_width=raid_width,
            timeout_rate_per_node_hour=timeout_rate_per_node_hour,
            intensity=intensity,
        ))
    retry = RetryPolicy(max_attempts=max_attempts,
                        base_backoff_seconds=base_backoff_seconds,
                        timeout_detect_seconds=timeout_detect_seconds)
    shed = (ShedPolicy(slack_fraction=shed_slack_fraction)
            if shed_slack_fraction is not None else None)
    dispatch, autoscaler = _policy_and_autoscaler(policy, fleet, {
        "pack_backlog_seconds": pack_backlog_seconds,
        "admission_limit_seconds": admission_limit_seconds,
    }, epoch_seconds, target_utilization, min_nodes)
    return simulate_faulty_service(
        stream, schedule, fleet=fleet, policy=dispatch,
        autoscaler=autoscaler, retry=retry, shed=shed)


@dataclass
class ChaosSweepResult(Record):
    """A fault-intensity sweep folded into one frontier.

    The chaos analogue of
    :class:`~repro.service.report.ServiceSweepResult`: the axis is the
    fault intensity multiplier, and the reading is the paper's
    energy-vs-availability trade-off measured — how many Joules per
    query the fleet pays, and how much availability it keeps, as the
    failure rate climbs.
    """

    intensities: list[float]
    reports: list[ServiceReport]

    def __post_init__(self) -> None:
        if len(self.intensities) != len(self.reports):
            raise FaultError("one report per intensity, "
                             f"got {len(self.reports)} reports for "
                             f"{len(self.intensities)} intensities")

    def headline(self) -> dict[str, float]:
        """The acceptance numbers at the highest swept intensity."""
        worst = self.reports[-1]
        assert worst.faults is not None
        return {
            "intensity": self.intensities[-1],
            "availability": worst.availability,
            "downtime_fraction": worst.faults.downtime_fraction,
            "queries_lost": float(worst.faults.queries_lost),
            "joules_per_query": worst.joules_per_query,
            "p95_seconds": worst.p95_latency_seconds,
        }

    def rows(self) -> list[tuple]:
        """Frontier rows: intensity, availability, lost, J/query,
        p95, surviving-tenant SLA verdict."""
        out = []
        for x, r in zip(self.intensities, self.reports):
            faults = r.faults
            out.append((
                x, r.availability,
                faults.queries_lost if faults is not None else 0,
                r.joules_per_query, r.p95_latency_seconds,
                "met" if r.surviving_slas_met else "MISSED",
            ))
        return out


def chaos_aggregate(points: Sequence[Any]) -> ChaosSweepResult:
    """Fold finished chaos points into the intensity frontier."""
    ordered = sorted(points, key=lambda p: float(p.knobs["intensity"]))
    return ChaosSweepResult(
        intensities=[float(p.knobs["intensity"]) for p in ordered],
        reports=[p.report for p in ordered])
