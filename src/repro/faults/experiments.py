"""Runner-facing entry points for the chaos subsystem.

:func:`chaos_point` is one ``chaos_*`` sweep point: one dispatch
policy serving one generated arrival stream while one seeded
:class:`~repro.faults.schedule.FaultSchedule` breaks the fleet.  All
knobs are JSON scalars, so chaos runs cache, sweep, and pool like
every other registered experiment::

    python -m repro.runner run chaos_smoke
    python -m repro.runner run chaos_frontier      # intensity sweep
"""

from __future__ import annotations

from typing import Optional

from repro.faults.engine import simulate_faulty_service
from repro.faults.policies import RetryPolicy, ShedPolicy
from repro.faults.schedule import FaultMix, build_fault_schedule
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

