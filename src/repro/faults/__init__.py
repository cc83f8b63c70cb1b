"""repro.faults: deterministic fault injection & graceful degradation.

The chaos layer of the reproduction: seeded, reproducible fault
schedules (node crashes, thermal throttling, RAID-group disk failures,
dispatch-timeout windows) played against the fleet-serving simulator,
with retry-with-backoff, per-tenant admission shedding, and
break-even-priced emergency boots as the degradation machinery.  The
operator-facing story lives in OPERATIONS.md at the repo root.

Quick start::

    from repro.faults import build_fault_schedule, simulate_faulty_service
    from repro.service import FleetSpec, build_stream

    stream = build_stream(100_000, seed=0)
    fleet = FleetSpec.homogeneous(16)         # or FleetSpec.of(...)
    schedule = build_fault_schedule(fleet=fleet,
                                    horizon_seconds=stream.duration_seconds,
                                    seed=0)
    report = simulate_faulty_service(stream, schedule, fleet=fleet)
    print(report.queries_completed / report.queries_offered,  # availability
          report.faults.crashes)

or, the registered experiments::

    python -m repro.runner run chaos_smoke
    python -m repro.runner run chaos_frontier
"""

from repro.faults.engine import simulate_faulty_service
from repro.faults.experiments import chaos_point
from repro.faults.policies import RetryPolicy, ShedPolicy
from repro.faults.schedule import (FAULT_KINDS, FaultError, FaultEvent,
                                   FaultMix, FaultSchedule,
                                   build_fault_schedule,
                                   degraded_speed_factor)

__all__ = [
    "FAULT_KINDS",
    "FaultError",
    "FaultEvent",
    "FaultMix",
    "FaultSchedule",
    "RetryPolicy",
    "ShedPolicy",
    "build_fault_schedule",
    "chaos_point",
    "degraded_speed_factor",
    "simulate_faulty_service",
]
