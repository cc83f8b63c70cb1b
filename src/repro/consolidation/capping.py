"""Power-capped query admission (paper §2.2 provisioning + §5.2).

Racks "are provisioned to deliver a certain capacity in order to
properly power and cool the servers" — exceeding the provisioned cap is
not an option, so the scheduler must keep the server's *instantaneous*
power under it.  :class:`PowerCappedScheduler` estimates each query's
incremental peak power from the cost model's device usage and delays
admission until the committed power fits the cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import ConsolidationError
from repro.relational.executor import Executor, QueryResult
from repro.relational.operators import Operator
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.optimizer.cost import CostModel

PlanBuilder = Callable[[], Operator]


@dataclass
class CappedRunReport:
    """Outcome of a power-capped batch."""

    cap_watts: float
    completed: int
    makespan_seconds: float
    energy_joules: float
    peak_power_watts: float
    mean_queue_delay_seconds: float
    results: list[QueryResult] = field(default_factory=list)


class PowerCappedScheduler:
    """Admission control keeping committed power under a cap."""

    def __init__(self, executor: Executor, cost_model: "CostModel",
                 cap_watts: float) -> None:
        server = executor.ctx.server
        self.floor_watts = server.idle_power_watts()
        if cap_watts <= self.floor_watts:
            raise ConsolidationError(
                f"cap {cap_watts:.0f} W is below the server's idle floor "
                f"{self.floor_watts:.0f} W")
        self.executor = executor
        self.cost_model = cost_model
        self.cap_watts = cap_watts

    # -- estimation ---------------------------------------------------------
    def incremental_watts(self, plan: Operator) -> float:
        """Peak power a query adds above the idle floor.

        Conservative: the CPU's share for the widest pipeline plus the
        active-idle delta of every storage device the plan touches.
        """
        cpu = self.executor.ctx.server.cpu
        cost = self.cost_model.cost(plan)
        degree = min(max(p.parallelism for p in cost.pipelines),
                     cpu.spec.cores)
        members = {id(member): member for p in cost.pipelines
                   for req in p.io for member in req.array.members}
        return cpu.dynamic_watts(degree) + sum(
            member.active_power_per_unit_watts - member.idle_power_watts
            for member in members.values())

    # -- execution -----------------------------------------------------------
    def run_batch(self, builders: Sequence[PlanBuilder]) -> CappedRunReport:
        """Admit queries as power headroom allows; run to completion."""
        if not builders:
            raise ConsolidationError("empty batch")
        sim = self.executor.ctx.sim
        headroom_total = self.cap_watts - self.floor_watts
        # model power as a discrete resource in watt "slots"
        slot_watts = 1.0
        slots = Resource(sim, capacity=max(1, int(headroom_total)),
                         name="power-cap")
        # FCFS admission lock: grants are multi-slot, so admission must
        # be atomic or two half-admitted queries could deadlock
        admission = Resource(sim, capacity=1, name="admission")
        delays: list[float] = []
        results: list[QueryResult] = []
        start = sim.now
        meter = self.executor.ctx.server.meter

        def admit_and_run(builder: PlanBuilder):
            plan = builder()
            need = max(1, min(slots.capacity,
                              int(self.incremental_watts(plan)
                                  / slot_watts)))
            queued_at = sim.now
            yield admission.acquire()
            grants = []
            try:
                for _ in range(need):
                    request = slots.acquire()
                    yield request
                    grants.append(request)
            finally:
                admission.release()
            delays.append(sim.now - queued_at)
            try:
                result = yield from self.executor.run_process(plan)
                results.append(result)
            finally:
                for _ in grants:
                    slots.release()

        processes = [sim.spawn(admit_and_run(b), name=f"capped-q{i}")
                     for i, b in enumerate(builders)]
        sim.run(until=sim.all_of(processes))
        end = sim.now
        peak = max(
            meter.average_power_watts(t, min(t + 1.0, end))
            for t in _second_marks(start, end))
        return CappedRunReport(
            cap_watts=self.cap_watts,
            completed=len(results),
            makespan_seconds=end - start,
            energy_joules=meter.energy_joules(start, end),
            peak_power_watts=peak,
            mean_queue_delay_seconds=(sum(delays) / len(delays)
                                      if delays else 0.0),
            results=results,
        )


def _second_marks(start: float, end: float):
    """Sampling marks for the peak-power estimate: fine enough to see
    concurrency bursts, bounded at 400 for long runs."""
    if end <= start:
        yield start
        return
    step = max(0.01, (end - start) / 400)
    t = start
    while t < end:
        yield t
        t += step
