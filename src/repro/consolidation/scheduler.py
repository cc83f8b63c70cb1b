"""Batching query scheduler: consolidation in time (paper §4.2).

"We expect to see workload management policies that encourage
identifiable periods of low and high activity — perhaps batching
requests at the cost of increased latency."  :func:`run_fifo` executes
queries as they arrive (the disks never idle long enough to sleep);
:func:`run_batched` holds arrivals for a window, runs them back to back,
and spins the array down between batches — saving energy if the windows
beat the spin-down break-even.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import ConsolidationError
from repro.records import Record
from repro.relational.executor import Executor
from repro.relational.operators import Operator

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.raid import RaidArray
    from repro.hardware.server import Server
    from repro.sim.engine import Simulation

PlanBuilder = Callable[[], Operator]


@dataclass(frozen=True)
class Arrival:
    """One query arrival."""

    at_seconds: float
    builder: PlanBuilder


def poisson_arrivals(mix: Sequence[PlanBuilder], n: int,
                     rate_per_s: float,
                     seed: int | None = None) -> list[Arrival]:
    """Draw ``n`` Poisson arrivals cycling through a query mix.

    ``seed`` defaults to the runner's
    :data:`~repro.runner.spec.DEFAULT_SEED`, so an unseeded stream and
    a default registered experiment point draw the same arrivals.
    """
    if rate_per_s <= 0:
        raise ConsolidationError("arrival rate must be positive")
    if not mix:
        raise ConsolidationError("query mix cannot be empty")
    if seed is None:
        from repro.runner.spec import DEFAULT_SEED
        seed = DEFAULT_SEED
    rng = random.Random(seed)
    out = []
    t = 0.0
    for i in range(n):
        t += rng.expovariate(rate_per_s)
        out.append(Arrival(t, mix[i % len(mix)]))
    return out


@dataclass
class ScheduleReport(Record):
    """Outcome of one scheduling policy run."""

    policy: str
    completed: int
    makespan_seconds: float
    energy_joules: float
    mean_latency_seconds: float
    max_latency_seconds: float
    spin_down_count: int = 0
    latencies: list[float] = field(default_factory=list)

    @property
    def average_power_watts(self) -> float:
        if self.makespan_seconds <= 0:
            raise ConsolidationError("empty run: average power undefined")
        return self.energy_joules / self.makespan_seconds

    @property
    def energy_efficiency(self) -> float:
        """Queries per Joule; empty runs raise, like
        :func:`repro.core.metrics.energy_efficiency`."""
        from repro.core.metrics import energy_efficiency
        return energy_efficiency(float(self.completed), self.energy_joules)


def run_fifo(sim: "Simulation", server: "Server", executor: Executor,
             arrivals: Sequence[Arrival],
             tail_seconds: float = 0.0) -> ScheduleReport:
    """Execute each query as it arrives (queuing on the hardware).

    ``tail_seconds`` extends metering past the last completion (an idle
    tail makes the spin-down comparison fair: both policies are measured
    over the same wall-clock window by passing the same tail).
    """
    latencies: list[float] = []
    start = sim.now
    ordered = sorted(arrivals, key=lambda a: a.at_seconds)
    # FIFO service: a single dispatcher runs queries in arrival order.
    def dispatcher():
        for arrival in ordered:
            if sim.now < arrival.at_seconds:
                yield sim.timeout(arrival.at_seconds - sim.now)
            issued = sim.now
            yield from executor.run_process(arrival.builder())
            latencies.append(sim.now - issued)

    sim.run(until=sim.spawn(dispatcher(), name="fifo-dispatcher"))
    if tail_seconds:
        sim.run(until=sim.now + tail_seconds)
    end = sim.now
    return _report("fifo", sim, server, latencies, start, end, 0)


def run_batched(sim: "Simulation", server: "Server", executor: Executor,
                arrivals: Sequence[Arrival], array: "RaidArray",
                window_seconds: float,
                spin_down_between: bool = True,
                tail_seconds: float = 0.0) -> ScheduleReport:
    """Hold arrivals for up to ``window_seconds``, run them as a batch,
    and optionally spin the array down between batches."""
    if window_seconds <= 0:
        raise ConsolidationError("batch window must be positive")
    latencies: list[float] = []
    spin_downs = 0
    ordered = sorted(arrivals, key=lambda a: a.at_seconds)
    start = sim.now

    def dispatcher():
        nonlocal spin_downs
        i = 0
        while i < len(ordered):
            # sleep until the batch window containing arrival i closes
            window_end = ordered[i].at_seconds + window_seconds
            if sim.now < window_end:
                yield sim.timeout(window_end - sim.now)
            batch = []
            while i < len(ordered) and ordered[i].at_seconds <= sim.now:
                batch.append(ordered[i])
                i += 1
            yield from array.spin_up()
            for arrival in batch:
                yield from executor.run_process(arrival.builder())
                latencies.append(sim.now - arrival.at_seconds)
            if spin_down_between:
                yield from array.spin_down()
                spin_downs += 1

    sim.run(until=sim.spawn(dispatcher(), name="batch-dispatcher"))
    if tail_seconds:
        sim.run(until=sim.now + tail_seconds)
    end = sim.now
    return _report("batched", sim, server, latencies, start, end,
                   spin_downs)


def _report(policy: str, sim: "Simulation", server: "Server",
            latencies: list[float], start: float, end: float,
            spin_downs: int) -> ScheduleReport:
    if not latencies:
        raise ConsolidationError("no queries completed")
    return ScheduleReport(
        policy=policy,
        completed=len(latencies),
        makespan_seconds=end - start,
        energy_joules=server.meter.energy_joules(start, end),
        mean_latency_seconds=sum(latencies) / len(latencies),
        max_latency_seconds=max(latencies),
        spin_down_count=spin_downs,
        latencies=latencies,
    )
