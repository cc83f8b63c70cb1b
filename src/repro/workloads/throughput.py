"""TPC-H-style throughput test (the Figure 1 driver).

Multiple client streams issue analytic queries concurrently against one
server; the report carries makespan, energy and the efficiency metric
the paper plots (work done per Joule).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.errors import WorkloadError
from repro.records import Record
from repro.relational.executor import ExecutionContext, Executor
from repro.relational.operators import Operator
from repro.relational.operators.base import CostParameters
from repro.units import MB

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.server import Server
    from repro.sim.engine import Simulation

PlanBuilder = Callable[[], Operator]


@dataclass
class ThroughputReport(Record):
    """Outcome of one throughput test."""

    streams: int
    queries_completed: int
    makespan_seconds: float
    energy_joules: float
    breakdown_joules: dict[str, float] = field(default_factory=dict)
    query_seconds: list[float] = field(default_factory=list)

    @property
    def average_power_watts(self) -> float:
        if self.makespan_seconds <= 0:
            return 0.0
        return self.energy_joules / self.makespan_seconds

    @property
    def queries_per_hour(self) -> float:
        if self.makespan_seconds <= 0:
            return 0.0
        return self.queries_completed * 3600.0 / self.makespan_seconds

    @property
    def performance(self) -> float:
        """Queries per second (the paper's 'performance' axis inverse)."""
        if self.makespan_seconds <= 0:
            return 0.0
        return self.queries_completed / self.makespan_seconds

    @property
    def energy_efficiency(self) -> float:
        """Queries per Joule (the paper's Figure 1 right axis)."""
        if self.energy_joules <= 0:
            return 0.0
        return self.queries_completed / self.energy_joules


def run_throughput(sim: "Simulation", server: "Server",
                   mix: Sequence[PlanBuilder],
                   streams: int = 4,
                   queries_per_stream: int = 4,
                   scale: float = 1.0,
                   chunk_bytes: float = 56 * MB,
                   params: Optional[CostParameters] = None
                   ) -> ThroughputReport:
    """Run the throughput test to completion and meter it.

    Each stream cycles through ``mix`` starting at its own offset (the
    TPC-H throughput test permutes query order per stream), so different
    streams hit different tables simultaneously and the disks see
    interleaved access patterns.
    """
    if not mix:
        raise WorkloadError("query mix cannot be empty")
    if streams < 1 or queries_per_stream < 1:
        raise WorkloadError("need at least one stream and one query")
    ctx = ExecutionContext(sim=sim, server=server, scale=scale,
                           chunk_bytes=chunk_bytes,
                           params=params or CostParameters())
    executor = Executor(ctx)
    query_seconds: list[float] = []

    def stream(stream_no: int):
        for k in range(queries_per_stream):
            builder = mix[(stream_no + k) % len(mix)]
            started = sim.now
            yield from executor.run_process(builder())
            query_seconds.append(sim.now - started)

    start = sim.now
    processes = [sim.spawn(stream(i), name=f"stream-{i}")
                 for i in range(streams)]
    sim.run(until=sim.all_of(processes))
    end = sim.now
    return ThroughputReport(
        streams=streams,
        queries_completed=streams * queries_per_stream,
        makespan_seconds=end - start,
        energy_joules=server.meter.energy_joules(start, end),
        breakdown_joules=server.meter.breakdown_joules(start, end),
        query_seconds=query_seconds,
    )
