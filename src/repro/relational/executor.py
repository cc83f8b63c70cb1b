"""Query execution: evaluate for real, replay for time and energy.

Phase 1 (*evaluate*) runs the operator tree over the stored tuples and
collects per-pipeline costs.  Phase 2 (*replay*) turns each pipeline
into simulation processes:

* one producer per I/O request, streaming chunks from its RAID array;
* one CPU consumer executing the pipeline's cycles chunk by chunk;
* a bounded prefetch window (default 2 chunks) between them.

This reproduces the overlap behaviour Figure 2 depends on: a pipeline
takes ``max(io_time, cpu_time)`` plus one chunk of latency, I/O-bound
scans hide their CPU, and CPU-bound compressed scans hide their I/O.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import ExecutionError
from repro.observe import current_collector
from repro.relational.operators.base import (
    CostCollector,
    CostParameters,
    Operator,
    PipelineCost,
)
from repro.sim.events import Event
from repro.sim.resources import Resource
from repro.units import MIB

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.server import Server
    from repro.sim.engine import Simulation


@dataclass
class ExecutionContext:
    """Everything a query needs to run on a simulated server."""

    sim: "Simulation"
    server: "Server"
    params: CostParameters = field(default_factory=CostParameters)
    #: replay inflation: charge costs as if data were this much larger
    scale: float = 1.0
    #: bytes per replay chunk (of scaled I/O)
    chunk_bytes: float = 4 * MIB
    #: producer lead over the consumer, in chunks
    prefetch_depth: int = 2

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ExecutionError("scale must be positive")
        if self.chunk_bytes <= 0:
            raise ExecutionError("chunk_bytes must be positive")
        if self.prefetch_depth < 1:
            raise ExecutionError("prefetch_depth must be >= 1")


@dataclass
class QueryResult:
    """Rows plus the measured time/energy of the run."""

    rows: list[tuple]
    columns: list[str]
    started_at: float
    finished_at: float
    energy_joules: float
    active_energy_joules: float
    breakdown_joules: dict[str, float]
    pipelines: list[PipelineCost]
    cpu_busy_seconds: float
    io_busy_seconds: float

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def elapsed_seconds(self) -> float:
        return self.finished_at - self.started_at

    @property
    def average_power_watts(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.energy_joules / self.elapsed_seconds

    def energy_efficiency(self, work_done: float = 1.0) -> float:
        """Work per Joule (§2.1); default counts the query as 1 unit."""
        if self.energy_joules <= 0:
            raise ExecutionError("no energy recorded")
        return work_done / self.energy_joules


class Executor:
    """Runs operator trees on a simulated server."""

    def __init__(self, ctx: ExecutionContext) -> None:
        self.ctx = ctx

    # -- public API ---------------------------------------------------------
    def run(self, root: Operator) -> QueryResult:
        """Evaluate and replay a single query to completion."""
        sim = self.ctx.sim
        process = sim.spawn(self.run_process(root), name="query")
        return sim.run(until=process)

    def run_process(self, root: Operator) -> Generator:
        """The query as a simulation process (composable: spawn several
        of these to model concurrent streams sharing the hardware)."""
        collector = CostCollector(params=self.ctx.params,
                                  scale=self.ctx.scale)
        rows = root.execute(collector)
        # name the final (unlabeled) pipeline after the plan root, so
        # telemetry spans read "tablescan" instead of "pipeline0"
        collector.break_pipeline(label=root.name.lower())
        meter = self.ctx.server.meter
        started_at = self.ctx.sim.now
        busy_before = self._busy_snapshot()
        yield from self._replay_all(collector.pipelines, root)
        finished_at = self.ctx.sim.now
        busy_after = self._busy_snapshot()
        active = self._active_energy(busy_before, busy_after)
        cpu_delta = busy_after["cpu"] - busy_before["cpu"]
        io_delta = sum(
            busy_after[k] - busy_before[k] for k in busy_after if k != "cpu")
        return QueryResult(
            rows=rows,
            columns=root.output_columns,
            started_at=started_at,
            finished_at=finished_at,
            energy_joules=meter.energy_joules(started_at, finished_at),
            active_energy_joules=active,
            breakdown_joules=meter.breakdown_joules(started_at, finished_at),
            pipelines=collector.pipelines,
            cpu_busy_seconds=cpu_delta,
            io_busy_seconds=io_delta,
        )

    def _replay_all(self, pipelines: list[PipelineCost],
                    root: Operator) -> Generator:
        """Replay every pipeline, under telemetry spans when captured.

        Spans carry explicit parents: concurrent query processes
        interleave on the event queue, so the open-span *stack* cannot
        be trusted to reflect this query's structure — the parent link
        can.
        """
        telemetry = current_collector()
        if telemetry is None:
            for pipeline in pipelines:
                yield from self._replay_pipeline(pipeline)
            return
        sim = self.ctx.sim
        with telemetry.span(sim, f"query:{root.name.lower()}",
                            root=True) as query:
            for pipeline in pipelines:
                name = pipeline.label or f"pipeline{pipeline.index}"
                with telemetry.span(sim, name, parent=query):
                    yield from self._replay_pipeline(pipeline)

    # -- busy accounting ----------------------------------------------------
    def _busy_snapshot(self) -> dict[str, float]:
        server = self.ctx.server
        snap = {"cpu": server.cpu.busy_seconds()}
        for device in server.storage:
            snap[device.name] = device.busy_seconds()
        return snap

    def _active_energy(self, before: dict[str, float],
                       after: dict[str, float]) -> float:
        """Busy-time x active-power accounting (the paper's Figure 2
        convention: idle components are free)."""
        server = self.ctx.server
        total = (after["cpu"] - before["cpu"]) * \
            server.cpu.active_power_per_unit_watts
        for device in server.storage:
            per_unit = getattr(device, "active_power_per_unit_watts", None)
            if per_unit is not None:
                total += (after[device.name] - before[device.name]) * per_unit
        return total

    # -- pipeline replay ----------------------------------------------------
    def _replay_pipeline(self, pipeline: PipelineCost) -> Generator:
        ctx = self.ctx
        dram = ctx.server.dram
        grant = self._clamped_grant(pipeline.dram_grant_bytes)
        if grant:
            dram.allocate(grant)
        try:
            if not pipeline.io:
                if pipeline.cpu_cycles > 0:
                    yield from ctx.server.cpu.execute(
                        pipeline.cpu_cycles,
                        parallelism=self._parallelism(pipeline))
                return
            yield from self._replay_overlapped(pipeline)
        finally:
            if grant:
                dram.free(grant)

    def _parallelism(self, pipeline: PipelineCost) -> int:
        return min(pipeline.parallelism, self.ctx.server.cpu.spec.cores)

    def _clamped_grant(self, requested: float) -> int:
        dram = self.ctx.server.dram
        available = dram.powered_bytes - dram.allocated_bytes
        return max(0, min(int(requested), available))

    def _replay_overlapped(self, pipeline: PipelineCost) -> Generator:
        """Producers stream chunks; the consumer burns CPU per chunk."""
        ctx = self.ctx
        sim = ctx.sim
        chunk_plans: list[tuple[Any, float, Any, bool, int, float]] = []
        total_chunks = 0
        for req in pipeline.io:
            n = max(1, math.ceil(req.nbytes / ctx.chunk_bytes))
            chunk_plans.append(
                (req.array, req.nbytes / n, req.stream, req.is_write, n,
                 req.n_random_requests / n))
            total_chunks += n
        cpu_per_chunk = pipeline.cpu_cycles / total_chunks
        parallelism = self._parallelism(pipeline)
        slots = Resource(sim, capacity=ctx.prefetch_depth, name="prefetch")
        ready: deque[float] = deque()
        waiter: list[Optional[Event]] = [None]

        def producer(array, chunk_size, stream, is_write, n_chunks,
                     requests_per_chunk):
            for _ in range(n_chunks):
                yield slots.acquire()
                if requests_per_chunk > 0:
                    yield from array.read_batch(chunk_size,
                                                requests_per_chunk)
                elif is_write:
                    yield from array.write(chunk_size, stream=stream)
                else:
                    yield from array.read(chunk_size, stream=stream)
                ready.append(chunk_size)
                if waiter[0] is not None and not waiter[0].triggered:
                    waiter[0].succeed()

        def consumer():
            for _ in range(total_chunks):
                while not ready:
                    waiter[0] = Event(sim)
                    yield waiter[0]
                    waiter[0] = None
                ready.popleft()
                if cpu_per_chunk > 0:
                    yield from ctx.server.cpu.execute(
                        cpu_per_chunk, parallelism=parallelism)
                slots.release()

        producers = [sim.spawn(producer(*plan), name="io-producer")
                     for plan in chunk_plans]
        consumer_proc = sim.spawn(consumer(), name="cpu-consumer")
        yield sim.all_of([*producers, consumer_proc])
