"""Runner-facing entry point for the batching scheduler (A3, §4.2).

:func:`batching_point` wraps :func:`~repro.consolidation.scheduler.
run_fifo` / :func:`run_batched` as a registered experiment, so the
FIFO-vs-batching energy/latency trade runs through the spec API::

    python -m repro.runner run batching --window_seconds 60,120,240

Each point returns a :class:`~repro.consolidation.scheduler.
ScheduleReport`, which serializes/caches through the unified report
protocol like every other per-point report.
"""

from __future__ import annotations

from repro.consolidation.scheduler import (ScheduleReport, poisson_arrivals,
                                           run_batched, run_fifo)
from repro.errors import ConsolidationError


def batching_point(policy: str = "batched",
                   window_seconds: float = 120.0,
                   queries: int = 12,
                   rate_per_s: float = 1.0 / 45.0,
                   table_rows: int = 2000,
                   scale: float = 200.0,
                   tail_seconds: float = 300.0,
                   seed: int = 0) -> ScheduleReport:
    """One scheduling-policy run over a sparse Poisson arrival stream.

    Builds the A3 rig — a commodity server whose RAID array can spin
    down, a small row table, full-scan queries — and plays ``queries``
    arrivals at ``rate_per_s`` under ``policy`` (``"fifo"`` or
    ``"batched"``).  Both policies are metered over the same horizon
    (last arrival + ``tail_seconds``), so their Joules compare fairly.
    """
    from repro.hardware.profiles import commodity
    from repro.relational.executor import ExecutionContext, Executor
    from repro.relational.operators import TableScan
    from repro.relational.schema import Column, TableSchema
    from repro.relational.types import DataType
    from repro.sim import Simulation
    from repro.storage.manager import StorageManager

    if policy not in ("fifo", "batched"):
        raise ConsolidationError(
            f"unknown scheduling policy {policy!r}; expected 'fifo' or "
            "'batched'")
    if queries < 1:
        raise ConsolidationError("need at least one query")
    sim = Simulation()
    server, array = commodity(sim)
    storage = StorageManager(sim)
    table = storage.create_table(
        TableSchema("t", [Column("k", DataType.INT64, nullable=False)]),
        layout="row", placement=array)
    table.load([(i,) for i in range(table_rows)])
    executor = Executor(ExecutionContext(sim=sim, server=server,
                                         scale=scale))
    arrivals = poisson_arrivals([lambda: TableScan(table)], queries,
                                rate_per_s=rate_per_s, seed=seed)
    horizon = max(a.at_seconds for a in arrivals) + tail_seconds
    if policy == "fifo":
        return run_fifo(sim, server, executor, arrivals,
                        tail_seconds=horizon - sim.now)
    return run_batched(sim, server, executor, arrivals, array,
                       window_seconds=window_seconds,
                       tail_seconds=horizon - sim.now)
