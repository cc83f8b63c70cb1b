"""JouleSort: the balanced energy-efficiency benchmark ([RSR+07]).

The paper's authors proposed JouleSort — records sorted per Joule for a
fixed input size — as the system-level energy-efficiency yardstick.
This driver runs an external sort of fixed-size records through the
engine on any simulated server and reports the records/Joule metric,
letting hardware configurations be compared the way [RSR+07] compared
real machines (experiment A14 pits a wimpy flash node against a brawny
disk server).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import WorkloadError
from repro.relational.executor import ExecutionContext, Executor
from repro.relational.operators import Sort, TableScan
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.storage.manager import StorageManager
from repro.units import MIB

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.raid import RaidArray
    from repro.hardware.server import Server
    from repro.sim.engine import Simulation

#: classic sort-benchmark record: 10-byte key + 90-byte payload
RECORD_BYTES = 100


@dataclass
class JouleSortReport:
    """One JouleSort run's outcome."""

    records: int
    elapsed_seconds: float
    energy_joules: float
    spilled: bool
    average_power_watts: float

    @property
    def records_per_joule(self) -> float:
        """The JouleSort metric."""
        if self.energy_joules <= 0:
            return 0.0
        return self.records / self.energy_joules

    @property
    def records_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.records / self.elapsed_seconds


def run_joulesort(sim: "Simulation", server: "Server",
                  placement: "RaidArray",
                  logical_records: int = 10_000_000,
                  memory_grant_bytes: Optional[float] = None
                  ) -> JouleSortReport:
    """Sort ``logical_records`` 100-byte records and meter the machine.

    20,000 rows are materialized and replay-inflated to the logical
    size; ``memory_grant_bytes`` (logical) below the dataset size
    forces an external sort with spills to the placement.
    """
    physical_records = 20_000
    if logical_records < physical_records:
        raise WorkloadError(
            f"need at least {physical_records} logical records")
    scale = logical_records / physical_records
    storage = StorageManager(sim)
    # 10-byte key modeled as int64 + 90-byte payload as fixed varchar
    table = storage.create_table(
        TableSchema("joulesort_input", [
            Column("key", DataType.INT64, nullable=False),
            Column("payload", DataType.VARCHAR, nullable=False),
        ]), layout="row", placement=placement)
    payload = "x" * 86  # 86 + 4-byte length header = 90 bytes
    table.load([(((i * 2654435761) ^ (i >> 3)) % (1 << 62), payload)
                for i in range(physical_records)])
    grant_physical = (memory_grant_bytes / scale
                      if memory_grant_bytes is not None else None)
    plan = Sort(TableScan(table), ["key"],
                memory_grant_bytes=grant_physical,
                spill_placement=placement)
    ctx = ExecutionContext(sim=sim, server=server, scale=scale,
                           chunk_bytes=32 * MIB)
    result = Executor(ctx).run(plan)
    keys = [row[0] for row in result.rows]
    if keys != sorted(keys):
        raise WorkloadError("sort produced unsorted output")
    return JouleSortReport(
        records=logical_records,
        elapsed_seconds=result.elapsed_seconds,
        energy_joules=result.energy_joules,
        spilled=plan.spilled,
        average_power_watts=result.average_power_watts,
    )
