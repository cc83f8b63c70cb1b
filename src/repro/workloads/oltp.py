"""OLTP insert stream for the logging experiment (paper §5.2).

New-order-style transactions arrive as a Poisson process; each burns a
few CPU microseconds and appends a commit record to the WAL.  Sweeping
the WAL's batching factor trades commit latency for fewer, larger log
flushes — and therefore less log-device energy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import WorkloadError
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cpu import Cpu
    from repro.sim.engine import Simulation


@dataclass
class OltpReport:
    """Outcome of one OLTP stream run."""

    transactions: int
    makespan_seconds: float
    mean_commit_latency_seconds: float
    p99_commit_latency_seconds: float
    log_flushes: int
    log_bytes_flushed: int
    log_device_energy_joules: float
    latencies: list[float] = field(default_factory=list)

    @property
    def joules_per_transaction(self) -> float:
        if self.transactions == 0:
            return 0.0
        return self.log_device_energy_joules / self.transactions


def run_oltp_stream(sim: "Simulation", cpu: "Cpu", wal: WriteAheadLog,
                    n_transactions: int = 500,
                    arrival_rate_per_s: float = 1000.0) -> OltpReport:
    """Drive transactions through CPU + WAL and meter the log device:
    each spends 40,000 CPU cycles and appends a 160-byte log record."""
    if n_transactions < 1:
        raise WorkloadError("need at least one transaction")
    if arrival_rate_per_s <= 0:
        raise WorkloadError("arrival rate must be positive")
    rng = random.Random(7)
    latencies: list[float] = []
    device = wal.device
    energy_start = device.energy_joules(0.0, sim.now)
    flushes_start = wal.stats.flushes
    bytes_start = wal.stats.bytes_flushed
    start = sim.now

    def transaction():
        began = sim.now
        yield from cpu.execute(40_000.0)
        yield wal.append(160)
        latencies.append(sim.now - began)

    def open_loop_driver():
        for _ in range(n_transactions):
            yield sim.timeout(rng.expovariate(arrival_rate_per_s))
            sim.spawn(transaction(), name="txn")

    driver = sim.spawn(open_loop_driver(), name="oltp-driver")
    sim.run(until=driver)
    sim.run()  # drain in-flight transactions and final flushes
    end = sim.now
    ordered = sorted(latencies)
    p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
    return OltpReport(
        transactions=len(latencies),
        makespan_seconds=end - start,
        mean_commit_latency_seconds=sum(latencies) / len(latencies),
        p99_commit_latency_seconds=p99,
        log_flushes=wal.stats.flushes - flushes_start,
        log_bytes_flushed=wal.stats.bytes_flushed - bytes_start,
        log_device_energy_joules=device.energy_joules(0.0, end)
        - energy_start,
        latencies=latencies,
    )
