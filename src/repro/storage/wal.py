"""Write-ahead log with group commit.

§5.2: "it may make sense to increase the batching factor (and increase
response time) to avoid frequent commits on stable storage."  The log's
``batch_records`` and ``batch_timeout_seconds`` knobs are exactly that
batching factor; experiment A7 sweeps them and measures the energy /
response-time trade-off on the log device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

from repro.errors import WalError
from repro.observe import current_collector
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.disk import HardDisk
    from repro.hardware.ssd import FlashSsd
    from repro.sim.engine import Simulation

LogDevice = Union["HardDisk", "FlashSsd"]

#: fixed header written with every log record
RECORD_OVERHEAD_BYTES = 24
#: sector alignment padding charged per physical flush
FLUSH_OVERHEAD_BYTES = 512


@dataclass
class WalStats:
    """Aggregate log activity."""

    records_appended: int = 0
    flushes: int = 0
    bytes_flushed: int = 0
    commit_latencies: list[float] = field(default_factory=list)


class WriteAheadLog:
    """Group-committing WAL on a simulated device."""

    def __init__(self, sim: "Simulation", device: LogDevice,
                 batch_records: int = 1,
                 batch_timeout_seconds: float = 0.0) -> None:
        if batch_records < 1:
            raise WalError("batch_records must be >= 1")
        if batch_timeout_seconds < 0:
            raise WalError("batch timeout cannot be negative")
        self.sim = sim
        self.device = device
        self.batch_records = batch_records
        self.batch_timeout_seconds = batch_timeout_seconds
        self.stats = WalStats()
        self._queue: list[tuple[int, Event, float]] = []
        self._arrival: Event | None = None
        self._batch_full: Event | None = None
        sim.spawn(self._flusher(), name="wal-flusher")

    # -- client API -----------------------------------------------------------
    def append(self, payload_bytes: int) -> Event:
        """Queue a log record; the returned event fires at commit (flush).

        ``payload_bytes`` is the record body size; header overhead is
        added automatically.
        """
        if payload_bytes < 0:
            raise WalError("negative record size")
        ack = Event(self.sim)
        size = payload_bytes + RECORD_OVERHEAD_BYTES
        self._queue.append((size, ack, self.sim.now))
        self.stats.records_appended += 1
        if self._arrival is not None and not self._arrival.triggered:
            self._arrival.succeed()
        if (self._batch_full is not None and not self._batch_full.triggered
                and len(self._queue) >= self.batch_records):
            self._batch_full.succeed()
        return ack

    # -- flusher daemon ---------------------------------------------------------
    def _flusher(self):
        while True:
            if not self._queue:
                self._arrival = Event(self.sim)
                yield self._arrival
                self._arrival = None
            if (len(self._queue) < self.batch_records
                    and self.batch_timeout_seconds > 0):
                self._batch_full = Event(self.sim)
                deadline = self.sim.timeout(self.batch_timeout_seconds)
                yield self.sim.any_of([deadline, self._batch_full])
                self._batch_full = None
            batch = self._queue[:self.batch_records]
            self._queue = self._queue[self.batch_records:]
            nbytes = FLUSH_OVERHEAD_BYTES + sum(size for size, _, _ in batch)
            yield from self.device.write(nbytes, stream="wal")
            now = self.sim.now
            self.stats.flushes += 1
            self.stats.bytes_flushed += nbytes
            telemetry = current_collector()
            if telemetry is not None:
                telemetry.count("wal.flush")
                telemetry.count("wal.bytes_flushed", nbytes)
            for _size, ack, enqueued_at in batch:
                self.stats.commit_latencies.append(now - enqueued_at)
                ack.succeed(now)
