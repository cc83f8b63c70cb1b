"""Energy-efficient prefetching (paper §4.2, [PS04]).

"Previous work on energy-efficient prefetching and caching for mobile
computing proposed modifications to the OS to encourage burstiness and
increase the length of idle periods.  A database storage manager could
also incorporate similar techniques, especially since certain table
scans have highly predictable access patterns."

A rate-limited sequential consumer (a throttled ETL, replication feed,
media scan) normally trickles reads, keeping the disk spinning forever.
:class:`BurstPrefetcher` reads ahead in large bursts into a DRAM buffer
and spins the disk down between bursts — trading buffer memory (whose
residency power it charges) for long, deep idle periods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional, Union

from repro.errors import StorageError
from repro.hardware.power import Transition, breakeven_idle_seconds
from repro.observe import current_collector

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.disk import HardDisk
    from repro.hardware.memory import Dram
    from repro.sim.engine import Simulation


@dataclass
class PrefetchStats:
    """What a streaming run did."""

    bursts: int = 0
    bytes_streamed: float = 0.0
    spin_downs: int = 0
    buffer_bytes: float = 0.0


class BurstPrefetcher:
    """Bursty read-ahead with inter-burst spin-down."""

    def __init__(self, sim: "Simulation", disk: "HardDisk",
                 buffer_bytes: float,
                 consume_rate_bytes_per_s: float,
                 dram: Optional["Dram"] = None,
                 spin_down_between: bool = True) -> None:
        if buffer_bytes <= 0:
            raise StorageError("buffer must be positive")
        if consume_rate_bytes_per_s <= 0:
            raise StorageError("consume rate must be positive")
        self.sim = sim
        self.disk = disk
        self.buffer_bytes = buffer_bytes
        self.consume_rate = consume_rate_bytes_per_s
        self.dram = dram
        self.spin_down_between = spin_down_between
        self.stats = PrefetchStats(buffer_bytes=buffer_bytes)

    # -- planning helpers ---------------------------------------------------
    def idle_period_seconds(self) -> float:
        """Idle time one full buffer buys the disk between bursts."""
        fill_seconds = self.buffer_bytes / \
            self.disk.effective_bandwidth_bytes_per_s
        drain_seconds = self.buffer_bytes / self.consume_rate
        return max(0.0, drain_seconds - fill_seconds)

    def spin_down_pays_off(self) -> bool:
        """Does the inter-burst idle period beat the spin break-even?"""
        spec = self.disk.spec
        breakeven = breakeven_idle_seconds(
            spec.idle_watts, spec.standby_watts,
            Transition("idle", "standby", spec.spindown_seconds,
                       spec.spindown_joules),
            Transition("standby", "idle", spec.spinup_seconds,
                       spec.spinup_joules))
        return self.idle_period_seconds() > breakeven

    # -- streaming -----------------------------------------------------------
    def stream(self, total_bytes: float,
               stream_token: str = "prefetch") -> Generator:
        """Serve ``total_bytes`` to the rate-limited consumer (process).

        Double-buffered: the next burst's spin-up and read overlap the
        tail of the current drain, so bursting adds (almost) no
        completion latency over trickling — the consumer never starves
        as long as the drain outlasts the refill lead time.
        """
        if total_bytes < 0:
            raise StorageError("negative stream size")
        if self.dram is not None:
            self.dram.allocate(int(self.buffer_bytes))
        try:
            remaining = total_bytes
            while remaining > 0:
                burst = min(self.buffer_bytes, remaining)
                yield from self.disk.read(int(burst), stream=stream_token)
                self.stats.bursts += 1
                telemetry = current_collector()
                if telemetry is not None:
                    telemetry.count("prefetch.burst")
                remaining -= burst
                self.stats.bytes_streamed += burst
                drain_seconds = burst / self.consume_rate
                if remaining <= 0:
                    yield self.sim.timeout(drain_seconds)
                    break
                # lead time to have the next burst ready before starvation
                next_fill = (min(self.buffer_bytes, remaining)
                             / self.disk.effective_bandwidth_bytes_per_s)
                lead = next_fill
                sleepable = drain_seconds
                if self.spin_down_between and self.spin_down_pays_off():
                    lead += self.disk.spec.spinup_seconds
                    quiet = max(0.0, drain_seconds - lead)
                    yield from self.disk.spin_down()
                    self.stats.spin_downs += 1
                    if telemetry is not None:
                        telemetry.count("prefetch.spin_down")
                    sleepable = quiet
                else:
                    sleepable = max(0.0, drain_seconds - lead)
                yield self.sim.timeout(sleepable)
                # loop re-enters disk.read, which spins up if needed,
                # overlapping the remaining drain
        finally:
            if self.dram is not None:
                self.dram.free(int(self.buffer_bytes))


def trickle_stream(sim: "Simulation", disk: "HardDisk",
                   total_bytes: float,
                   consume_rate_bytes_per_s: float,
                   request_bytes: float = 1 << 20,
                   stream_token: str = "trickle") -> Generator:
    """The baseline: read just-in-time at the consumer's rate (process).

    The disk services a small request every ``request_bytes /
    consume_rate`` seconds and never idles long enough to sleep.
    """
    if total_bytes < 0 or consume_rate_bytes_per_s <= 0:
        raise StorageError("bad trickle parameters")
    remaining = total_bytes
    while remaining > 0:
        piece = min(request_bytes, remaining)
        yield from disk.read(int(piece), stream=stream_token)
        yield sim.timeout(piece / consume_rate_bytes_per_s)
        remaining -= piece
