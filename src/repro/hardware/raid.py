"""RAID arrays over disk or SSD models.

The paper's Figure 1 system striped a 256 GB database across 36-204
spindles in RAID 5; repartitioning across fewer disks was "the most
effective means of varying power use".  :class:`RaidArray` stripes
requests across its members, runs the per-member transfers as parallel
simulation processes, and models RAID-5 parity overheads for writes.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Generator, Hashable, Optional, Sequence, Union

from repro.errors import HardwareError
from repro.hardware.disk import HardDisk
from repro.hardware.ssd import FlashSsd
from repro.units import KIB

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation

Member = Union[HardDisk, FlashSsd]


class RaidLevel(enum.Enum):
    """Supported array organizations."""

    RAID0 = "raid0"
    RAID5 = "raid5"


class RaidArray:
    """A striped array of homogeneous members."""

    def __init__(self, sim: "Simulation", members: Sequence[Member],
                 level: RaidLevel = RaidLevel.RAID0,
                 stripe_unit_bytes: int = 256 * KIB,
                 name: str = "raid") -> None:
        if not members:
            raise HardwareError(f"{name}: array needs at least one member")
        if level is RaidLevel.RAID5 and len(members) < 3:
            raise HardwareError(f"{name}: RAID 5 needs at least 3 members")
        if stripe_unit_bytes <= 0:
            raise HardwareError(f"{name}: stripe unit must be positive")
        self.sim = sim
        self.members = list(members)
        self.level = level
        self.stripe_unit_bytes = stripe_unit_bytes
        self.name = name
        #: names of the processes that serve each member's share
        self._member_names = [f"{name}.{m.name}" for m in self.members]

    # -- geometry ------------------------------------------------------------
    @property
    def width(self) -> int:
        """Number of members."""
        return len(self.members)

    def _split(self, nbytes: int) -> list[int]:
        """Partition a request into per-member byte counts.

        Reads (and full-stripe writes) spread evenly across the data
        members; with rotating parity every member carries data, so reads
        use all ``width`` spindles.
        """
        spindles = self.width
        base = nbytes // spindles
        remainder = nbytes - base * spindles
        # Spread the remainder a stripe-unit at a time.
        shares = []
        left = remainder
        for _ in range(spindles):
            extra = min(left, self.stripe_unit_bytes)
            shares.append(base + extra)
            left -= extra
        shares[-1] += left
        return shares

    # -- transfers --------------------------------------------------------
    def read(self, nbytes: int,
             stream: Optional[Hashable] = None) -> Generator:
        """Read ``nbytes`` striped across the array (process)."""
        if nbytes < 0:
            raise HardwareError(f"{self.name}: negative read size")
        if nbytes == 0:
            return
        yield from self._fan_out(self._split(nbytes), stream, is_write=False)

    def write(self, nbytes: int, stream: Optional[Hashable] = None,
              full_stripe: bool = True) -> Generator:
        """Write ``nbytes`` (process).

        RAID 5 charges parity: a full-stripe write adds ``1/(width-1)``
        extra bytes; a small (read-modify-write) write performs the
        classic 2-reads + 2-writes, modeled as a 4x byte amplification on
        the affected members.
        """
        if nbytes < 0:
            raise HardwareError(f"{self.name}: negative write size")
        if nbytes == 0:
            return
        yield from self._fan_out(
            self._split(self._written_bytes(nbytes, full_stripe)), stream,
            is_write=True)

    def _written_bytes(self, nbytes: float, full_stripe: bool = True):
        """Bytes the members write for ``nbytes`` of data (parity in)."""
        if self.level is not RaidLevel.RAID5:
            return nbytes
        return int(round(nbytes * self.width / (self.width - 1)
                         if full_stripe else nbytes * 4))

    def read_batch(self, nbytes: float, n_requests: float) -> Generator:
        """A batch of random reads striped across the array (process).

        Bytes and positioning requests are spread evenly over the
        members, which serve their shares in parallel.
        """
        if nbytes < 0 or n_requests < 0:
            raise HardwareError(f"{self.name}: negative batch read")
        if nbytes == 0 and n_requests == 0:
            return
        children = []
        share_bytes = nbytes / self.width
        share_requests = n_requests / self.width
        for member in self.members:
            children.append(self.sim.spawn(
                member.read_batch(share_bytes, share_requests),
                name=f"{self.name}.{member.name}.batch"))
        yield self.sim.all_of(children)

    # -- service-time arithmetic ---------------------------------------------
    def stream_seconds(self, nbytes: float, chunks: int = 1,
                       is_write: bool = False) -> float:
        """Seconds an idle array takes to serve ``chunks`` back-to-back
        requests of ``nbytes`` from one stream: each waits for its
        slowest member share, and only the first positions the heads."""
        shares = self._split(self._written_bytes(nbytes) if is_write
                             else nbytes)
        served = [(m, s) for m, s in zip(self.members, shares) if s > 0]
        first = max((m.service_seconds(s, False, is_write)
                     for m, s in served), default=0.0)
        rest = max((m.service_seconds(s, True, is_write)
                    for m, s in served), default=0.0)
        return first + (chunks - 1) * rest

    def batch_seconds(self, nbytes: float, n_requests: float) -> float:
        """Seconds an idle array takes to serve :meth:`read_batch`."""
        share_bytes = nbytes / self.width
        share_requests = n_requests / self.width
        return max(member.batch_seconds(share_bytes, share_requests)
                   for member in self.members)

    def _fan_out(self, shares: list[int], stream: Optional[Hashable],
                 is_write: bool) -> Generator:
        spawn = self.sim.spawn
        children = [
            spawn((member.write if is_write else member.read)(share, stream),
                  name)
            for member, name, share in zip(self.members,
                                           self._member_names, shares)
            if share > 0]
        if children:
            yield self.sim.all_of(children)

    # -- power management ---------------------------------------------------
    def spin_down(self) -> Generator:
        """Spin down every rotating member (process)."""
        children = [self.sim.spawn(m.spin_down())
                    for m in self.members if isinstance(m, HardDisk)]
        if children:
            yield self.sim.all_of(children)

    def spin_up(self) -> Generator:
        """Spin up every rotating member (process)."""
        children = [self.sim.spawn(m.spin_up())
                    for m in self.members if isinstance(m, HardDisk)]
        if children:
            yield self.sim.all_of(children)
