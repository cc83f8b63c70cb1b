"""Calibration profiles for the paper's experimental systems.

Each factory assembles a :class:`~repro.hardware.server.Server` whose
device constants are pinned to the numbers the paper reports:

* :func:`dl785` — the Figure 1 system: an HP ProLiant DL785 tray with
  8 quad-core Opterons, 64 GB RAM, and 36-204 SCSI 15K-RPM drives in
  RAID 5, where the disk subsystem consumes "more than 50 % of the total
  system power".
* :func:`flash_scan_node` — the Figure 2 system: one CPU at 90 W active
  and three flash SSDs at 5 W aggregate.
* :func:`commodity` — a small generic box for examples and tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hardware.cpu import Cpu, CpuSpec
from repro.hardware.disk import DiskSpec, HardDisk
from repro.hardware.memory import Dram, DramSpec
from repro.hardware.raid import RaidArray, RaidLevel
from repro.hardware.server import Server
from repro.hardware.ssd import FlashSsd, SsdSpec
from repro.units import GB, GHZ, GIB, MB, MIB

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation

# The paper's Figure 2 constants.
FIG2_CPU_ACTIVE_WATTS = 90.0
FIG2_SSD_COUNT = 3
FIG2_SSD_TOTAL_WATTS = 5.0

# The paper's Figure 1 disk-count sweep.
FIG1_DISK_COUNTS = (36, 66, 108, 204)


def dl785_disk_spec(index: int, group_factor: int = 1) -> DiskSpec:
    """One of the DL785's 73 GB 15K-RPM SCSI drives.

    With ``group_factor`` k > 1 the spec represents k physical spindles
    merged into one *representative* simulated spindle: bandwidth, power
    and capacity scale by k while positioning latencies stay per-disk
    (each real spindle still seeks for its share of a striped request),
    so aggregate behaviour is preserved with k-fold fewer simulation
    events.
    """
    return DiskSpec(
        name=f"disk{index:03d}",
        capacity_bytes=73 * GB * group_factor,
        bandwidth_bytes_per_s=90 * MB * group_factor,
        average_seek_seconds=0.0035,
        rpm=15000,
        per_request_overhead_seconds=0.0002,
        active_watts=17.0 * group_factor,
        idle_watts=12.0 * group_factor,
        standby_watts=2.5 * group_factor,
        spinup_seconds=6.0,
        spinup_joules=90.0 * group_factor,
        spindown_seconds=1.5,
        spindown_joules=6.0 * group_factor,
    )


def dl785(sim: "Simulation", n_disks: int = 204,
          spindle_groups: int | None = None) -> tuple[Server, RaidArray]:
    """The Figure 1 server with ``n_disks`` spindles in RAID 5.

    Returns the server and the RAID array its database lives on.
    CPU constants model the 8-socket quad-core Opteron tray as a single
    32-core package; 64 GB of DRAM and a 150 W residual base load round
    out the non-disk power so that at 204 disks the disk subsystem is
    comfortably above half of total power, as the paper reports.

    ``spindle_groups`` simulates the array with that many representative
    spindles (see :func:`dl785_disk_spec`); ``n_disks`` must divide
    evenly into them.
    """
    if spindle_groups is None or spindle_groups >= n_disks:
        group_factor, width = 1, n_disks
    else:
        # largest divisor of n_disks not exceeding the requested groups,
        # so every representative spindle stands for the same disk count
        width = max(d for d in range(1, spindle_groups + 1)
                    if n_disks % d == 0)
        group_factor = n_disks // width
    cpu = Cpu(sim, CpuSpec(
        cores=32, frequency_hz=2.3 * GHZ,
        idle_watts=350.0, peak_watts=700.0))
    dram = Dram(sim, DramSpec(
        capacity_bytes=64 * GIB,
        background_watts_per_gib=0.6, active_extra_watts=8.0,
        bandwidth_bytes_per_s=20 * GB, rank_bytes=8 * GIB))
    disks = [HardDisk(sim, dl785_disk_spec(i, group_factor))
             for i in range(width)]
    server = Server(sim, f"dl785x{n_disks}", cpu, dram, disks,
                    base_watts=150.0)
    array = RaidArray(sim, disks, level=RaidLevel.RAID5,
                      stripe_unit_bytes=256 * 1024, name="msa70")
    return server, array


def flash_scan_ssd_spec(index: int) -> SsdSpec:
    """One of the Figure 2 flash drives.

    Three of them aggregate to 240 MB/s and 5 W active, which makes the
    10-second disk-bound uncompressed scan correspond to 2.4 GB of data —
    the paper's 5-of-7-attribute projection of ORDERS.
    """
    return SsdSpec(
        name=f"ssd{index}",
        capacity_bytes=64 * GB,
        read_bandwidth_bytes_per_s=80 * MB,
        write_bandwidth_bytes_per_s=60 * MB,
        read_watts=FIG2_SSD_TOTAL_WATTS / FIG2_SSD_COUNT,
        write_watts=FIG2_SSD_TOTAL_WATTS / FIG2_SSD_COUNT * 1.3,
        idle_watts=0.05,
    )


def flash_scan_node(sim: "Simulation") -> tuple[Server, RaidArray]:
    """The Figure 2 node: one 90 W CPU core and three flash SSDs.

    Returns the server and the RAID-0 array holding the scanned table.
    """
    cpu = Cpu(sim, CpuSpec(
        cores=1, frequency_hz=2.4 * GHZ,
        idle_watts=30.0, peak_watts=FIG2_CPU_ACTIVE_WATTS,
        dvfs_fractions=(1.0, 0.85, 0.7, 0.55, 0.4)))
    dram = Dram(sim, DramSpec(
        capacity_bytes=4 * GIB,
        background_watts_per_gib=0.5, active_extra_watts=2.0,
        bandwidth_bytes_per_s=10 * GB, rank_bytes=1 * GIB))
    ssds = [FlashSsd(sim, flash_scan_ssd_spec(i))
            for i in range(FIG2_SSD_COUNT)]
    server = Server(sim, "flash-scan-node", cpu, dram, ssds, base_watts=0.0)
    array = RaidArray(sim, ssds, level=RaidLevel.RAID0,
                      stripe_unit_bytes=1 * MIB, name="flash-array")
    return server, array


def commodity(sim: "Simulation",
              n_disks: int = 2) -> tuple[Server, RaidArray]:
    """A small generic server for examples and tests.

    Returns the server and a RAID-0 array over its rotating disks (the
    one SSD is attached but unarrayed, for tiering experiments).
    """
    cpu = Cpu(sim, CpuSpec(
        cores=4, frequency_hz=3.0 * GHZ,
        idle_watts=12.0, peak_watts=65.0))
    dram = Dram(sim, DramSpec(
        capacity_bytes=8 * GIB,
        background_watts_per_gib=0.5, active_extra_watts=3.0,
        bandwidth_bytes_per_s=12 * GB, rank_bytes=2 * GIB))
    disks = [HardDisk(sim, DiskSpec(
        name=f"hdd{i}", capacity_bytes=500 * GB,
        bandwidth_bytes_per_s=120 * MB, average_seek_seconds=0.008,
        rpm=7200, active_watts=8.0, idle_watts=5.0, standby_watts=0.8,
        spinup_seconds=4.0, spinup_joules=40.0,
        spindown_seconds=1.0, spindown_joules=3.0))
        for i in range(n_disks)]
    ssd = FlashSsd(sim, SsdSpec(
        name="nvme0", capacity_bytes=256 * GB,
        read_bandwidth_bytes_per_s=500 * MB,
        write_bandwidth_bytes_per_s=400 * MB,
        read_watts=3.0, write_watts=4.0, idle_watts=0.3))
    server = Server(sim, "commodity", cpu, dram, [*disks, ssd],
                    base_watts=25.0)
    array = RaidArray(sim, disks, level=RaidLevel.RAID0, name="md0")
    return server, array
