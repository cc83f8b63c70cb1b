"""The DES dispatch order, pinned.

Every simulated second and Joule in this repo follows from the order in
which :meth:`Simulation.step` dispatches events: one heap entry per
trigger, timeout and scheduled call, popped in ``(time, seq)`` order.
A faster dispatch path must therefore dispatch the *same* events at the
same times in the same sequence.  The counts and digests below were
recorded from the code as it stood before the dispatch path, the disk
state machine and the row codec were made direct (PR 18's parent), by
logging ``(now, type(event).__name__)`` from an overriding ``step`` —
the one public dispatch point, and the same hook perfbench counts
events through.

The Figure 1 point never spins a disk down, writes, reads in batches or
changes a disk's speed; :func:`test_disk_branches_dispatch_order` walks
those branches on a small RAID 5 array, and pins the devices' power
timelines and counters beside the dispatch order.  Its numbers were
recorded from the code before process resumption, resource grants and
disk transfers were inlined.
"""

import hashlib

import pytest

import repro.workloads.scan_workload as scan_workload
from repro.hardware.cpu import Cpu, CpuSpec
from repro.hardware.disk import DiskSpec, HardDisk
from repro.hardware.profiles import dl785
from repro.hardware.raid import RaidArray, RaidLevel
from repro.sim import Simulation
from repro.storage.manager import StorageManager
from repro.units import KIB, MB
from repro.workloads.throughput import run_throughput
from repro.workloads.tpch_gen import generate_tpch
from repro.workloads.tpch_queries import throughput_mix


class LoggingSimulation(Simulation):
    """Feeds ``(now, event type)`` of every dispatch into a SHA-256."""

    def __init__(self) -> None:
        super().__init__()
        self.dispatched = 0
        self.sequence = hashlib.sha256()

    def step(self) -> None:
        event = self._queue[0][2]
        super().step()
        self.dispatched += 1
        self.sequence.update(
            f"{self.now!r} {type(event).__name__}\n".encode())


def test_figure1_point_dispatch_order():
    """``perfbench/workloads.py::des_fig1`` at 1/20 size, seed 0."""
    divisor = 20
    physical = 0.002 / divisor
    logical = 300.0 / divisor
    sim = LoggingSimulation()
    server, array = dl785(sim, n_disks=66, spindle_groups=12)
    db = generate_tpch(StorageManager(sim), array, scale_factor=physical,
                       seed=0)
    run_throughput(sim, server, throughput_mix(db, parallelism=4),
                   streams=3, queries_per_stream=1,
                   scale=logical / physical)
    assert sim.dispatched == FIG1_EVENTS
    assert sim.sequence.hexdigest() == FIG1_SHA256


@pytest.mark.parametrize("compressed", [True, False],
                         ids=["compressed", "plain"])
def test_scan_dispatch_order(monkeypatch, compressed):
    sims = []

    def logging_simulation():
        sims.append(LoggingSimulation())
        return sims[-1]

    monkeypatch.setattr(scan_workload, "Simulation", logging_simulation)
    scan_workload.run_scan(compressed=compressed, scale_factor=0.0003,
                           seed=0)
    (sim,) = sims
    events, digest = SCAN[compressed]
    assert sim.dispatched == events
    assert sim.sequence.hexdigest() == digest


def test_disk_branches_dispatch_order():
    """Spin-down and spin-up, RAID 5 writes, batched reads, speed
    changes, late waiters and CPU work, on four multi-speed disks."""
    sim = LoggingSimulation()
    disks = [HardDisk(sim, DiskSpec(name=f"d{i}", speed_levels=(1.0, 0.5)))
             for i in range(4)]
    array = RaidArray(sim, disks, level=RaidLevel.RAID5, name="r5")
    cpu = Cpu(sim, CpuSpec())

    def scenario():
        yield from array.read(10 * MB, stream="s")
        yield from array.read(10 * MB, stream="s")
        yield from array.write(3 * MB, stream="w")
        yield from array.write(64 * KIB, full_stripe=False)
        yield from array.read_batch(4 * MB, 200)
        yield from array.spin_down()
        yield sim.timeout(30.0)
        yield from array.read(MB)  # each member spins up to serve it
        yield from disks[1].spin_down()
        yield from disks[1].read_batch(MB, 10)
        yield from array.spin_down()
        yield from disks[0].spin_down()  # already in standby
        yield from array.spin_up()
        yield from disks[0].spin_up()  # already spinning
        yield sim.all_of([sim.spawn(d.set_speed(0.5)) for d in disks])
        yield from disks[0].set_speed(0.5)
        early = sim.spawn(disks[2].read(MB, stream="e"))
        yield sim.all_of([sim.spawn(array.read(8 * MB, stream="a")),
                          sim.spawn(array.read(8 * MB, stream="b")),
                          sim.spawn(cpu.execute(2e9, parallelism=2))])
        yield early  # dispatched long ago: a late waiter
        yield sim.all_of([early, sim.timeout(0.5)])
        yield sim.any_of([sim.timeout(1.0),
                          sim.spawn(disks[3].write(MB))])
        cpu.set_dvfs(0.7)
        yield from cpu.execute(1e9)
        yield sim.all_of([sim.spawn(d.set_speed(1.0)) for d in disks])

    sim.run(until=sim.spawn(scenario()))
    devices = hashlib.sha256()
    for device in (*disks, cpu):
        devices.update(repr((device.name, device.power_series.times,
                             device.power_series.values,
                             device.busy_seconds(),
                             device.energy_joules())).encode())
    for disk in disks:
        devices.update(repr((disk.state, disk.speed_fraction,
                             disk.bytes_read, disk.bytes_written,
                             disk.requests_served, disk.positioning_count,
                             disk.speed_changes)).encode())
    assert sim.dispatched == DISK_EVENTS
    assert sim.sequence.hexdigest() == DISK_SHA256
    assert devices.hexdigest() == DISK_DEVICES_SHA256


FIG1_EVENTS = 18_166
FIG1_SHA256 = \
    "9ac3839fe5f4fecb1744d01c0dd7830277504bef7a70c7ea85ed02a0e177e651"
SCAN = {
    True: (618, "3d7c6c4d4e5856f0edc3bf10310bcb53"
                "b46a4cd3f9bedc924e6f5362c307bac3"),
    False: (1_230, "d730e9eb4cc56fd3d5f654540c355a36"
                   "bb2201ec6ab0cf3fba5382297779ed45"),
}
DISK_EVENTS = 261
DISK_SHA256 = \
    "b22838d2811439eae2f1165fcc2e2e19d4d5c4247bd5551932ec3fb181a7506d"
DISK_DEVICES_SHA256 = \
    "4ed61ea45ac35d2047837009df6fe3b0fb1db69f0759b08a7f17723bc3cd794e"
