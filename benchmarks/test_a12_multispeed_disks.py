"""A12 (§5.3, [ZCT+05]): multi-speed drives under a diurnal load.

"We will also need to anticipate and adapt our algorithms to the
multitude of technologies architects develop ... multi-speed drives,
and so on."  A Hibernator-style governor serves each epoch at the
slowest RPM whose bandwidth covers demand; against an always-full-speed
baseline it saves disk energy with a bounded throughput cost, and
avoids the spin-down cliff (no multi-second spin-ups on the load path).
"""

from conftest import emit, run_once

from repro.consolidation.speed import SpeedGovernor
from repro.hardware.disk import DiskSpec, HardDisk
from repro.sim import Simulation
from repro.units import MB

EPOCH_SECONDS = 600.0
#: demand per epoch as a fraction of full-speed aggregate bandwidth
LOAD_TRACE = [0.05, 0.05, 0.1, 0.3, 0.6, 0.7, 0.6, 0.3, 0.1, 0.05]
N_DISKS = 4


def make_disks(sim):
    return [HardDisk(sim, DiskSpec(
        name=f"d{i}", capacity_bytes=500_000 * MB,
        bandwidth_bytes_per_s=100 * MB,
        average_seek_seconds=0.004, rpm=15000,
        per_request_overhead_seconds=0.0,
        active_watts=17.0, idle_watts=12.0, standby_watts=2.0,
        speed_levels=(1.0, 0.6, 0.4)))
        for i in range(N_DISKS)]


def run_policy(adaptive: bool):
    sim = Simulation()
    disks = make_disks(sim)
    governor = SpeedGovernor(disks) if adaptive else None
    served = [0.0]

    def epoch_driver():
        for demand in LOAD_TRACE:
            epoch_start = sim.now
            if governor is not None:
                yield from governor.apply(demand, EPOCH_SECONDS)
            # each disk streams its share of the epoch's demand
            share = demand * 100 * MB * EPOCH_SECONDS
            readers = [sim.spawn(d.read(int(share), stream=f"epoch-{d.name}"),
                                 name=f"rd-{d.name}")
                       for d in disks]
            yield sim.all_of(readers)
            served[0] += share * N_DISKS
            if sim.now < epoch_start + EPOCH_SECONDS:
                yield sim.timeout(epoch_start + EPOCH_SECONDS - sim.now)

    sim.run(until=sim.spawn(epoch_driver(), name="driver"))
    energy = sum(d.energy_joules() for d in disks)
    changes = sum(d.speed_changes for d in disks)
    return {
        "policy": "adaptive-speed" if adaptive else "full-speed",
        "energy": energy,
        "makespan": sim.now,
        "bytes": served[0],
        "speed_changes": changes,
    }


def test_adaptive_speed_saves_disk_energy(benchmark):
    results = run_once(benchmark, lambda: [run_policy(False),
                                           run_policy(True)])
    emit(benchmark,
         "A12: fixed vs adaptive disk speed over a diurnal trace "
         "([ZCT+05])",
         ["policy", "energy_kJ", "makespan_s", "TB_served",
          "speed_changes"],
         [(r["policy"], round(r["energy"] / 1e3, 1),
           round(r["makespan"], 0), round(r["bytes"] / 1e12, 3),
           r["speed_changes"]) for r in results])
    fixed, adaptive = results
    # same work served
    assert adaptive["bytes"] == fixed["bytes"]
    # adaptive speed saves a meaningful slice of disk energy
    assert adaptive["energy"] < 0.85 * fixed["energy"]
    # the governor actually shifted, and not every epoch (hysteresis)
    assert 0 < adaptive["speed_changes"] < len(LOAD_TRACE) * N_DISKS
    # low-RPM service stretches no epoch past its window by much
    assert adaptive["makespan"] <= fixed["makespan"] * 1.1