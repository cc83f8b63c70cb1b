"""A14 (§2.3, [RSR+07]): JouleSort — records sorted per Joule.

The paper's authors built JouleSort to show that the most energy-
efficient sorting machine is NOT the fastest one: the 2007 winner was a
laptop-class CPU with many flash/laptop drives, not a server.  We sort
the same logical input on three simulated machines and rank them by
records/Joule; the wimpy flash node must win the efficiency crown while
the brawny server wins raw speed.
"""

from conftest import emit, run_once

from repro.hardware.cpu import Cpu, CpuSpec
from repro.hardware.memory import Dram, DramSpec
from repro.hardware.profiles import commodity, dl785
from repro.hardware.raid import RaidArray
from repro.hardware.server import Server
from repro.hardware.ssd import FlashSsd, SsdSpec
from repro.sim import Simulation
from repro.units import GB, GHZ, GIB, MB
from repro.workloads.joulesort import run_joulesort

LOGICAL_RECORDS = 40_000_000  # a 4 GB sort


def wimpy_flash_node(sim):
    """Laptop-class CPU + several flash drives (the JouleSort winner's
    recipe)."""
    cpu = Cpu(sim, CpuSpec(cores=2, frequency_hz=1.8 * GHZ,
                           idle_watts=4.0, peak_watts=18.0,
                           cstate_watts=0.5))
    dram = Dram(sim, DramSpec(capacity_bytes=4 * GIB,
                              background_watts_per_gib=0.4,
                              bandwidth_bytes_per_s=6 * GB,
                              rank_bytes=1 * GIB))
    ssds = [FlashSsd(sim, SsdSpec(name=f"f{i}", capacity_bytes=64 * GB,
                                  read_bandwidth_bytes_per_s=90 * MB,
                                  write_bandwidth_bytes_per_s=70 * MB,
                                  read_watts=1.2, write_watts=1.6,
                                  idle_watts=0.05)) for i in range(4)]
    server = Server(sim, "wimpy-flash", cpu, dram, ssds, base_watts=6.0)
    return server, RaidArray(sim, ssds, name="flash4")


def contenders():
    out = {}
    sim = Simulation()
    server, array = wimpy_flash_node(sim)
    out["wimpy-flash"] = (sim, server, array)
    sim = Simulation()
    server, array = commodity(sim)
    out["commodity"] = (sim, server, array)
    sim = Simulation()
    server, array = dl785(sim, n_disks=48, spindle_groups=12)
    out["dl785-48disk"] = (sim, server, array)
    return out


def sweep():
    results = {}
    for name, (sim, server, array) in contenders().items():
        results[name] = run_joulesort(
            sim, server, array, logical_records=LOGICAL_RECORDS)
    return results


def test_efficiency_crown_goes_to_the_wimpy_node(benchmark):
    results = run_once(benchmark, sweep)
    emit(benchmark,
         "A14: JouleSort, 40M records (x100B) per machine ([RSR+07])",
         ["machine", "seconds", "avg_W", "records_per_J", "krec_per_s"],
         [(name, round(r.elapsed_seconds, 1),
           round(r.average_power_watts, 0),
           round(r.records_per_joule, 0),
           round(r.records_per_second / 1e3, 0))
          for name, r in results.items()])
    wimpy = results["wimpy-flash"]
    brawny = results["dl785-48disk"]
    middle = results["commodity"]
    # the big server sorts fastest...
    assert brawny.records_per_second == max(
        r.records_per_second for r in results.values())
    # ...but the wimpy flash node wins records/Joule, by a wide margin
    assert wimpy.records_per_joule == max(
        r.records_per_joule for r in results.values())
    assert wimpy.records_per_joule > 5 * brawny.records_per_joule
    # and the commodity box lands between them on efficiency
    assert brawny.records_per_joule < middle.records_per_joule \
        < wimpy.records_per_joule