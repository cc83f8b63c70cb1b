"""A9 (§5.1): physical design for energy.

"Techniques that reduce disk bandwidth requirements, such as
column-oriented storage and compression, will need to be re-evaluated
for their ability to reduce overall energy use."  The design advisor
prices codecs on two different boxes:

* the Figure 2 flash node (90 W CPU vs 5 W storage): compression is a
  TIME win but an ENERGY loss — the advisor must skip it under energy;
* a wimpy-CPU disk box (low-power CPU, hungry spindles): compression
  saves both time and energy — the advisor must keep it.
"""

from conftest import emit, run_once

from repro.hardware.cpu import Cpu, CpuSpec
from repro.hardware.disk import DiskSpec, HardDisk
from repro.hardware.memory import Dram, DramSpec
from repro.hardware.profiles import flash_scan_node
from repro.hardware.server import Server
from repro.optimizer import DesignAdvisor, Objective
from repro.sim import Simulation
from repro.storage.manager import StorageManager
from repro.units import GB, GHZ, GIB, MB
from repro.workloads.tpch_gen import generate_tpch
from repro.workloads.tpch_schema import ORDERS_SCAN_COLUMNS


def wimpy_disk_node(sim):
    """Low-power CPU in front of power-hungry spindles."""
    cpu = Cpu(sim, CpuSpec(cores=2, frequency_hz=1.6 * GHZ,
                           idle_watts=3.0, peak_watts=12.0))
    dram = Dram(sim, DramSpec(capacity_bytes=4 * GIB))
    disks = [HardDisk(sim, DiskSpec(
        name=f"d{i}", capacity_bytes=500 * GB,
        bandwidth_bytes_per_s=70 * MB, rpm=7200,
        average_seek_seconds=0.008, active_watts=13.0, idle_watts=9.0,
        standby_watts=1.0)) for i in range(2)]
    return Server(sim, "wimpy", cpu, dram, disks, base_watts=5.0)


def orders_table():
    sim = Simulation()
    _server, array = flash_scan_node(sim)
    storage = StorageManager(sim)
    db = generate_tpch(storage, array, scale_factor=0.002,
                       tables=("orders",))
    return db["orders"]


def advise():
    orders = orders_table()
    sim = Simulation()
    flash_server, _ = flash_scan_node(sim)
    flash = DesignAdvisor.for_server(flash_server)
    wimpy = DesignAdvisor.for_server(wimpy_disk_node(Simulation()))
    out = {}
    for name, advisor in (("flash+90W-cpu", flash),
                          ("disks+wimpy-cpu", wimpy)):
        out[name] = {
            "time": advisor.choose_codecs(orders, objective=Objective.TIME),
            "energy": advisor.choose_codecs(orders,
                                            objective=Objective.ENERGY),
        }
    return out


def compressed_count(codecs):
    return sum(1 for c in ORDERS_SCAN_COLUMNS if codecs[c] != "none")


def test_energy_design_depends_on_power_balance(benchmark):
    advice = run_once(benchmark, advise)
    rows = []
    for node, per_objective in advice.items():
        for objective, codecs in per_objective.items():
            rows.append((node, objective,
                         compressed_count(codecs),
                         ", ".join(f"{c.split('_')[1]}:{codecs[c]}"
                                   for c in ORDERS_SCAN_COLUMNS)))
    emit(benchmark,
         "A9: codec advice per node and objective (§5.1)",
         ["node", "objective", "compressed_cols", "codecs"], rows)
    flash = advice["flash+90W-cpu"]
    wimpy = advice["disks+wimpy-cpu"]
    # On the Figure 2 node, TIME wants compression, ENERGY avoids it:
    assert compressed_count(flash["time"]) >= 3
    assert compressed_count(flash["energy"]) < \
        compressed_count(flash["time"])
    # On the wimpy-CPU disk box, compression pays under BOTH objectives:
    assert compressed_count(wimpy["energy"]) >= 3
    assert compressed_count(wimpy["energy"]) >= \
        compressed_count(flash["energy"])
