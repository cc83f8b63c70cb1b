"""A1 (§4.1): energy-aware operator memory grants.

"The same way many of those knobs have been tuned to date to increase
performance, we expect DBAs to use them to improve energy efficiency
... from selecting the degree of parallelization to assigning memory to
operators or temporary space."  And: hash-join-style big memory
footprints "are expensive [operations] from a power perspective".

We sort a large table under two memory grants — unlimited (in-memory
sort holding the whole input in power-hungry FB-DIMM DRAM) and small
(external sort spilling runs to flash) — and score both under TIME and
under busy-time ENERGY.  The objectives disagree: TIME wants the big
grant, ENERGY prefers spilling to the 2 W flash drives over keeping
gigabytes of DRAM hot.
"""

from conftest import emit, run_once

from repro.hardware.cpu import Cpu, CpuSpec
from repro.hardware.memory import Dram, DramSpec
from repro.hardware.raid import RaidArray
from repro.hardware.server import Server
from repro.hardware.ssd import FlashSsd, SsdSpec
from repro.optimizer import CostModel, Objective, score
from repro.relational.operators import Sort, TableScan
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.sim import Simulation
from repro.storage.manager import StorageManager
from repro.units import GB, GHZ, GIB, MB, MIB

GRANTS = [("unlimited", None), ("1 GiB", 1 * GIB), ("256 MiB", 256 * MIB),
          ("64 MiB", 64 * MIB)]


def fbdimm_server(sim):
    """A 2009-flavoured node with power-hungry FB-DIMM memory."""
    cpu = Cpu(sim, CpuSpec(cores=4, frequency_hz=2.4 * GHZ,
                           idle_watts=20.0, peak_watts=80.0))
    dram = Dram(sim, DramSpec(capacity_bytes=16 * GIB,
                              background_watts_per_gib=1.0,
                              allocated_watts_per_gib=9.0,  # FB-DIMM era
                              bandwidth_bytes_per_s=8 * GB,
                              rank_bytes=2 * GIB))
    ssds = [FlashSsd(sim, SsdSpec(name=f"s{i}", capacity_bytes=200 * GB,
                                  read_bandwidth_bytes_per_s=120 * MB,
                                  write_bandwidth_bytes_per_s=100 * MB,
                                  read_watts=2.0, write_watts=2.5,
                                  idle_watts=0.1)) for i in range(2)]
    server = Server(sim, "fbdimm-node", cpu, dram, ssds, base_watts=30.0)
    return server, RaidArray(sim, ssds, name="a0")


def sweep():
    sim = Simulation()
    server, array = fbdimm_server(sim)
    storage = StorageManager(sim)
    table = storage.create_table(
        TableSchema("facts", [
            Column("k", DataType.INT64, nullable=False),
            Column("v", DataType.FLOAT64, nullable=False),
        ]), layout="row", placement=array)
    table.load([((i * 2654435761) % 100_000, float(i))
                for i in range(50_000)])
    model = CostModel(server, scale=2000.0)
    rows = []
    for label, grant in GRANTS:
        plan = Sort(TableScan(table), ["k"],
                    memory_grant_bytes=grant if grant is None
                    else grant / 2000.0,  # grants compare to unscaled bytes
                    spill_placement=array)
        cost = model.cost(plan)
        rows.append({
            "grant": label,
            "seconds": score(cost, Objective.TIME),
            "joules": score(cost, Objective.ENERGY_ATTRIBUTED),
            "spilled": grant is not None,
        })
    return rows


def test_time_and_energy_disagree_on_memory_grant(benchmark):
    rows = run_once(benchmark, sweep)
    emit(benchmark,
         "A1: sort memory grant under TIME vs busy-ENERGY (§4.1)",
         ["grant", "seconds", "joules", "spills"],
         [(r["grant"], round(r["seconds"], 2), round(r["joules"], 1),
           "yes" if r["spilled"] else "no") for r in rows],
         time_pick=min(rows, key=lambda r: r["seconds"])["grant"],
         energy_pick=min(rows, key=lambda r: r["joules"])["grant"])
    by_time = min(rows, key=lambda r: r["seconds"])
    by_energy = min(rows, key=lambda r: r["joules"])
    # TIME wants the in-memory sort; ENERGY prefers spilling to flash
    assert by_time["grant"] == "unlimited"
    assert by_energy["spilled"]
    assert by_time["grant"] != by_energy["grant"]
    # the time objective pays for its choice in Joules, and vice versa
    assert by_energy["seconds"] > by_time["seconds"]
    assert by_time["joules"] > by_energy["joules"]
