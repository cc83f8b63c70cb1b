#!/usr/bin/env python3
"""The paper's Figure 2, as an interactive example.

Scans five of ORDERS' seven attributes off three flash SSDs on a node
with a 90 W CPU, once uncompressed and once compressed, and shows the
counter-intuitive result: the compressed scan finishes about twice as
fast but consumes considerably MORE energy, because the 90 W CPU
decompressing is much more expensive than the 5 W flash array it
relieves.  Then the design advisor explains which choice each
objective should make on this hardware.
"""

from repro.core.report import format_table
from repro.hardware.profiles import flash_scan_node
from repro.optimizer import DesignAdvisor, Objective
from repro.runner import ExperimentSpec, Runner
from repro.sim import Simulation
from repro.storage.manager import StorageManager
from repro.workloads.tpch_gen import generate_tpch
from repro.workloads.tpch_schema import ORDERS_SCAN_COLUMNS


def main() -> None:
    print("Reproducing Figure 2 (uncompressed vs compressed scan)...\n")
    run = Runner(workers=2, cache=True).run(
        ExperimentSpec("fig2", profile="flash_scan_node"))
    plain, packed = run.reports    # grid order: compressed=False, True
    print(format_table(
        ["config", "total_s", "cpu_s", "io_s", "joules", "ratio"],
        [(name, round(report.total_seconds, 2),
          round(report.cpu_seconds, 2), round(report.io_seconds, 2),
          round(report.energy_joules, 0),
          round(report.compression_ratio, 2))
         for name, report in [("uncompressed", plain),
                              ("compressed", packed)]],
        title="Figure 2 (paper: 10s/3.2s/338J vs 5.5s/5.1s/487J)"))
    speedup = plain.total_seconds / packed.total_seconds
    energy_ratio = packed.energy_joules / plain.energy_joules
    inversion = (packed.total_seconds < plain.total_seconds
                 and packed.energy_joules > plain.energy_joules)
    print(f"\nspeedup from compression : {speedup:.2f}x")
    print(f"energy ratio             : {energy_ratio:.2f}x "
          f"({'MORE' if energy_ratio > 1 else 'less'} energy "
          "despite being faster)")
    print(f"paper's inversion holds  : {inversion}")

    # ask the advisor what each objective would pick on this node
    sim = Simulation()
    server, array = flash_scan_node(sim)
    storage = StorageManager(sim)
    orders = generate_tpch(storage, array, scale_factor=0.002,
                           tables=("orders",))["orders"]
    advisor = DesignAdvisor.for_server(server)
    print("\nDesign advisor on this node (90 W CPU / 5 W flash):")
    for objective in (Objective.TIME, Objective.ENERGY):
        codecs = advisor.choose_codecs(orders, objective=objective)
        picks = {c: codecs[c] for c in ORDERS_SCAN_COLUMNS}
        n_compressed = sum(1 for v in picks.values() if v != "none")
        print(f"  {objective.value:7s}: {n_compressed} of "
              f"{len(ORDERS_SCAN_COLUMNS)} scan columns compressed "
              f"-> {picks}")


if __name__ == "__main__":
    main()
