#!/usr/bin/env python3
"""Capacity planning for energy efficiency (paper §3.1 + §5.3).

Re-runs the Figure 1 sweep (TPC-H-style throughput test on the DL785
profile with 36..204 disks), locates the diminishing-returns point, and
then applies the TCO model: at what electricity price does adding a
second efficient node beat over-provisioning disks on one node?

This is the slowest example: it simulates four full multi-stream
throughput tests.  The sweep runs through `repro.runner`, so the four
disk counts are simulated on a 4-process pool and memoized in
`.repro-cache/` — the second invocation returns in milliseconds.
"""

from repro.core.metrics import TcoModel
from repro.core.profiler import EnergyProfile, ProfilePoint
from repro.core.report import format_table
from repro.runner import EventPrinter, ExperimentSpec, Runner


def main() -> None:
    print("Sweeping the Figure 1 disk counts (first run takes a "
          "minute; repeats hit the cache)...\n")
    spec = ExperimentSpec("fig1", profile="dl785")
    run = Runner(workers=4, cache=True, on_event=EventPrinter()).run(spec)
    reports = {p.knobs["disks"]: p.report for p in run.points}
    print(format_table(
        ["disks", "time_s", "avg_W", "queries_per_MJ"],
        [(n, round(r.makespan_seconds, 0), round(r.average_power_watts, 0),
          round(r.energy_efficiency * 1e6, 2))
         for n, r in reports.items()],
        title="Figure 1: throughput test vs number of disks"))
    profile = EnergyProfile("disks", [
        ProfilePoint(n, r.makespan_seconds, r.energy_joules,
                     r.queries_completed) for n, r in reports.items()])
    most_efficient = profile.best_efficiency().knob_value
    fastest = profile.best_performance().knob_value
    gain, drop = profile.tradeoff()
    print(f"\nmost efficient point : {most_efficient} disks")
    print(f"fastest point        : {fastest} disks")
    print(f"trade-off            : +{gain * 100:.0f}% efficiency for "
          f"-{drop * 100:.0f}% performance "
          "(paper reported +14% for -45%)")

    # §5.3: when do two efficient nodes beat one over-provisioned node?
    eff = reports[most_efficient]
    fast = reports[fastest]
    chassis, disk = 90_000.0, 350.0
    print("\nTCO: 1x fast node vs 2x efficient nodes")
    rows = []
    for price in (0.05, 0.10, 0.20, 0.40, 0.80):
        single = TcoModel(chassis + fastest * disk,
                          electricity_dollars_per_kwh=price)
        double = TcoModel(2 * (chassis + most_efficient * disk),
                          electricity_dollars_per_kwh=price)
        cost_single = single.cost_per_unit_work(
            fast.average_power_watts, fast.performance)
        cost_double = double.cost_per_unit_work(
            2 * eff.average_power_watts, 2 * eff.performance)
        winner = ("scale-out" if cost_double < cost_single
                  else "single node")
        rows.append((price, round(cost_single, 4), round(cost_double, 4),
                     winner))
    print(format_table(["$/kWh", "single $/query", "scale-out $/query",
                        "winner"], rows))


if __name__ == "__main__":
    main()
