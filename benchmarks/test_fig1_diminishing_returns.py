"""Figure 1: TPC-H throughput-test time and energy efficiency vs. the
number of disks {36, 66, 108, 204} on the DL785 profile.

Paper's findings this bench must reproduce in shape:
  * performance improves with more disks, with diminishing returns;
  * energy efficiency PEAKS at 66 disks and drops beyond;
  * the most efficient point trades a large performance drop (paper:
    45 %) for an efficiency gain (paper: 14 %).
"""

from conftest import emit, run_once, run_spec

from repro.core.profiler import EnergyProfile, ProfilePoint
from repro.hardware.profiles import FIG1_DISK_COUNTS
from repro.runner import ExperimentSpec


def test_figure1_disk_sweep(benchmark):
    spec = ExperimentSpec("fig1", profile="dl785")
    run = run_once(benchmark, lambda: run_spec(spec))
    profile = EnergyProfile("disks", [
        ProfilePoint(p.knobs["disks"], p.report.makespan_seconds,
                     p.report.energy_joules, p.report.queries_completed)
        for p in run.points])
    most_efficient = profile.best_efficiency().knob_value
    fastest = profile.best_performance().knob_value
    rows = [(p.knobs["disks"], round(p.report.makespan_seconds, 1),
             round(p.report.average_power_watts, 0),
             p.report.energy_efficiency * 1e6) for p in run.points]
    gain, drop = profile.tradeoff()
    emit(benchmark,
         "Figure 1: throughput test vs. number of disks (paper: EE "
         "peaks at 66; +14% EE for -45% perf)",
         ["disks", "time_s", "avg_watts", "queries_per_MJ"], rows,
         most_efficient_disks=most_efficient,
         fastest_disks=fastest,
         efficiency_gain_pct=round(gain * 100, 1),
         performance_drop_pct=round(drop * 100, 1),
         spec_hash=spec.spec_hash()[:12],
         cache_hits=run.cache_hits)

    times = [r.makespan_seconds for r in run.reports]
    # performance improves monotonically with disks...
    assert times == sorted(times, reverse=True)
    # ...with diminishing returns: each doubling helps less
    speedup_36_66 = times[0] / times[1]
    speedup_108_204 = times[2] / times[3]
    assert speedup_108_204 < speedup_36_66
    # the paper's headline: the EE peak is interior, at the 66-disk point
    assert most_efficient == 66
    assert fastest == max(FIG1_DISK_COUNTS)
    # trade-off has the paper's signs and rough magnitudes
    assert 0.05 < gain < 1.0
    assert 0.25 < drop < 0.60
