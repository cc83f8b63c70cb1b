"""Telemetry overhead guard.

Tracing is a runtime opt-in, so the capture machinery must cost almost
nothing: spans snapshot busy-seconds at their endpoints and every hook
on the hot path (meter construction, buffer get/put, WAL flush,
prefetch burst) is a single module-global read when telemetry is off.
This guard simulates the same tiny Figure 1 point with capture off and
on and asserts the traced run stays within 5% of the untraced one.
Each test times its two arms in pairs, alternating which arm runs first
so neither always inherits the other's warm caches or the host's
drift, and judges the median of the per-pair on/off ratios: one slow
pair moves one ratio, not the verdict.  Arms are timed in process CPU
seconds, each after a ``gc.collect()``, so time the host spends on
other processes is not charged to either arm.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable

from repro.runner import get_experiment
from repro.telemetry import capture

#: the tiny Figure 1 settings the integration tests already use
TINY_FIG1 = {
    "disks": 24,
    "streams": 2,
    "queries_per_stream": 1,
    "physical_scale_factor": 0.0005,
    "logical_scale_factor": 1.0,
    "spindle_groups": 6,
}

PAIRS = 15
REPEATS = 5
MAX_OVERHEAD = 0.05


def _simulate_point() -> None:
    get_experiment("fig1").call_point(TINY_FIG1, seed=2009)


def _traced_point() -> None:
    with capture() as collector:
        _simulate_point()
    collector.finalize()


def _paired_overhead(off: Callable[[], object],
                     on: Callable[[], object]) -> tuple[float, float, float]:
    """(median on/off - 1, median off seconds, median on seconds) over
    ``PAIRS`` pairs.  A pair runs the two arms alternately ``REPEATS``
    times, the arm that starts alternating pair by pair, and keeps each
    arm's fastest run: interference from the rest of the host only ever
    slows a run down."""
    off(), on()  # warm imports and caches outside the clock
    ratios, off_times, on_times = [], [], []
    for pair in range(PAIRS):
        seconds = {off: float("inf"), on: float("inf")}
        for _ in range(REPEATS):
            for arm in ((off, on) if pair % 2 == 0 else (on, off)):
                gc.collect()
                started = time.process_time()
                arm()
                seconds[arm] = min(seconds[arm],
                                   time.process_time() - started)
        ratios.append(seconds[on] / seconds[off])
        off_times.append(seconds[off])
        on_times.append(seconds[on])
    return (statistics.median(ratios) - 1.0, statistics.median(off_times),
            statistics.median(on_times))


def test_telemetry_overhead_under_five_percent():
    overhead, off, on = _paired_overhead(_simulate_point, _traced_point)
    print(f"\ntelemetry overhead: off={off:.4f}s on={on:.4f}s "
          f"({overhead:+.2%})")
    assert overhead < MAX_OVERHEAD, (
        f"telemetry capture costs {overhead:.2%} (> {MAX_OVERHEAD:.0%}): "
        f"untraced {off:.4f}s vs traced {on:.4f}s")


def test_observatory_recording_overhead_under_five_percent(tmp_path):
    """Appending a ledger record must stay in the telemetry noise.

    Same paired protocol as above, but both arms run the traced point —
    the measured delta is purely the observatory's record build (metric
    extraction, timeline downsampling) plus the JSONL append."""
    from repro.observatory import Recorder

    recorder = Recorder(tmp_path, suite="overhead")
    defn = get_experiment("fig1")

    def traced():
        with capture() as collector:
            report = defn.call_point(TINY_FIG1, seed=2009)
        return report, collector.finalize()

    ledger = recorder.store.path("overhead")

    def recorded():
        report, trace = traced()
        # every append lands in an empty ledger: appending counts the
        # ledger's lines first, which would slow later pairs
        ledger.unlink(missing_ok=True)
        recorder.record_report("fig1_tiny", report, trace=trace)

    overhead, off, on = _paired_overhead(traced, recorded)
    print(f"\nobservatory overhead: off={off:.4f}s on={on:.4f}s "
          f"({overhead:+.2%})")
    assert overhead < MAX_OVERHEAD, (
        f"observatory recording costs {overhead:.2%} "
        f"(> {MAX_OVERHEAD:.0%}): traced {off:.4f}s vs "
        f"traced+recorded {on:.4f}s")
