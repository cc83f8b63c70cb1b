"""Flight-recorder overhead guard.

Recording is a runtime opt-in, so the recorder must be close to free
even when it is on: the hot path appends small tuples to per-lane
lists and defers every object build, dict merge, and derived column
to ``finalize()``.  (Off, it is one module-global read per emission
site and unmeasurable — and the closed-form reports are byte-identical
either way, which ``tests/integration/test_flightrec.py`` pins.)

This guard serves the same stream with recording off and on —
finalize included, since operators always pay it — and asserts the
recorded run stays within 5% of the unrecorded one (min-of-N wall
times, interleaved to decorrelate host noise).  Both arms run
``engine="loop"``: a recorder sends ``engine="auto"`` back to the
reference loop, so an "auto" baseline on the event core would measure
the fallback, not the recorder.  Both arms land in ``BENCH_core.json``
as ``host_seconds`` rows (points ``off``/``on``), which the regression
engine records and reports but never gates on — wall clock is not this
repo's claim.
"""

from __future__ import annotations

import time
from functools import cache

from conftest import observatory_recorder
from repro.flightrec import record
from repro.service import (Autoscaler, FleetSpec, NodePowerModel,
                           build_stream, simulate_service)

ROUNDS = 5
MAX_OVERHEAD = 0.05


@cache
def _stream():
    """The svc_smoke point's stream at its own defaults (350k queries:
    more hot-path signal per measured second), built once, off the
    clock."""
    return build_stream(350_000, seed=2009)


def _simulate_point() -> None:
    # the svc_smoke fleet: 16 autoscaled power_aware commodity nodes
    model = NodePowerModel.from_server("commodity")
    simulate_service(
        _stream(), fleet=FleetSpec.homogeneous(16, model),
        policy="power_aware",
        autoscaler=Autoscaler(model, epoch_seconds=30.0,
                              target_utilization=0.55, min_nodes=2),
        engine="loop")


def _recorded_point() -> None:
    with record() as recorder:
        _simulate_point()
    recorder.finalize()


#: re-measure on a miss: shared-host throttling is transient and
#: multiplicative (±5-10% swings), while a real regression shows up
#: in every attempt — so retrying filters noise without hiding cost
ATTEMPTS = 3


def _measure() -> tuple[float, float]:
    """One min-of-N interleaved measurement of both arms."""
    off_times, on_times = [], []
    for n in range(ROUNDS):
        # alternate arm order so monotonic host drift (thermal,
        # cgroup throttling) cannot bias one arm systematically
        arms = [(_simulate_point, off_times),
                (_recorded_point, on_times)]
        for fn, into in (arms if n % 2 == 0 else reversed(arms)):
            started = time.perf_counter()
            fn()
            into.append(time.perf_counter() - started)
    return min(off_times), min(on_times)


def test_flightrec_overhead_under_five_percent():
    _simulate_point()  # warm imports and caches outside the clock
    _recorded_point()
    for attempt in range(ATTEMPTS):
        off, on = _measure()
        overhead = on / off - 1.0
        print(f"\nflightrec overhead[{attempt}]: off={off:.4f}s "
              f"on={on:.4f}s ({overhead:+.2%})")
        if overhead < MAX_OVERHEAD:
            break
    recorder = observatory_recorder()
    if recorder is not None:
        for point, seconds in (("off", off), ("on", on)):
            recorder.store.append(recorder.build(
                "flightrec_overhead", point=point,
                host_seconds=seconds))
    assert overhead < MAX_OVERHEAD, (
        f"flight recording costs {overhead:.2%} (> {MAX_OVERHEAD:.0%}) "
        f"in every one of {ATTEMPTS} attempts: "
        f"unrecorded {off:.4f}s vs recorded {on:.4f}s")
