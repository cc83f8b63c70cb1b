"""Flight-recorder guard: a recorded run stays on the fast path.

Recording is a runtime opt-in, so the recorder must be close to free
even when it is on.  It is, by construction: the serving engines emit
the same per-query ``(node, end)`` columns whether or not anyone is
watching, and the recorder takes them once the run is over — every
span, object build and derived column is ``finalize()``'s.  (Off, it
is one module-global read per emission site — and the closed-form
reports are byte-identical either way, which
``tests/integration/test_flightrec.py`` pins.)

This guard serves the same stream with recording off and on, both on
``engine="auto"``, and asserts what is deterministic: the recorded run
is served by the event core, and its ``ServiceReport`` equals the
unrecorded one byte for byte.  The wall-clock ratio is *measured*, not
asserted, here — a 5 % bound on min-of-5 wall times was flaky on
shared hosts; the calibrated number is perfbench's
``flightrec.overhead_ratio`` (``python -m perfbench --trace``, workload
``fleet_observed``).  Both arms still land in ``BENCH_core.json`` as
``host_seconds`` rows (points ``off``/``on``, finalize included, since
operators always pay it), which the regression engine records and
reports but never gates on — wall clock is not this repo's claim.
"""

from __future__ import annotations

import time
from functools import cache

from conftest import observatory_recorder
from repro.flightrec import record
from repro.service import (Autoscaler, FleetSpec, NodePowerModel,
                           ServiceReport, build_stream, simulate_service)

ROUNDS = 5


@cache
def _stream():
    """The svc_smoke point's stream at its own defaults (350k queries:
    more hot-path signal per measured second), built once, off the
    clock."""
    return build_stream(350_000, seed=2009)


def _simulate_point() -> ServiceReport:
    # the svc_smoke fleet: 16 autoscaled power_aware commodity nodes
    model = NodePowerModel.from_server("commodity")
    return simulate_service(
        _stream(), fleet=FleetSpec.homogeneous(16, model),
        policy="power_aware",
        autoscaler=Autoscaler(model, epoch_seconds=30.0,
                              target_utilization=0.55, min_nodes=2),
        engine="auto")


def _recorded_point() -> ServiceReport:
    with record() as recorder:
        report = _simulate_point()
    recorder.finalize()
    return report


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


def test_flightrec_recorded_run_stays_on_the_event_core():
    plain = _simulate_point()  # also warms imports and caches
    recorded = _recorded_point()
    assert (plain.engine, recorded.engine) == ("event", "event")
    assert recorded.engine_reason is None
    assert recorded.to_dict() == plain.to_dict()
    off, on = _measure()
    print(f"\nflightrec overhead: off={off:.4f}s on={on:.4f}s "
          f"({on / off - 1.0:+.2%}, finalize included)")
    recorder = observatory_recorder()
    if recorder is not None:
        for point, seconds in (("off", off), ("on", on)):
            recorder.store.append(recorder.build(
                "flightrec_overhead", point=point,
                host_seconds=seconds))
