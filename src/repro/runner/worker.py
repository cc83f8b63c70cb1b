"""The process-pool work item: simulate one sweep point.

Everything crossing the process boundary is a plain JSON-safe dict —
the same payload shape the cache stores — so fork and spawn start
methods both work and parallel runs are bit-identical to serial ones
(the payload is computed in the worker from the same knobs + seed,
never re-derived in the parent).
"""

from __future__ import annotations

import time
from typing import Any, Mapping

from repro.errors import ReproError
from repro.runner.registry import get_experiment
from repro.runner.reports import encode_report, report_metrics

#: (experiment name, resolved point knobs, point seed)
PointTask = tuple[str, dict[str, Any], int]


class PointExecutionError(ReproError):
    """A point function raised: bad knob values, broken physics, etc.

    Raised ``from`` the original exception, so library callers keep the
    full chained traceback while the CLI's :class:`ReproError` handler
    collapses it to a one-line message (a wrong ``--disks`` value must
    not dump a simulator stack on the terminal).
    """


def execute_point(task: PointTask, trace: bool = False,
                  record: bool = False) -> dict[str, Any]:
    """Run one point and return its cacheable payload.

    With ``trace=True`` the point simulates under a telemetry capture
    and the payload carries the serialized
    :class:`~repro.telemetry.trace.TelemetryTrace` under
    ``"telemetry"`` — a JSON-safe dict, so traces ride the process
    pool and the result cache like any other payload field.  With
    ``record=True`` the point simulates under a flight recorder and
    the payload carries the serialized
    :class:`~repro.flightrec.events.FlightRecording` under
    ``"flightrec"`` the same way.
    """
    experiment, knobs, seed = task
    defn = get_experiment(experiment)
    started = time.perf_counter()
    telemetry = None
    flightrec = None
    try:
        if trace or record:
            import contextlib
            with contextlib.ExitStack() as stack:
                collector = None
                recorder = None
                if trace:
                    # lazy imports: plain workers never touch the
                    # telemetry or flightrec machinery
                    from repro.telemetry import capture
                    collector = stack.enter_context(capture())
                if record:
                    from repro.flightrec import record as start_recording
                    recorder = stack.enter_context(start_recording())
                report = defn.call_point(knobs, seed)
            if collector is not None:
                telemetry = collector.finalize().to_dict()
            if recorder is not None:
                # a point that never enters a serving engine records
                # nothing; the payload still marks the recorded run
                flightrec = (recorder.finalize().to_dict()
                             if recorder.has_run else None)
        else:
            report = defn.call_point(knobs, seed)
    except ReproError:
        raise
    except Exception as exc:
        brief = " ".join(f"{k}={v!r}" for k, v in sorted(knobs.items()))
        raise PointExecutionError(
            f"experiment {experiment!r} failed at point [{brief}] "
            f"(seed {seed}): {type(exc).__name__}: {exc}") from exc
    host_seconds = time.perf_counter() - started
    sim_seconds, joules = report_metrics(report)
    payload = {
        "experiment": experiment,
        "knobs": dict(knobs),
        "seed": seed,
        "report": encode_report(report),
        "sim_seconds": sim_seconds,
        "joules": joules,
        "host_seconds": host_seconds,
    }
    if telemetry is not None:
        payload["telemetry"] = telemetry
    if record:
        payload["flightrec"] = flightrec
    return payload


def execute_indexed(item: tuple[int, PointTask, bool, bool]
                    ) -> tuple[int, dict[str, Any]]:
    """Pool adapter: keep the point's grid index with its payload so
    out-of-order completion can be reassembled deterministically."""
    index, task, trace, record = item
    return index, execute_point(task, trace=trace, record=record)


def payload_matches(payload: Mapping[str, Any], task: PointTask,
                    trace: bool = False, record: bool = False) -> bool:
    """Paranoia check for cache payloads: same point, same seed —
    and, for traced runs, a stored trace (likewise a stored flight
    recording for recorded runs)."""
    experiment, knobs, seed = task
    return (isinstance(payload, Mapping)
            and payload.get("experiment") == experiment
            and payload.get("seed") == seed
            and payload.get("knobs") == knobs
            and {"report", "sim_seconds", "joules"} <= payload.keys()
            and (not trace or "telemetry" in payload)
            and (not record or "flightrec" in payload))
