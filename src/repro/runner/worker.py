"""The process-pool work item: simulate one sweep point and store it.

Everything crossing the process boundary is a plain JSON-safe dict —
the same payload shape the cache stores — so fork and spawn start
methods both work and parallel runs are bit-identical to serial ones
(the payload is computed in the worker from the same knobs + seed,
never re-derived in the parent).  The process that computed a payload
also writes its cache entry, so a sweep's JSON encoding runs across
the workers, once per point, and never on the parent's serial path.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from typing import Any, Mapping, Optional

from repro.errors import ReproError
from repro.observe import start
from repro.runner.cache import ResultCache
from repro.runner.registry import get_experiment
from repro.runner.reports import encode_report, report_metrics

#: (experiment name, resolved point knobs, point seed)
PointTask = tuple[str, dict[str, Any], int]
#: (grid index, task, observer kinds, where to store the payload, key)
PointItem = tuple[int, PointTask, tuple[str, ...],
                  Optional[ResultCache], str]


class PointExecutionError(ReproError):
    """A point function raised: bad knob values, broken physics, etc.

    Raised ``from`` the original exception, so library callers keep the
    full chained traceback while the CLI's :class:`ReproError` handler
    collapses it to a one-line message (a wrong ``--disks`` value must
    not dump a simulator stack on the terminal).
    """


def execute_point(task: PointTask,
                  observe: tuple[str, ...] = ()) -> dict[str, Any]:
    """Run one point and return its cacheable payload.

    Each observer kind in ``observe`` (see :mod:`repro.observe`) watches
    the point, and the payload carries what it harvested under its
    kind — ``"telemetry"``: a serialized
    :class:`~repro.telemetry.trace.TelemetryTrace`; ``"flightrec"``: a
    serialized :class:`~repro.flightrec.events.FlightRecording`, or
    ``None`` for a point that never entered a serving engine.  Both
    are JSON-safe dicts, so observations ride the process pool and the
    result cache like any other payload field.
    """
    experiment, knobs, seed = task
    defn = get_experiment(experiment)
    started = time.perf_counter()
    try:
        with ExitStack() as stack:
            observers = {kind: stack.enter_context(start(kind))
                         for kind in observe}
            report = defn.call_point(knobs, seed)
        observed = {kind: observer.harvest()
                    for kind, observer in observers.items()}
    except ReproError:
        raise
    except Exception as exc:
        brief = " ".join(f"{k}={v!r}" for k, v in sorted(knobs.items()))
        raise PointExecutionError(
            f"experiment {experiment!r} failed at point [{brief}] "
            f"(seed {seed}): {type(exc).__name__}: {exc}") from exc
    host_seconds = time.perf_counter() - started
    sim_seconds, joules = report_metrics(report)
    return {
        "experiment": experiment,
        "knobs": dict(knobs),
        "seed": seed,
        "report": encode_report(report),
        "sim_seconds": sim_seconds,
        "joules": joules,
        "host_seconds": host_seconds,
        **observed,
    }


def execute_indexed(item: PointItem) -> tuple[int, dict[str, Any]]:
    """Run one pending point and store its payload: the serial path
    calls this inline, the pool maps it over its items.  The point's
    grid index rides along so out-of-order completion can be
    reassembled deterministically."""
    index, task, observe, cache, key = item
    payload = execute_point(task, observe)
    if cache is not None:
        cache.put(key, payload)
    return index, payload


def payload_matches(payload: Mapping[str, Any], task: PointTask,
                    observe: tuple[str, ...] = ()) -> bool:
    """Paranoia check for cache payloads: same point, same seed —
    and an entry for every observer kind the run asks for."""
    experiment, knobs, seed = task
    return (isinstance(payload, Mapping)
            and payload.get("experiment") == experiment
            and payload.get("seed") == seed
            and payload.get("knobs") == knobs
            and {"report", "sim_seconds", "joules", *observe}
            <= payload.keys())
