"""repro.runner: the unified experiment-execution subsystem.

One surface replaces the repo's historical per-figure entry points:

* :class:`ExperimentSpec` — a declarative, hashable description of an
  experiment + knob grid + seed (list-valued knobs are sweep axes);
* :class:`Runner` — executes a spec's points across a process pool
  with deterministic per-point seeds and an on-disk result cache,
  streaming structured progress events;
* :class:`RunResult` / :class:`PointResult` — grid-ordered results with
  a byte-stable ``to_dict()``; a figure's claims read the points'
  reports;
* the registry (:func:`register_experiment`, :func:`get_experiment`,
  :func:`list_experiments`) for adding new
  experiments;
* ``python -m repro.runner`` — the operational CLI (``run``, ``trace``,
  ``list``, ``cache stats``, ``cache clear``).
"""

from repro.runner.cache import (
    DEFAULT_CACHE_DIR,
    CacheStats,
    ResultCache,
    point_key,
)
from repro.runner.events import (
    EventPrinter,
    PointFinished,
    RunFinished,
    RunStarted,
)
from repro.runner.registry import (
    ExperimentDef,
    UnknownExperimentError,
    UnknownKnobError,
    get_experiment,
    list_experiments,
    register_experiment,
)
from repro.runner.reports import (
    decode_report,
    encode_report,
    register_report,
    report_metrics,
)
from repro.runner.runner import PointResult, Runner, RunResult
from repro.runner.spec import DEFAULT_SEED, ExperimentSpec, SpecError
from repro.runner.worker import PointExecutionError

__all__ = [
    "DEFAULT_CACHE_DIR",
    "DEFAULT_SEED",
    "CacheStats",
    "EventPrinter",
    "ExperimentDef",
    "ExperimentSpec",
    "PointExecutionError",
    "PointFinished",
    "PointResult",
    "ResultCache",
    "RunFinished",
    "RunResult",
    "RunStarted",
    "Runner",
    "SpecError",
    "UnknownExperimentError",
    "UnknownKnobError",
    "decode_report",
    "encode_report",
    "get_experiment",
    "list_experiments",
    "point_key",
    "register_experiment",
    "register_report",
    "report_metrics",
]
