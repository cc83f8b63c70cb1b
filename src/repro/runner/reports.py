"""The report round trip and the type registry behind it.

Every experiment's per-point measurement object (``ThroughputReport``,
``ScanReport``, ``DutyCycleReport``, ...) speaks one protocol:
``to_dict()`` producing a JSON-safe dict and a ``from_dict()``
classmethod inverting it.  That round-trip is what makes the on-disk
cache, the process-pool hand-off, and the CLI's JSON output all share
one code path.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.records import RecordError


#: report type name -> class, for decoding cached / worker payloads
REPORT_TYPES: dict[str, type] = {}


def register_report(cls: type) -> type:
    """Register a report class for payload decoding (usable as a
    decorator on third-party report types)."""
    REPORT_TYPES[cls.__name__] = cls
    return cls


def _register_builtin_reports() -> None:
    from repro.consolidation.scheduler import ScheduleReport
    from repro.service.experiments import MegaCalibrationReport
    from repro.service.report import ServiceReport
    from repro.workloads.duty_cycle import DutyCycleReport
    from repro.workloads.pipelines.report import EtlReport
    from repro.workloads.scan_workload import ScanReport
    from repro.workloads.throughput import ThroughputReport
    for cls in (ThroughputReport, ScanReport, DutyCycleReport,
                ScheduleReport, ServiceReport, MegaCalibrationReport,
                EtlReport):
        register_report(cls)


def encode_report(report: Any) -> dict[str, Any]:
    """Tag a report's dict form with its type for later decoding."""
    name = type(report).__name__
    if name not in REPORT_TYPES:
        register_report(type(report))
    return {"type": name, "data": report.to_dict()}


def decode_report(payload: Mapping[str, Any]) -> Any:
    name = payload.get("type") if isinstance(payload, Mapping) else None
    if not isinstance(name, str) or "data" not in payload:
        raise RecordError(
            "report payload must be an object with a 'type' name and "
            "'data'")
    cls = REPORT_TYPES.get(name)
    if cls is None:
        raise RecordError(
            f"unknown report type {name!r}; register it with "
            "repro.runner.register_report")
    return cls.from_dict(payload["data"])


def report_metrics(report: Any) -> tuple[float, float]:
    """Best-effort (simulated seconds, Joules) for progress events.

    Reports expose these under experiment-specific names; unknown
    shapes degrade to zeros rather than failing the run.
    """
    seconds = 0.0
    for attr in ("makespan_seconds", "total_seconds", "window_seconds",
                 "elapsed_seconds", "seconds"):
        value = getattr(report, attr, None)
        if isinstance(value, (int, float)):
            seconds = float(value)
            break
    joules = 0.0
    for attr in ("energy_joules", "joules"):
        value = getattr(report, attr, None)
        if isinstance(value, (int, float)):
            joules = float(value)
            break
    return seconds, joules


_register_builtin_reports()
