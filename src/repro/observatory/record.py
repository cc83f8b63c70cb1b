"""The benchmark-history record: one sweep point, frozen with context.

A :class:`BenchRecord` is the unit the observatory appends, compares,
and plots.  It is deliberately flat and JSON-safe: a metric map (the
simulated seconds/Joules plus the paper's derived efficiency metrics),
a counter map (the telemetry hooks' buffer/WAL/prefetch tallies), and
enough provenance — git SHA, spec hash, host fingerprint, timestamp —
to answer "*which commit* made Figure 2's scan more expensive?".

Only simulated quantities participate in regression gating; the host
wall clock is carried for context but policy-excluded (see
:mod:`repro.observatory.regression`).
"""

from __future__ import annotations

import datetime as _datetime
import functools
import platform
import subprocess
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.records import Record, RecordError

SCHEMA_VERSION = 1

#: attribute names probed, in order, to find a report's work-unit count
_WORK_UNIT_ATTRS: tuple[tuple[str, str], ...] = (
    ("records_sorted", "record"),
    ("records_scanned", "record"),
    ("records", "record"),
    ("rows", "record"),
    ("queries_completed", "query"),
    ("transactions_committed", "transaction"),
    ("transactions", "transaction"),
    ("bytes_read", "byte"),
)


def extract_work_units(report: Any) -> tuple[float, str]:
    """Best-effort ``(count, unit)`` of work a report accomplished.

    Mirrors :func:`repro.runner.reports.report_metrics`: reports name
    their own workload quantum (queries for Figure 1, bytes for the
    Figure 2 scan, records for JouleSort); unknown shapes degrade to
    ``(0.0, "record")`` and the derived per-record metrics are simply
    omitted rather than divided by zero.
    """
    for attr, unit in _WORK_UNIT_ATTRS:
        value = getattr(report, attr, None)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if value > 0:
                return float(value), unit
    return 0.0, "record"


def point_metrics(sim_seconds: float, joules: float,
                  records: float = 0.0,
                  host_seconds: float = 0.0) -> dict[str, float]:
    """The observatory's canonical metric map for one point.

    Derived metrics appear only when well-defined: ``watts`` needs
    simulated time, the per-record pair needs a work-unit count — so a
    report with no record notion still produces a comparable row.
    """
    metrics: dict[str, float] = {
        "sim_seconds": float(sim_seconds),
        "joules": float(joules),
        "host_seconds": float(host_seconds),
    }
    if sim_seconds > 0:
        metrics["watts"] = joules / sim_seconds
    if records > 0:
        metrics["records"] = float(records)
        if joules > 0:
            metrics["joules_per_record"] = joules / records
        if sim_seconds > 0 and joules > 0:
            rps = records / sim_seconds
            metrics["records_per_second"] = rps
            metrics["records_per_second_per_watt"] = \
                rps / (joules / sim_seconds)
    return metrics


def point_label(knobs: Mapping[str, Any],
                axes: Sequence[str]) -> str:
    """Stable human identity of a sweep point: its axis assignment.

    Only the *swept* knobs appear (fixed knobs are part of the spec
    hash), so the label survives default-knob additions; a sweep with
    no axes is the single point ``"defaults"``.
    """
    parts = [f"{name}={knobs[name]}" for name in sorted(axes)
             if name in knobs]
    return " ".join(parts) or "defaults"


@functools.lru_cache(maxsize=1)
def git_sha() -> str:
    """The repo's current commit (short), or ``"unknown"`` outside a
    checkout."""
    cmd = ["git", "rev-parse", "--short", "HEAD"]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=5.0)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def host_info() -> dict[str, str]:
    """A small host fingerprint (context only, never compared)."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def utc_now_iso() -> str:
    return _datetime.datetime.now(_datetime.timezone.utc).isoformat(
        timespec="seconds")


@dataclass
class BenchRecord(Record):
    """One benchmark point's measurements plus provenance.

    ``seq`` is the record's position in its suite's history file; it is
    assigned by :meth:`HistoryStore.append` (constructing code leaves
    the default).  ``timelines`` optionally carries the traced run's
    downsampled per-device power step functions so the dashboard can
    plot them without re-running anything.
    """

    suite: str
    benchmark: str
    point: str = "defaults"
    metrics: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    record_unit: str = "record"
    spec_hash: str = ""
    git_sha: str = "unknown"
    host: dict[str, str] = field(default_factory=dict)
    recorded_at: str = ""
    seq: int = -1
    timelines: list[dict[str, Any]] = field(default_factory=list)
    version: int = SCHEMA_VERSION

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchRecord":
        # a metric the gate cannot subtract is a malformed line, which
        # the store skips, not a traceback mid-comparison
        record = super().from_dict(data)
        for name in ("metrics", "counters"):
            for key, value in getattr(record, name).items():
                if isinstance(value, bool) or not isinstance(
                        value, (int, float)):
                    raise RecordError(
                        f"BenchRecord.{name}[{key!r}]: expected a "
                        f"number, got {type(value).__name__}")
        return record

    def series_key(self) -> tuple[str, str]:
        """Longitudinal identity: records sharing it form one trend."""
        return (self.benchmark, self.point)
