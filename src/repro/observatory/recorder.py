"""Turning live results into history records.

One producer feeds the ledger: hand a :class:`Recorder` a finished
:class:`~repro.runner.runner.RunResult` (or a bare report object) and
it appends one :class:`BenchRecord` per point.  This is what
``benchmarks/conftest.py`` and the ``observatory record`` CLI use.

Metric extraction lives in :mod:`repro.observatory.record`; traced
power timelines are downsampled to a plot-friendly size before storage
— the ledger keeps trends, not raw traces.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.observatory.history import HistoryStore
from repro.observatory.record import (
    BenchRecord,
    extract_work_units,
    git_sha,
    host_info,
    point_label,
    point_metrics,
    utc_now_iso,
)
from repro.telemetry.collector import _downsample

#: timeline samples kept per device inside a stored record — coarse on
#: purpose: the ledger accumulates forever, the dashboard plots small
RECORD_TIMELINE_SAMPLES = 64


def timelines_of(trace: Any,
                 limit: int = RECORD_TIMELINE_SAMPLES) -> list[dict]:
    """A trace's device power timelines, downsampled for storage."""
    out = []
    for dev in getattr(trace, "devices", []):
        times, watts = _downsample(dev.times, dev.watts, limit)
        out.append({
            "name": dev.name,
            "times": [round(t, 9) for t in times],
            "watts": [round(w, 9) for w in watts],
            "energy_joules": dev.energy_joules,
            "busy_seconds": dev.busy_seconds,
        })
    return out


class Recorder:
    """Builds and appends :class:`BenchRecord` rows for one suite."""

    def __init__(self, root: str | HistoryStore = ".",
                 suite: str = "core",
                 timeline_samples: int = RECORD_TIMELINE_SAMPLES):
        self.store = (root if isinstance(root, HistoryStore)
                      else HistoryStore(root))
        self.suite = suite
        self.timeline_samples = timeline_samples
        # provenance is computed once per recorder, not per record
        self._git_sha = git_sha()
        self._host = host_info()

    # -- record builders ---------------------------------------------

    def build(self, benchmark: str, *, point: str = "defaults",
              sim_seconds: float = 0.0, joules: float = 0.0,
              host_seconds: float = 0.0, report: Any = None,
              trace: Any = None, spec_hash: str = "") -> BenchRecord:
        records, unit = (extract_work_units(report)
                         if report is not None else (0.0, "record"))
        counters: dict[str, float] = {}
        timelines: list[dict] = []
        if trace is not None:
            counters = dict(trace.counters)
            timelines = timelines_of(trace, self.timeline_samples)
        return BenchRecord(
            suite=self.suite, benchmark=benchmark, point=point,
            metrics=point_metrics(sim_seconds, joules, records,
                                  host_seconds),
            counters=counters, record_unit=unit,
            spec_hash=spec_hash, git_sha=self._git_sha,
            host=dict(self._host), recorded_at=utc_now_iso(),
            timelines=timelines)

    def record_run(self, result: Any,
                   benchmark: Optional[str] = None) -> list[BenchRecord]:
        """Append one record per point of a finished ``RunResult``."""
        spec = result.spec
        axes = sorted(spec.sweep_axes())
        name = benchmark or spec.experiment
        spec_hash = spec.spec_hash()
        appended = []
        for p in result.points:
            record = self.build(
                name, point=point_label(p.knobs, axes),
                sim_seconds=p.sim_seconds, joules=p.joules,
                host_seconds=p.host_seconds, report=p.report,
                trace=p.telemetry, spec_hash=spec_hash)
            appended.append(self.store.append(record))
        return appended

    def record_report(self, benchmark: str, report: Any, *,
                      point: str = "defaults", host_seconds: float = 0.0,
                      trace: Any = None,
                      spec_hash: str = "") -> BenchRecord:
        """Append one record for a bare report object (no spec/run)."""
        from repro.runner.reports import report_metrics
        sim_seconds, joules = report_metrics(report)
        record = self.build(
            benchmark, point=point, sim_seconds=sim_seconds,
            joules=joules, host_seconds=host_seconds, report=report,
            trace=trace, spec_hash=spec_hash)
        return self.store.append(record)
