"""SLO error-budget burn analysis over a flight recording.

The serving report says whether a tenant's overall p95 met its SLA;
the flight recorder can say *when it went wrong*.  :class:`SLOMonitor`
tumbles each tenant's completions into fixed windows and computes the
classic burn rate: the fraction of that window's completions that
overshot the SLA, divided by the error budget (default 5 % — "at most
1 in 20 queries may miss").  Burn 1.0 means the window consumed budget
exactly as fast as it accrues; a sustained stretch above 1.0 is a
*breach window*, and the worst window is where triage starts (find it
here, then read the reject/DVFS/batch events inside it — the
OPERATIONS.md walkthrough).

Queries that never completed (rejected, shed, crash-lost) are charged
as breaches in their *arrival* window: a refused query is a broken
promise too, and hiding it would let a shedding policy burn no budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.flightrec.events import DONE, FlightRecording
from repro.flightrec.rollup import window_starts

#: default error budget: at most 5 % of queries may miss their SLA
DEFAULT_ERROR_BUDGET = 0.05
DEFAULT_WINDOW_SECONDS = 60.0


@dataclass
class BurnWindow:
    """One tumbling window of a tenant's SLO arithmetic."""

    start: float
    end: float
    completed: int = 0
    breached: int = 0
    burn: float = 0.0


@dataclass
class TenantSLO:
    """A tenant's full burn curve plus its extracted breach windows."""

    tenant: str
    sla_seconds: Optional[float]
    error_budget: float
    windows: list[BurnWindow] = field(default_factory=list)
    #: maximal runs of consecutive windows with burn >= 1.0
    breach_windows: list[tuple[float, float, float]] = \
        field(default_factory=list)
    worst: Optional[BurnWindow] = None
    overall_p95: Optional[float] = None
    breached: bool = False

    def to_dict(self) -> dict[str, Any]:
        # columnar: burn windows flatten into parallel ``burn``/``t``
        # arrays for the console; a one-way export, never read back
        return {
            "tenant": self.tenant,
            "sla_seconds": self.sla_seconds,
            "error_budget": self.error_budget,
            "overall_p95": self.overall_p95,
            "breached": self.breached,
            "worst_window": (None if self.worst is None else {
                "start": self.worst.start, "end": self.worst.end,
                "completed": self.worst.completed,
                "breached": self.worst.breached,
                "burn": self.worst.burn}),
            "breach_windows": [
                {"start": s, "end": e, "peak_burn": b}
                for s, e, b in self.breach_windows],
            "burn": [w.burn for w in self.windows],
            "t": [w.start for w in self.windows],
        }


class SLOMonitor:
    """Rolling error-budget burn per tenant over one recording.

    ``window_seconds`` is the tumbling-window width; ``error_budget``
    the allowed SLA-miss fraction.  A tenant with no SLA has no burn
    (every window reads 0.0) and can never breach.
    """

    def __init__(self, recording: FlightRecording,
                 window_seconds: float = DEFAULT_WINDOW_SECONDS,
                 error_budget: float = DEFAULT_ERROR_BUDGET) -> None:
        if not 0 < window_seconds < float("inf"):     # nan fails too
            from repro.errors import ReproError
            raise ReproError(
                f"SLO window must be finite and positive, got "
                f"{window_seconds}")
        if not 0 < error_budget <= 1.0:
            from repro.errors import ReproError
            raise ReproError(
                f"error budget must lie in (0, 1], got {error_budget}")
        self.recording = recording
        self.window_seconds = window_seconds
        self.error_budget = error_budget
        self._tenants = self._analyze()

    def tenants(self) -> list[TenantSLO]:
        return list(self._tenants)

    @property
    def any_breached(self) -> bool:
        return any(t.breached for t in self._tenants)

    def to_dict(self) -> dict[str, Any]:
        # bulk: a one-way export of an analysis object, not a dataclass
        return {
            "window_seconds": self.window_seconds,
            "error_budget": self.error_budget,
            "any_breached": self.any_breached,
            "tenants": [t.to_dict() for t in self._tenants],
        }

    # -- the analysis ---------------------------------------------------

    def _analyze(self) -> list[TenantSLO]:
        rec = self.recording
        starts = window_starts(rec.end, self.window_seconds)
        q = rec.queries
        out: list[TenantSLO] = []
        for ti, spec in enumerate(rec.meta["tenants"]):
            sla = spec["sla_p95_seconds"]
            slo = TenantSLO(tenant=spec["name"], sla_seconds=sla,
                            error_budget=self.error_budget)
            slo.windows = [
                BurnWindow(t0, t0 + self.window_seconds)
                for t0 in starts]
            if sla is None:
                out.append(slo)
                continue
            latencies: list[float] = []
            for k in range(rec.n_queries):
                if q["tenant"][k] != ti:
                    continue
                if q["state"][k] == DONE and q["completion"][k] is not None:
                    at = q["completion"][k]
                    latency = at - q["arrival"][k]
                    latencies.append(latency)
                    miss = latency > sla
                else:
                    # a refused/lost query burns budget at its arrival
                    at = q["arrival"][k]
                    miss = True
                w = slo.windows[min(len(starts) - 1,
                                    int(at / self.window_seconds))]
                w.completed += 1
                if miss:
                    w.breached += 1
            for w in slo.windows:
                if w.completed:
                    w.burn = (w.breached / w.completed) \
                        / self.error_budget
            slo.worst = max(slo.windows, key=lambda w: w.burn,
                            default=None)
            slo.breach_windows = self._runs(slo.windows)
            if latencies:
                from repro.service.report import quantile
                slo.overall_p95 = quantile(sorted(latencies), 0.95)
                slo.breached = slo.overall_p95 > sla
            out.append(slo)
        return out

    @staticmethod
    def _runs(windows: list[BurnWindow]) \
            -> list[tuple[float, float, float]]:
        """Maximal consecutive runs with burn >= 1.0, as
        (start, end, peak_burn)."""
        runs: list[tuple[float, float, float]] = []
        open_at: Optional[float] = None
        peak = 0.0
        for w in windows:
            if w.burn >= 1.0:
                if open_at is None:
                    open_at = w.start
                    peak = w.burn
                else:
                    peak = max(peak, w.burn)
            elif open_at is not None:
                runs.append((open_at, w.start, peak))
                open_at = None
        if open_at is not None and windows:
            runs.append((open_at, windows[-1].end, peak))
        return runs
