"""ETL run results: per-stage outcomes over a serving report.

An :class:`EtlReport` wraps the :class:`~repro.service.report.
ServiceReport` of the merged (interactive + batch) run with the
pipeline-level reading: per-stage completion windows and marginal busy
energy (:class:`StageStats`), the freshness verdict, the plan that
placed the releases, and the dataset versions the load stages
published.  It speaks the unified report protocol
(``to_dict``/``from_dict`` invert exactly), so ``svc_etl`` points
cache, pool, and gate like every other experiment.

:class:`EtlSweepResult` folds the mode × load grid into the headline
the ROADMAP question asks for: the *marginal* Joules each scheduling
mode adds over the no-ETL baseline of the same interactive day —
eager's burst-at-peak premium vs. what delay and consolidation save.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.records import Record
from repro.service.report import ServiceReport
from repro.workloads.pipelines.spec import PipelineError


@dataclass
class StageStats(Record):
    """One stage's measured outcome.

    ``attribution_start/end_seconds`` bound the fleet-time window the
    stage owns in the telemetry tiling (see
    :func:`~repro.workloads.pipelines.run.run_pipeline`): windows are
    consecutive, ordered by stage completion, and tile the whole run,
    which is what makes per-stage span Joules sum exactly to the
    closed-form report.  ``busy_joules`` is the stage's *marginal* busy
    energy — completed work × (peak − idle) draw — exact on a
    homogeneous fleet (estimated with the first class's model
    otherwise).
    """

    stage: str
    kind: str
    tenant: str
    tasks: int
    completed: int
    release_seconds: float
    completion_seconds: float
    deadline_seconds: float
    busy_joules: float
    attribution_start_seconds: float
    attribution_end_seconds: float

    @property
    def duration_seconds(self) -> float:
        """Release-to-last-completion span."""
        return self.completion_seconds - self.release_seconds

    @property
    def met_deadline(self) -> bool:
        return self.completion_seconds <= self.deadline_seconds


@dataclass
class EtlReport(Record):
    """Outcome of one pipeline run alongside interactive traffic."""

    pipeline: str
    pipeline_hash: str
    #: scheduling mode (``none`` for a no-ETL baseline point)
    mode: str
    freshness_sla_seconds: float
    #: last batch-task completion (0.0 on a baseline point)
    completion_seconds: float
    freshness_met: bool
    #: measured stage starts before a parent stage's last completion
    precedence_violations: int
    stages: list[StageStats] = field(default_factory=list)
    #: the serialized :class:`StagePlan` (None on a baseline point)
    plan: Optional[dict[str, Any]] = None
    #: dataset versions the load stages published
    catalog: list[dict[str, Any]] = field(default_factory=list)
    #: the merged run's serving report
    service: Optional[ServiceReport] = None

    # -- derived ------------------------------------------------------

    @property
    def energy_joules(self) -> float:
        """Whole-run fleet energy (the closed-form report's)."""
        return self.service.energy_joules

    @property
    def makespan_seconds(self) -> float:
        return self.service.makespan_seconds

    @property
    def freshness_slack_seconds(self) -> float:
        """Deadline margin of the last completion (negative = breach)."""
        return self.freshness_sla_seconds - self.completion_seconds

    @property
    def batch_tenant_names(self) -> set[str]:
        return {s.tenant for s in self.stages}

    @property
    def interactive_slas_met(self) -> bool:
        """Whether every *interactive* tenant's p95 target held."""
        batch = self.batch_tenant_names
        return all(t.sla_met for t in self.service.tenants
                   if t.tenant not in batch)

    def rows(self) -> list[tuple]:
        """Per-stage rows for the table printers."""
        return [
            (s.stage, s.kind, s.completed, s.release_seconds,
             s.completion_seconds, s.busy_joules,
             "met" if s.met_deadline else "MISSED")
            for s in self.stages
        ]


#: mode ordering for sweep aggregation (baseline first)
ETL_MODES: tuple[str, ...] = ("none", "eager", "delayed", "consolidated")


@dataclass
class EtlSweepResult(Record):
    """The ``svc_etl`` mode × load grid, folded.

    Parallel arrays (like the hetero and PVC/QED sweeps): point ``i``
    ran scheduling mode ``modes[i]`` at interactive load ``loads[i]``.
    The ``none`` points are no-ETL baselines of the identical
    interactive day — subtracting them isolates each mode's *marginal*
    Joules, which is the number the ROADMAP question is about.
    """

    modes: list[str]
    loads: list[float]
    reports: list[EtlReport]

    def report(self, mode: str, load: float) -> EtlReport:
        for m, ld, r in zip(self.modes, self.loads, self.reports):
            if m == mode and ld == load:
                return r
        ran = ", ".join(f"{m}@{ld}" for m, ld in zip(self.modes,
                                                     self.loads))
        raise PipelineError(
            f"sweep has no point mode={mode!r} load={load}; ran: {ran}")

    def load_levels(self) -> list[float]:
        seen: list[float] = []
        for ld in self.loads:
            if ld not in seen:
                seen.append(ld)
        return seen

    def marginal_joules(self, mode: str, load: float) -> float:
        """Joules ``mode`` added over the same day's no-ETL baseline."""
        return (self.report(mode, load).energy_joules
                - self.report("none", load).energy_joules)

    def headline(self) -> dict[str, Any]:
        """The acceptance numbers, summed across load levels.

        Marginal Joules per scheduling mode, the fractional savings of
        delay and consolidation over eager, and the SLA verdicts that
        make the savings claimable (every freshness deadline and every
        interactive p95 must hold).
        """
        loads = self.load_levels()
        marginal = {
            mode: sum(self.marginal_joules(mode, ld) for ld in loads)
            for mode in ("eager", "delayed", "consolidated")
        }
        etl = [r for r in self.reports if r.mode != "none"]
        return {
            "eager_marginal_joules": marginal["eager"],
            "delayed_marginal_joules": marginal["delayed"],
            "consolidated_marginal_joules": marginal["consolidated"],
            "delayed_savings_fraction":
                1.0 - marginal["delayed"] / marginal["eager"],
            "consolidated_savings_fraction":
                1.0 - marginal["consolidated"] / marginal["eager"],
            "all_freshness_met": all(r.freshness_met for r in etl),
            "interactive_slas_met": all(r.interactive_slas_met
                                        for r in self.reports),
            "precedence_violations": sum(r.precedence_violations
                                         for r in etl),
        }

    def rows(self) -> list[tuple]:
        """Per-point rows: mode, load, Joules, marginal, freshness."""
        out = []
        for m, ld, r in zip(self.modes, self.loads, self.reports):
            marginal = (0.0 if m == "none"
                        else self.marginal_joules(m, ld))
            out.append((m, ld, r.energy_joules, marginal,
                        r.completion_seconds,
                        "met" if r.freshness_met else "MISSED",
                        "met" if r.interactive_slas_met else "MISSED"))
        return out
