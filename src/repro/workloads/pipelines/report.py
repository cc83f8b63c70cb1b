"""ETL run results: per-stage outcomes over a serving report.

An :class:`EtlReport` wraps the :class:`~repro.service.report.
ServiceReport` of the merged (interactive + batch) run with the
pipeline-level reading: per-stage completion windows and marginal busy
energy (:class:`StageStats`), the freshness verdict, the plan that
placed the releases, and the dataset versions the load stages
published.  It speaks the unified report protocol
(``to_dict``/``from_dict`` invert exactly), so ``svc_etl`` points
cache, pool, and gate like every other experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.records import Record
from repro.service.report import ServiceReport


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


#: the scheduling modes a point may run (baseline first)
ETL_MODES: tuple[str, ...] = ("none", "eager", "delayed", "consolidated")

