"""The ETL scheduling policy hook: eager vs. delayed vs. consolidated.

Lang & Patel (arXiv 0909.1767) trade latency headroom for Joules;
batch ETL has the most headroom of anything in the system — an entire
freshness window.  The :class:`EtlScheduler` decides how to spend it,
in one of three modes:

``eager``
    Release every stage as early as its inputs allow, starting the
    instant the day's input data lands (``ready_seconds`` — typically
    in the middle of the interactive peak).  Task groups arrive as
    bursts stacked on top of peak interactive demand — the autoscaler
    books capacity for them at the worst possible moment.

``delayed``
    Shift the whole pipeline to ``offpeak_start_seconds`` (clamped
    earlier if the freshness deadline would be breached).  Started at
    the *edge* of the peak window, the bursts land on a fleet that is
    still booted but newly idle — capacity that is already paid for.

``consolidated``
    Delay, and additionally *pace* each stage's task arrivals so the
    offered batch demand never exceeds
    ``consolidation_node_equivalents`` — the trickle packs onto the
    powered-on floor instead of spiking the autoscaler's demand
    estimate.  Slowest in wall-clock, cheapest in Joules, bounded by
    the same deadline arithmetic.

The scheduler *plans*: stage releases are computed ahead of execution
from slack-inflated duration estimates (the serving engine consumes a
fixed arrival stream, so precedence is enforced by releasing a stage
only after its parents' estimated completions, and verified after the
run by :func:`~repro.workloads.pipelines.run.run_pipeline`, which
counts measured ``precedence_violations``).

>>> from repro.workloads.pipelines.spec import PipelineSpec, Stage
>>> from repro.service.spec import FleetSpec
>>> p = PipelineSpec("mini", (
...     Stage("pull", "extract", tasks=4, seconds_per_task=2.0),
...     Stage("publish", "load", tasks=1, seconds_per_task=1.0,
...           inputs=("pull",)),), freshness_sla_seconds=600.0)
>>> plan = EtlScheduler(mode="delayed",
...                     offpeak_start_seconds=300.0).plan(
...     p, FleetSpec.homogeneous(4))
>>> plan.start_seconds
300.0
>>> plan.release_of("publish") > plan.release_of("pull")
True
>>> max(s.release_seconds + s.duration_estimate_seconds
...     for s in plan.stages) <= p.freshness_sla_seconds
True
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.records import Record
from repro.service.spec import FleetSpec
from repro.workloads.pipelines.spec import (PipelineError, PipelineSpec,
                                            Stage)

#: the scheduling-mode vocabulary
MODES: tuple[str, ...] = ("eager", "delayed", "consolidated")


@dataclass(frozen=True)
class PlannedStage(Record):
    """One stage's planned release window."""

    stage: str
    #: absolute release instant on the stream clock
    release_seconds: float
    #: slack-inflated duration estimate used for children's releases
    duration_estimate_seconds: float
    #: node-equivalents the estimate assumed the stage can occupy
    parallelism: float


@dataclass(frozen=True)
class StagePlan(Record):
    """A pipeline's planned releases under one scheduling mode."""

    pipeline: str
    mode: str
    #: absolute instant the first root stage releases
    start_seconds: float
    #: the pipeline's absolute complete-by instant
    deadline_seconds: float
    stages: tuple[PlannedStage, ...]

    def release_of(self, stage: str) -> float:
        for p in self.stages:
            if p.stage == stage:
                return p.release_seconds
        raise PipelineError(
            f"plan for {self.pipeline!r} has no stage {stage!r}")

    def planned(self, stage: str) -> PlannedStage:
        for p in self.stages:
            if p.stage == stage:
                return p
        raise PipelineError(
            f"plan for {self.pipeline!r} has no stage {stage!r}")


@dataclass(frozen=True)
class EtlScheduler:
    """Plans stage releases for one pipeline under one mode.

    ``slack_fraction`` inflates every duration estimate (default 25%),
    and every estimate additionally absorbs one fleet boot time (the
    slowest node class's ``boot_seconds``) — a stage's burst can force the
    autoscaler to boot nodes, and its tasks queue for the full boot
    before any of them runs.  A child stage never releases before its
    parents' *inflated* estimated completions, which is what keeps
    measured precedence violations at zero in practice.
    """

    mode: str = "eager"
    #: the instant the pipeline's input data lands; no stage may
    #: release earlier, and ``eager`` starts exactly here
    ready_seconds: float = 0.0
    #: where the delayed/consolidated modes try to start (absolute;
    #: typically the end of the interactive peak window)
    offpeak_start_seconds: float = 0.0
    #: fractional inflation applied to every duration estimate
    slack_fraction: float = 0.25
    #: offered-demand ceiling (node-equivalents) for paced arrivals in
    #: ``consolidated`` mode
    consolidation_node_equivalents: float = 1.5

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise PipelineError(
                f"unknown scheduling mode {self.mode!r} "
                f"(one of {', '.join(MODES)})")
        if self.ready_seconds < 0:
            raise PipelineError("ready_seconds cannot be negative")
        if self.offpeak_start_seconds < 0:
            raise PipelineError("offpeak_start_seconds cannot be negative")
        if self.slack_fraction < 0:
            raise PipelineError("slack_fraction cannot be negative")
        if self.consolidation_node_equivalents <= 0:
            raise PipelineError(
                "consolidation_node_equivalents must be positive")

    def _parallelism(self, stage: Stage, fleet: FleetSpec) -> float:
        cap = fleet.total_capacity
        if self.mode == "consolidated":
            cap = min(cap, self.consolidation_node_equivalents)
        return min(float(stage.tasks), cap)

    def plan(self, pipeline: PipelineSpec, fleet: FleetSpec) -> StagePlan:
        """Compute the release plan; raises :class:`PipelineError` when
        the freshness SLA cannot be met even from time 0."""
        inflate = 1.0 + self.slack_fraction
        # per-stage headroom against boot waves and queueing
        headroom = max(c.model.boot_seconds for c in fleet.classes)
        release: dict[str, float] = {}
        duration: dict[str, float] = {}
        planned: dict[str, PlannedStage] = {}
        for stage in pipeline.topological():
            par = self._parallelism(stage, fleet)
            dur = stage.work_seconds / par * inflate + headroom
            rel = max((release[dep] + duration[dep]
                       for dep in stage.inputs), default=0.0)
            release[stage.name] = rel
            duration[stage.name] = dur
            planned[stage.name] = PlannedStage(
                stage=stage.name, release_seconds=rel,
                duration_estimate_seconds=dur, parallelism=par)

        makespan_est = max(release[s.name] + duration[s.name]
                           for s in pipeline.stages)
        deadline = pipeline.freshness_sla_seconds
        latest_start = deadline - makespan_est
        if latest_start < self.ready_seconds:
            raise PipelineError(
                f"pipeline {pipeline.name!r} cannot meet its freshness "
                f"SLA in mode {self.mode!r}: estimated makespan "
                f"{makespan_est:.1f}s exceeds the {deadline:.1f}s "
                "complete-by instant even when started the moment the "
                f"inputs land ({self.ready_seconds:.1f}s)")
        if self.mode == "eager":
            start = self.ready_seconds
        else:
            start = max(self.ready_seconds,
                        min(self.offpeak_start_seconds, latest_start))

        shifted = tuple(
            PlannedStage(stage=p.stage,
                         release_seconds=start + p.release_seconds,
                         duration_estimate_seconds=(
                             p.duration_estimate_seconds),
                         parallelism=p.parallelism)
            for p in (planned[s.name] for s in pipeline.stages))
        return StagePlan(pipeline=pipeline.name, mode=self.mode,
                         start_seconds=start, deadline_seconds=deadline,
                         stages=shifted)

    def task_times(self, planned: PlannedStage,
                   stage: Stage) -> np.ndarray:
        """Arrival instants for one stage's tasks under this mode.

        Eager and delayed release the whole group as a burst at the
        stage's release instant; consolidated paces tasks at an
        inter-arrival of ``seconds_per_task /
        consolidation_node_equivalents``, capping the stage's offered
        demand at the consolidation ceiling.
        """
        if self.mode != "consolidated":
            return np.full(stage.tasks, planned.release_seconds)
        gap = stage.seconds_per_task / self.consolidation_node_equivalents
        return planned.release_seconds + gap * np.arange(stage.tasks)
