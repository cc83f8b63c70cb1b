"""Run one pipeline on the serving fleet and read back the ETL story.

:func:`run_pipeline` is the pipelines layer's ``simulate_service``:
plan the stage releases (:class:`~repro.workloads.pipelines.schedule.
EtlScheduler`), merge the stage arrivals into the interactive stream
(:class:`~repro.workloads.pipelines.tenants.BatchTenant`), serve the
merged stream, then derive the pipeline-level outcome from the
per-arrival latencies the engines expose as runtime metadata
(:attr:`~repro.service.report.ServiceReport.latencies`): per-stage
completion windows, the freshness verdict, measured precedence
violations, and the dataset versions the load stages published.

**Per-stage energy attribution.**  When a :func:`repro.telemetry.
capture` collector is installed, the serving run executes with the
device mirror (on either engine), and this module opens one root
span ``pipeline.<name>.<stage>`` per stage *after* the run — span
Joules are integrals of the mirrored device power series over the span
window, so post-hoc spans are exact.  The windows are the consecutive
completion-ordered tiles of ``[0, makespan]`` (each stage owns the
fleet interval it closes, the last stage's tile extends to the end of
the run), so the per-stage Joules sum to the closed-form report's
``energy_joules`` at 1e-9 — the same reconciliation contract the
telemetry mirror itself is pinned to.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.observe import current_collector
from repro.service.autoscale import Autoscaler
from repro.service.fleet import simulate_service
from repro.service.spec import FleetSpec
from repro.service.workload import ArrivalStream
from repro.workloads.pipelines.catalog import DatasetVersion
from repro.workloads.pipelines.report import EtlReport, StageStats
from repro.workloads.pipelines.schedule import EtlScheduler, StagePlan
from repro.workloads.pipelines.spec import PipelineSpec
from repro.workloads.pipelines.tenants import BatchTenant, stage_tenant_name

#: telemetry root spans are namespaced under this prefix
PIPELINE_SPAN_PREFIX = "pipeline."


def run_pipeline(pipeline: PipelineSpec,
                 fleet: Optional[FleetSpec] = None,
                 scheduler: Optional[EtlScheduler] = None,
                 interactive: Optional[ArrivalStream] = None,
                 policy="power_aware",
                 autoscaler: Optional[Autoscaler] = None,
                 engine: str = "auto",
                 **policy_kwargs) -> EtlReport:
    """Serve ``pipeline`` (plus ``interactive`` traffic, if any) and
    return the :class:`EtlReport`.

    The published :class:`DatasetVersion` entries ride the report's
    ``catalog``.  Fault schedules are not accepted here — batch work
    under chaos goes to ``simulate_faulty_service`` directly (see
    OPERATIONS.md on freshness during incidents).
    """
    if fleet is None:
        fleet = FleetSpec.homogeneous(16)
    if scheduler is None:
        scheduler = EtlScheduler()
    adapter = BatchTenant(pipeline, scheduler)
    merged, plan = adapter.attach(interactive, fleet)

    report = simulate_service(merged, fleet=fleet, policy=policy,
                              autoscaler=autoscaler, engine=engine,
                              **policy_kwargs)
    latencies = report.latencies

    n_base = len(merged.tenants) - len(pipeline.stages)
    model = fleet.classes[0].model
    scale = 1.0 / model.speed_factor
    marginal_watts = model.peak_watts - model.idle_watts

    times = merged.times
    tenant_idx = merged.tenant_index
    stage_completion: dict[str, float] = {}
    stage_last: dict[str, float] = {}
    stage_starts: dict[str, np.ndarray] = {}
    raw: list[dict] = []
    for j, stage in enumerate(pipeline.stages):
        mask = tenant_idx == n_base + j
        lat = latencies[mask]
        done = lat == lat  # batch arrivals are admission-exempt, but
        completed = int(done.sum())  # guard against NaN all the same
        completions = times[mask][done] + lat[done]
        last = float(completions.max()) if completed else float("nan")
        scaled = stage.seconds_per_task * scale
        stage_completion[stage.name] = last
        stage_last[stage.name] = last
        stage_starts[stage.name] = completions - scaled
        raw.append({
            "stage": stage, "completed": completed, "last": last,
            "busy_joules": completed * scaled * marginal_watts,
        })

    violations = 0
    for stage in pipeline.stages:
        parents_last = max((stage_last[d] for d in stage.inputs),
                          default=float("-inf"))
        if parents_last == float("-inf"):
            continue
        starts = stage_starts[stage.name]
        violations += int((starts < parents_last - 1e-9).sum())

    completion = max(stage_completion.values())
    fresh = completion <= pipeline.freshness_sla_seconds

    entries = []
    for stage in pipeline.stages:
        ds = stage.published_dataset
        if ds is None:
            continue
        entries.append(DatasetVersion(
            dataset=ds,
            version=pipeline.pipeline_hash[:12],
            pipeline=pipeline.name,
            stage=stage.name,
            produced_at_seconds=stage_completion[stage.name],
            fresh=(stage_completion[stage.name]
                   <= pipeline.freshness_sla_seconds),
            tasks=pipeline.stage(stage.name).tasks,
        ))

    tiles = _attribution_tiles(pipeline, plan, stage_completion,
                               report.makespan_seconds)
    _open_stage_spans(pipeline, tiles)

    stages = []
    for j, (stage, info) in enumerate(zip(pipeline.stages, raw)):
        start, end = tiles[stage.name]
        stages.append(StageStats(
            stage=stage.name,
            kind=stage.kind,
            tenant=stage_tenant_name(pipeline.name, stage.name),
            tasks=stage.tasks,
            completed=info["completed"],
            release_seconds=plan.release_of(stage.name),
            completion_seconds=info["last"],
            deadline_seconds=pipeline.freshness_sla_seconds,
            busy_joules=info["busy_joules"],
            attribution_start_seconds=start,
            attribution_end_seconds=end,
        ))

    return EtlReport(
        pipeline=pipeline.name,
        pipeline_hash=pipeline.pipeline_hash,
        mode=scheduler.mode,
        freshness_sla_seconds=pipeline.freshness_sla_seconds,
        completion_seconds=completion,
        freshness_met=fresh,
        precedence_violations=violations,
        stages=stages,
        plan=plan.to_dict(),
        catalog=[e.to_dict() for e in entries],
        service=report,
    )


def _attribution_tiles(pipeline: PipelineSpec,
                       plan: StagePlan,
                       completion: dict[str, float],
                       makespan: float) -> dict[str, tuple[float, float]]:
    """Consecutive completion-ordered windows tiling ``[0, makespan]``.

    Stage ``k`` (in completion order) owns ``[completion[k-1],
    completion[k]]``; the first tile reaches back to time 0 and the
    last extends to the makespan, so the tiles partition the whole run
    and integrals over them sum to the whole-run integral exactly.
    """
    order = sorted(pipeline.stages,
                   key=lambda s: (completion[s.name], s.name))
    tiles: dict[str, tuple[float, float]] = {}
    prev = 0.0
    for i, stage in enumerate(order):
        end = makespan if i == len(order) - 1 \
            else max(prev, completion[stage.name])
        tiles[stage.name] = (prev, end)
        prev = end
    return tiles


def _open_stage_spans(pipeline: PipelineSpec,
                      tiles: dict[str, tuple[float, float]]) -> None:
    """Materialize the attribution tiles as telemetry root spans.

    No-op without an installed collector.  Spans are opened and closed
    immediately with explicit window bounds; the collector integrates
    the mirrored device power series over each window at finalize, so
    opening them after the run loses nothing.
    """
    collector = current_collector()
    if collector is None:
        return
    for stage in pipeline.stages:
        start, end = tiles[stage.name]
        span = collector.stack.open(
            f"{PIPELINE_SPAN_PREFIX}{pipeline.name}.{stage.name}",
            start, collector.busy_snapshot(), root=True)
        collector.stack.close(span, end, collector.busy_snapshot())
