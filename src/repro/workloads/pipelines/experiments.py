"""The ``svc_etl`` experiment: when does delaying batch ETL save Joules?

One point serves one diurnal interactive day (peak then trough,
:func:`~repro.service.workload.build_diurnal_stream`) with the
``nightly_sales`` pipeline attached under one scheduling mode — or, for
``mode="none"``, the identical day with no pipeline at all, the
baseline that isolates each mode's *marginal* Joules.  The sweep grid
is the ROADMAP question operationalized: scheduling mode × interactive
load, with the autoscaled ``power_aware`` fleet reacting to whatever
demand the scheduler creates.

The energy mechanics under measurement: batch work's *busy* Joules are
mode-invariant (energy is utilization-linear), so every measured delta
comes from fleet dynamics — an eager burst in the middle of the peak
inflates the autoscaler's demand estimate and books boot cycles plus
idle tail time at the worst moment; a delayed burst lands at the peak's
edge on nodes that are booted but newly idle; a consolidated trickle
stays under the trough fleet's existing capacity and books nothing.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.service.experiments import _policy_and_autoscaler
from repro.service.fleet import simulate_service
from repro.service.node import NodePowerModel
from repro.service.spec import FleetSpec
from repro.service.workload import build_diurnal_stream
from repro.workloads.pipelines.report import (ETL_MODES, EtlReport,
                                              EtlSweepResult)
from repro.workloads.pipelines.run import run_pipeline
from repro.workloads.pipelines.schedule import EtlScheduler
from repro.workloads.pipelines.spec import (PipelineError, PipelineSpec,
                                            Stage)


def default_pipeline(scale: float = 1.0,
                     freshness_sla_seconds: float = 1680.0
                     ) -> PipelineSpec:
    """The ``nightly_sales`` reference pipeline.

    A classic extract → clean → join → aggregate → load DAG over two
    sources; ``scale`` multiplies every stage's task count (≥ 1), so
    the same shape sweeps from a smoke test to a fleet-filling batch.
    """
    if scale <= 0:
        raise PipelineError("pipeline scale must be positive")

    def n(tasks: int) -> int:
        return max(1, round(tasks * scale))

    return PipelineSpec(
        name="nightly_sales",
        freshness_sla_seconds=freshness_sla_seconds,
        stages=(
            Stage("extract_orders", "extract",
                  tasks=n(8), seconds_per_task=6.0),
            Stage("extract_customers", "extract",
                  tasks=n(4), seconds_per_task=4.0),
            Stage("clean_orders", "clean",
                  tasks=n(8), seconds_per_task=4.0,
                  inputs=("extract_orders",)),
            Stage("join_enrich", "join",
                  tasks=n(8), seconds_per_task=8.0,
                  inputs=("clean_orders", "extract_customers")),
            Stage("aggregate_daily", "aggregate",
                  tasks=n(4), seconds_per_task=6.0,
                  inputs=("join_enrich",)),
            Stage("load_warehouse", "load",
                  tasks=n(2), seconds_per_task=5.0,
                  inputs=("aggregate_daily",), dataset="sales_daily"),
        ),
    )


def etl_point(mode: str = "eager",
              load: float = 1.0,
              day_seconds: float = 1800.0,
              peak_seconds: float = 900.0,
              offpeak_load: float = 0.15,
              etl_scale: float = 1.0,
              freshness_sla_seconds: float = 1680.0,
              etl_ready_seconds: Optional[float] = None,
              nodes: int = 16,
              profile: str = "commodity",
              policy: str = "power_aware",
              pack_backlog_seconds: float = 0.2,
              admission_limit_seconds: Optional[float] = None,
              target_utilization: float = 0.55,
              epoch_seconds: float = 30.0,
              min_nodes: int = 2,
              seed: int = 0,
              *,  # late knobs: hashed and keyed only where set
              offpeak_start_seconds: Optional[float] = None,
              slack_fraction: float = 0.25,
              consolidation_node_equivalents: float = 1.5) -> EtlReport:
    """Serve one diurnal day with the pipeline under one mode.

    ``load`` multiplies the peak-phase interactive rates (the trough
    stays at ``offpeak_load`` of the loaded peak); ``load=0`` drops
    interactive traffic entirely — the configuration the
    zero-interactive equivalence property pins against a standalone
    :func:`~repro.workloads.pipelines.run.run_pipeline`.
    ``mode="none"`` serves the interactive day with no pipeline: the
    baseline for marginal-Joules arithmetic.
    """
    if mode not in ETL_MODES:
        raise PipelineError(
            f"unknown mode {mode!r} (one of {', '.join(ETL_MODES)})")
    if load < 0:
        raise PipelineError("interactive load cannot be negative")

    interactive = None
    if load > 0:
        interactive = build_diurnal_stream(
            day_seconds, peak_seconds,
            peak_load=load, offpeak_load=load * offpeak_load,
            seed=seed)

    fleet = FleetSpec.homogeneous(
        nodes, NodePowerModel.from_server(profile))
    dispatch, autoscaler = _policy_and_autoscaler(policy, fleet, {
        "pack_backlog_seconds": pack_backlog_seconds,
        "admission_limit_seconds": admission_limit_seconds,
    }, epoch_seconds, target_utilization, min_nodes)

    pipeline = default_pipeline(etl_scale, freshness_sla_seconds)

    if mode == "none":
        if interactive is None:
            raise PipelineError(
                "mode 'none' needs interactive traffic: there is "
                "nothing else to serve")
        report = simulate_service(interactive, fleet=fleet,
                                  policy=dispatch,
                                  autoscaler=autoscaler)
        return EtlReport(
            pipeline=pipeline.name,
            pipeline_hash=pipeline.pipeline_hash,
            mode="none",
            freshness_sla_seconds=freshness_sla_seconds,
            completion_seconds=0.0,
            freshness_met=True,
            precedence_violations=0,
            service=report,
        )

    scheduler = EtlScheduler(
        mode=mode,
        # the day's extract inputs land mid-peak by default: eager
        # runs right there; delayed/consolidated wait for the trough
        ready_seconds=(peak_seconds / 2.0
                       if etl_ready_seconds is None
                       else etl_ready_seconds),
        offpeak_start_seconds=(peak_seconds
                               if offpeak_start_seconds is None
                               else offpeak_start_seconds),
        slack_fraction=slack_fraction,
        consolidation_node_equivalents=consolidation_node_equivalents,
    )
    return run_pipeline(pipeline, fleet=fleet, scheduler=scheduler,
                        interactive=interactive, policy=dispatch,
                        autoscaler=autoscaler)


def etl_aggregate(points: Sequence[Any]) -> EtlSweepResult:
    """Fold finished mode × load points into the sweep result."""
    order = {name: i for i, name in enumerate(ETL_MODES)}
    ordered = sorted(
        points,
        key=lambda p: (float(p.knobs["load"]),
                       order.get(str(p.knobs["mode"]), len(order))))
    return EtlSweepResult(
        modes=[str(p.knobs["mode"]) for p in ordered],
        loads=[float(p.knobs["load"]) for p in ordered],
        reports=[p.report for p in ordered])
