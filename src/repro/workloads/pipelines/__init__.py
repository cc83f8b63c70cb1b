"""Batch ETL pipelines as scheduled tenants of the serving fleet.

The paper's §3-§4 agenda asks when data-management work should be
*delayed and consolidated* onto already-hot nodes rather than executed
eagerly.  This package asks it concretely: declarative stage DAGs
(:mod:`~repro.workloads.pipelines.spec`) run as batch tenants of
:func:`~repro.service.fleet.simulate_service` under an
:class:`~repro.workloads.pipelines.schedule.EtlScheduler` (eager /
delayed / consolidated), with per-stage energy attribution through
:mod:`repro.telemetry` spans, a dataset manifest
(:mod:`~repro.workloads.pipelines.catalog`), and the ``svc_etl``
experiment answering the question with gated numbers.

See PIPELINES.md for the author-facing guide.
"""

from repro.workloads.pipelines.catalog import DatasetVersion
from repro.workloads.pipelines.experiments import (default_pipeline,
                                                   etl_point)
from repro.workloads.pipelines.report import (ETL_MODES, EtlReport,
                                              StageStats)
from repro.workloads.pipelines.run import run_pipeline
from repro.workloads.pipelines.schedule import (MODES, EtlScheduler,
                                                PlannedStage, StagePlan)
from repro.workloads.pipelines.spec import (KINDS, PipelineError,
                                            PipelineSpec, Stage)
from repro.workloads.pipelines.tenants import BatchTenant, stage_tenant_name

__all__ = [
    "BatchTenant",
    "DatasetVersion",
    "ETL_MODES",
    "EtlReport",
    "EtlScheduler",
    "KINDS",
    "MODES",
    "PipelineError",
    "PipelineSpec",
    "PlannedStage",
    "Stage",
    "StagePlan",
    "StageStats",
    "default_pipeline",
    "etl_point",
    "run_pipeline",
    "stage_tenant_name",
]
