"""repro: energy-efficient data management, reproduced.

A working reproduction of Harizopoulos, Meza, Shah & Ranganathan,
"Energy Efficiency: The New Holy Grail of Data Management Systems
Research" (CIDR 2009): an energy-metered discrete-event hardware
substrate, a complete analytical query engine on top of it, an
energy-aware optimizer, consolidation machinery, a fleet-scale serving
layer, and the paper's two experiments plus ablations for its research
agenda.

Quick start::

    from repro import ExperimentSpec, Runner
    run = Runner(workers=4).run(ExperimentSpec("fig2"))
    print(run.aggregate().rows())     # Figure 2, regenerated

or, from a shell::

    python -m repro.runner run fig1 --disks 36,66 --workers 2
    python -m repro.runner run svc_policies   # fleet serving sweep
"""

from repro.consolidation.scheduler import ScheduleReport
from repro.core.metrics import energy_efficiency, perf_per_watt
from repro.faults import (FaultSchedule, RetryPolicy, ShedPolicy,
                          build_fault_schedule, simulate_faulty_service)
from repro.relational.executor import ExecutionContext, Executor, QueryResult
from repro.runner import ExperimentSpec, Runner, RunResult
from repro.service.fleet import simulate_service
from repro.service.report import ServiceReport, ServiceSweepResult
from repro.service.spec import FleetSpec, NodeClass
from repro.service.workload import build_diurnal_stream
from repro.sim import Simulation
from repro.workloads.pipelines import (BatchTenant, DatasetCatalog,
                                       EtlReport, EtlScheduler,
                                       EtlSweepResult, PipelineSpec, Stage,
                                       run_pipeline)

__version__ = "2.1.0"

__all__ = [
    "BatchTenant",
    "DatasetCatalog",
    "EtlReport",
    "EtlScheduler",
    "EtlSweepResult",
    "ExecutionContext",
    "Executor",
    "ExperimentSpec",
    "FaultSchedule",
    "FleetSpec",
    "NodeClass",
    "PipelineSpec",
    "QueryResult",
    "RetryPolicy",
    "RunResult",
    "Runner",
    "ScheduleReport",
    "ServiceReport",
    "ServiceSweepResult",
    "ShedPolicy",
    "Simulation",
    "Stage",
    "build_diurnal_stream",
    "build_fault_schedule",
    "energy_efficiency",
    "perf_per_watt",
    "run_pipeline",
    "simulate_faulty_service",
    "simulate_service",
]
