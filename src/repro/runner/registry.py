"""The experiment registry: names the runner can execute.

Each entry binds an experiment name to a *point function* (the physics
of one sweep point), its default knob grid, and an optional aggregator
that folds the finished points back into the figure-level result
object the paper-facing code expects.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runner.runner import PointResult
    from repro.runner.spec import ExperimentSpec


class UnknownExperimentError(ReproError):
    """The spec names an experiment nobody registered."""


class UnknownKnobError(ReproError):
    """The spec sets a knob the experiment's point function lacks."""


@dataclass(frozen=True)
class ExperimentDef:
    """One runnable experiment."""

    name: str
    title: str
    point_fn: Callable[..., Any]
    defaults: Mapping[str, Any] = field(default_factory=dict)
    aggregate: Optional[Callable[[Sequence["PointResult"]], Any]] = None
    profile: str = ""

    def knob_names(self) -> set[str]:
        """Knob names the point function accepts (plus ``seed``)."""
        params = inspect.signature(self.point_fn).parameters
        return {p.name for p in params.values()
                if p.kind in (p.POSITIONAL_OR_KEYWORD,
                              p.KEYWORD_ONLY)} | {"seed"}

    def validate_knobs(self, knobs: Mapping[str, Any]) -> None:
        """Reject knobs the point function can't take, by name."""
        params = inspect.signature(self.point_fn).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            return
        unknown = sorted(set(knobs) - self.knob_names())
        if unknown:
            known = ", ".join(sorted(self.knob_names()))
            raise UnknownKnobError(
                f"unknown knob(s) {', '.join(map(repr, unknown))} for "
                f"experiment {self.name!r}; valid knobs: {known}")

    def call_point(self, knobs: Mapping[str, Any], seed: int) -> Any:
        """Invoke the point function, passing ``seed`` iff it takes one."""
        kwargs = dict(knobs)
        params = inspect.signature(self.point_fn).parameters
        if "seed" in params:
            kwargs.setdefault("seed", seed)
        else:
            kwargs.pop("seed", None)
        return self.point_fn(**kwargs)


_REGISTRY: dict[str, ExperimentDef] = {}


def register_experiment(defn: ExperimentDef) -> ExperimentDef:
    _REGISTRY[defn.name] = defn
    return defn


def get_experiment(name: str) -> ExperimentDef:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise UnknownExperimentError(
            f"unknown experiment {name!r}; registered: {known}") from None


def list_experiments() -> list[ExperimentDef]:
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def default_spec(name: str, **knob_overrides: Any) -> "ExperimentSpec":
    """A spec for ``name`` with registered defaults plus overrides."""
    from repro.runner.spec import ExperimentSpec
    defn = get_experiment(name)
    return ExperimentSpec(name, knobs=knob_overrides,
                          profile=defn.profile)


# -- built-in experiments -------------------------------------------------

def _fig1_aggregate(points: Sequence["PointResult"]) -> Any:
    from repro.core.experiments import Figure1Result
    return Figure1Result(
        disk_counts=[p.knobs["disks"] for p in points],
        reports=[p.report for p in points])


def _fig2_aggregate(points: Sequence["PointResult"]) -> Any:
    from repro.core.experiments import Figure2Result
    by_codec = {bool(p.knobs["compressed"]): p.report for p in points}
    if set(by_codec) != {False, True}:
        raise ReproError("fig2 needs exactly the compressed={False,True}"
                         " sweep to aggregate")
    return Figure2Result(uncompressed=by_codec[False],
                         compressed=by_codec[True])


def _register_builtin_experiments() -> None:
    from repro.consolidation.experiments import batching_point
    from repro.core.experiments import figure1_point, figure2_point
    from repro.faults.experiments import chaos_aggregate, chaos_point
    from repro.hardware.profiles import FIG1_DISK_COUNTS
    from repro.service.experiments import (hetero_aggregate, hetero_point,
                                           mega_calibration_point,
                                           pvc_qed_aggregate,
                                           pvc_qed_point, service_point,
                                           svc_aggregate)
    from repro.workloads.duty_cycle import run_duty_cycle
    from repro.workloads.pipelines.experiments import (etl_aggregate,
                                                       etl_point)
    from repro.workloads.scan_workload import run_scan

    register_experiment(ExperimentDef(
        name="fig1",
        title="Figure 1: TPC-H throughput test vs. number of disks "
              "(DL785, RAID 5)",
        point_fn=figure1_point,
        defaults={
            "disks": list(FIG1_DISK_COUNTS),
            "physical_scale_factor": 0.002,
            "logical_scale_factor": 300.0,
            "streams": 6,
            "queries_per_stream": 3,
            "parallelism": 4,
            "spindle_groups": 12,
        },
        aggregate=_fig1_aggregate,
        profile="dl785",
    ))
    register_experiment(ExperimentDef(
        name="fig2",
        title="Figure 2: uncompressed vs. compressed scan on the flash "
              "node",
        point_fn=figure2_point,
        defaults={
            "compressed": [False, True],
            "scale_factor": 0.002,
            "dvfs_fraction": 1.0,
        },
        aggregate=_fig2_aggregate,
        profile="flash_scan_node",
    ))
    register_experiment(ExperimentDef(
        name="scan",
        title="Flash column-scan microbenchmark (free knob grid over "
              "compression, DVFS, codec, scale)",
        point_fn=run_scan,
        defaults={
            "compressed": False,
            "scale_factor": 0.002,
            "dvfs_fraction": 1.0,
            "codec": None,
        },
        profile="flash_scan_node",
    ))
    register_experiment(ExperimentDef(
        name="batching",
        title="A3: FIFO vs. batched scheduling with array spin-down "
              "(consolidation in time, §4.2)",
        point_fn=batching_point,
        defaults={
            "policy": ["fifo", "batched"],
            "window_seconds": 120.0,
            "queries": 12,
            "rate_per_s": 1.0 / 45.0,
            "table_rows": 2000,
            "scale": 200.0,
            "tail_seconds": 300.0,
        },
        profile="commodity",
    ))
    _SVC_DEFAULTS = {
        "nodes": 16,
        "profile": "commodity",
        "pack_backlog_seconds": 0.2,
        "admission_limit_seconds": None,
        "target_utilization": 0.55,
        "epoch_seconds": 30.0,
        "min_nodes": 2,
    }
    register_experiment(ExperimentDef(
        name="svc_policies",
        title="Serving: dispatch-policy sweep, 3 x 350k queries on a "
              "16-node fleet (consolidation in space, §4.2)",
        point_fn=service_point,
        defaults={
            "policy": ["round_robin", "least_loaded", "power_aware"],
            "queries": 350_000,
            **_SVC_DEFAULTS,
        },
        aggregate=svc_aggregate,
        profile="commodity",
    ))
    register_experiment(ExperimentDef(
        name="svc_smoke",
        title="Serving: small dispatch-policy sweep for CI smoke / "
              "observatory gating",
        point_fn=service_point,
        defaults={
            "policy": ["round_robin", "least_loaded", "power_aware"],
            "queries": 20_000,
            **_SVC_DEFAULTS,
        },
        aggregate=svc_aggregate,
        profile="commodity",
    ))
    register_experiment(ExperimentDef(
        name="svc_fleet",
        title="Serving: power-aware packing vs. fleet size",
        point_fn=service_point,
        defaults={
            "policy": "power_aware",
            "queries": 150_000,
            **_SVC_DEFAULTS,
            "nodes": [8, 16, 32, 64],
        },
        aggregate=svc_aggregate,
        profile="commodity",
    ))
    register_experiment(ExperimentDef(
        name="svc_hetero",
        title="Serving: heterogeneous fleet composition x load x SLA "
              "frontier (wimpy-vs-beefy crossover, arXiv 1208.1933)",
        point_fn=hetero_point,
        defaults={
            "composition": ["beefy", "wimpy", "mixed"],
            "load": [0.05, 0.2, 0.6, 1.2],
            "sla_scale": [1.0, 0.35],
            "policy": "power_aware",
            "queries": 40_000,
            "pack_backlog_seconds": 0.2,
            "admission_limit_seconds": None,
            "target_utilization": 0.55,
            "epoch_seconds": 30.0,
            "min_nodes": 2,
        },
        aggregate=hetero_aggregate,
        profile="commodity",
    ))
    register_experiment(ExperimentDef(
        name="svc_pvc_qed",
        title="Serving: PVC frequency governor x QED batching, "
              "energy-vs-p95 Pareto frontier vs. power_aware "
              "(arXiv 0909.1767)",
        point_fn=pvc_qed_point,
        defaults={
            "config": ["power_aware", "pvc", "qed", "pvc_qed"],
            "sla_headroom": [0.35, 0.7],
            "queries": 40_000,
            "nodes": 16,
            "profile": "commodity",
            "hold_seconds": 0.5,
            "shared_fraction": 0.7,
            "max_batch": 32,
            "pack_backlog_seconds": 0.2,
            "admission_limit_seconds": None,
            "target_utilization": 0.55,
            "epoch_seconds": 30.0,
            "min_nodes": 2,
        },
        aggregate=pvc_qed_aggregate,
        profile="commodity",
    ))
    register_experiment(ExperimentDef(
        name="svc_etl",
        title="Serving: batch ETL as scheduled tenants — eager vs. "
              "delayed vs. consolidated marginal Joules under "
              "freshness SLAs (§3-§4 consolidation in time)",
        point_fn=etl_point,
        defaults={
            "mode": ["none", "eager", "delayed", "consolidated"],
            "load": [1.0, 1.6],
            "day_seconds": 1800.0,
            "peak_seconds": 900.0,
            "offpeak_load": 0.15,
            "etl_scale": 1.0,
            "freshness_sla_seconds": 1680.0,
            "etl_ready_seconds": None,
            "policy": "power_aware",
            **_SVC_DEFAULTS,
        },
        aggregate=etl_aggregate,
        profile="commodity",
    ))
    _MEGA_DEFAULTS = {
        "load": 30.0,
        "profile": "commodity",
        "pack_backlog_seconds": 0.2,
        "admission_limit_seconds": None,
        "target_utilization": 0.55,
        "epoch_seconds": 30.0,
        "min_nodes": 2,
    }
    register_experiment(ExperimentDef(
        name="svc_mega",
        title="Serving: fleet-scale dispatch sweep, 10M queries x 256 "
              "nodes on the vectorized array-of-events core",
        point_fn=service_point,
        defaults={
            "policy": ["round_robin", "least_loaded", "power_aware"],
            "queries": 10_000_000,
            "nodes": 256,
            "engine": "auto",
            **_MEGA_DEFAULTS,
        },
        aggregate=svc_aggregate,
        profile="commodity",
    ))
    register_experiment(ExperimentDef(
        name="svc_mega_smoke",
        title="Serving: scaled-down svc_mega for CI smoke / "
              "observatory gating (same fleet and load shape)",
        point_fn=service_point,
        defaults={
            "policy": ["round_robin", "least_loaded", "power_aware"],
            "queries": 200_000,
            "nodes": 256,
            "engine": "auto",
            **_MEGA_DEFAULTS,
        },
        aggregate=svc_aggregate,
        profile="commodity",
    ))
    register_experiment(ExperimentDef(
        name="svc_mega_calibration",
        title="Serving: reference loop vs. event core on one 1M-query "
              "stream — byte-identity proof and speedup price",
        point_fn=mega_calibration_point,
        defaults={
            "policy": "power_aware",
            "queries": 1_000_000,
            "nodes": 256,
            **_MEGA_DEFAULTS,
        },
        profile="commodity",
    ))
    _CHAOS_DEFAULTS = {
        "policy": "power_aware",
        "profile": "commodity",
        "crash_rate_per_node_hour": 0.8,
        "crash_downtime_seconds": 300.0,
        "throttle_rate_per_node_hour": 0.3,
        "throttle_dvfs_fraction": 0.7,
        "disk_rate_per_node_hour": 0.1,
        "raid_width": 8,
        "timeout_rate_per_node_hour": 0.2,
        "max_attempts": 4,
        "base_backoff_seconds": 0.05,
        "timeout_detect_seconds": 0.5,
        "shed_slack_fraction": 0.5,
        "pack_backlog_seconds": 0.2,
        "target_utilization": 0.55,
        "epoch_seconds": 30.0,
        "min_nodes": 2,
    }
    register_experiment(ExperimentDef(
        name="chaos_smoke",
        title="Chaos: small fault-injection run for CI smoke / "
              "observatory gating (crashes, throttling, disk, timeouts)",
        point_fn=chaos_point,
        defaults={
            "queries": 20_000,
            "nodes": 8,
            "intensity": 1.0,
            **_CHAOS_DEFAULTS,
        },
        aggregate=chaos_aggregate,
        profile="commodity",
    ))
    register_experiment(ExperimentDef(
        name="chaos_frontier",
        title="Chaos: availability-vs-energy frontier, 500k queries on "
              "16 nodes across fault intensities",
        point_fn=chaos_point,
        defaults={
            "queries": 500_000,
            "nodes": 16,
            "intensity": [0.5, 1.0, 2.0],
            **_CHAOS_DEFAULTS,
        },
        aggregate=chaos_aggregate,
        profile="commodity",
    ))
    register_experiment(ExperimentDef(
        name="proportionality",
        title="A8: duty-cycle utilization sweep, real vs. ideal "
              "proportional machine",
        point_fn=run_duty_cycle,
        defaults={
            "utilization": [0.0, 0.25, 0.5, 0.75, 1.0],
            "kind": "real",
            "window_seconds": 100.0,
            "period_seconds": 1.0,
            "peak_watts": None,
        },
        profile="commodity",
    ))


_register_builtin_experiments()
