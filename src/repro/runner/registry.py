"""The experiment registry: names the runner can execute.

Each entry binds an experiment name to a *point function* (the physics
of one sweep point).  A run is its points: the code that asserts a
figure's claims reads them off the points' reports.  The point
function's signature is the one statement of the experiment's knob
defaults; a registration declares only what the experiment sets
differently — its sweep axes and its scale.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple

from repro.errors import ReproError


class UnknownExperimentError(ReproError):
    """The spec names an experiment nobody registered."""


class UnknownKnobError(ReproError):
    """The spec sets a knob the experiment's point function lacks."""


class _Knobs(NamedTuple):
    """What an experiment's point-function signature says, read once."""
    resolved: Mapping[str, Any]  # signature defaults, declared on top
    names: frozenset[str]     # the point function's named parameters
    types: Mapping[str, type]  # default's type: bool/int/float/str
    open: bool                # a ``**kwargs`` point function takes any knob


@dataclass(frozen=True)
class ExperimentDef:
    """One runnable experiment.

    ``defaults`` is overlaid on the point function's positional-or-
    keyword defaults (minus ``seed``) to give the resolved knobs — what
    a spec hash and a cache key cover.  A keyword-only parameter (after
    ``*``) is a *late knob*: any spec may set it, but it joins the
    resolved knobs only if ``defaults`` or the spec names it.
    """

    name: str
    title: str
    point_fn: Callable[..., Any]
    defaults: Mapping[str, Any] = field(default_factory=dict)
    profile: str = ""

    @cached_property
    def _knobs(self) -> _Knobs:
        params = inspect.signature(self.point_fn).parameters.values()
        names = {p.name for p in params
                 if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)}
        takes_any = any(p.kind is p.VAR_KEYWORD for p in params)
        unknown = sorted(set(self.defaults) - names - {"seed"})
        if unknown and not takes_any:
            raise ReproError(
                f"experiment {self.name!r} declares default(s) "
                f"{', '.join(map(repr, unknown))} that its point function "
                f"{self.point_fn.__qualname__}() does not take")
        resolved = {p.name: p.default for p in params
                    if p.kind is p.POSITIONAL_OR_KEYWORD
                    and p.default is not p.empty and p.name != "seed"}
        resolved.update(self.defaults)
        types = {p.name: type(p.default) for p in params
                 if type(p.default) in (bool, int, float, str)}
        return _Knobs(MappingProxyType(resolved), frozenset(names), types,
                      takes_any)

    @property
    def resolved_defaults(self) -> Mapping[str, Any]:
        """What a spec resolves to before its own knobs."""
        return self._knobs.resolved

    def knob_names(self) -> frozenset[str]:
        """Knob names the point function accepts (plus ``seed``)."""
        return self._knobs.names | {"seed"}

    def validate_knobs(self, knobs: Mapping[str, Any]) -> None:
        """Reject knobs the point function can't take, by name, and values
        not of their signature default's type (a float takes an int)."""
        unknown = sorted(set(knobs) - self.knob_names())
        if unknown and not self._knobs.open:
            known = ", ".join(sorted(self.knob_names()))
            raise UnknownKnobError(
                f"unknown knob(s) {', '.join(map(repr, unknown))} for "
                f"experiment {self.name!r}; valid knobs: {known}")
        for name in sorted(knobs.keys() & self._knobs.types.keys()):
            want, value = self._knobs.types[name], knobs[name]
            takes = (int, float) if want is float else want
            for v in value if isinstance(value, (list, tuple)) else [value]:
                if not isinstance(v, takes) or (
                        isinstance(v, bool) != (want is bool)):
                    raise ReproError(
                        f"knob {name} must be {want.__name__}, got {v!r}")

    def call_point(self, knobs: Mapping[str, Any], seed: int) -> Any:
        """Invoke the point function, passing ``seed`` iff it takes one."""
        kwargs = dict(knobs)
        if "seed" in self._knobs.names:
            kwargs.setdefault("seed", seed)
        else:
            kwargs.pop("seed", None)
        return self.point_fn(**kwargs)


_REGISTRY: dict[str, ExperimentDef] = {}


def register_experiment(defn: ExperimentDef) -> ExperimentDef:
    # reads the signature: a misnamed default fails here, not per point
    defn.validate_knobs(defn.defaults)
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


# -- built-in experiments -------------------------------------------------

def _register_builtin_experiments() -> None:
    from repro.consolidation.experiments import batching_point
    from repro.core.experiments import figure1_point, figure2_point
    from repro.faults.experiments import chaos_point
    from repro.hardware.profiles import FIG1_DISK_COUNTS
    from repro.service import experiments as svc
    from repro.workloads.duty_cycle import run_duty_cycle
    from repro.workloads.pipelines.experiments import etl_point
    from repro.workloads.scan_workload import run_scan

    # each registration declares its sweep axes and its own scale; every
    # other default is its point function's
    policies = ["round_robin", "least_loaded", "power_aware"]
    register_experiment(ExperimentDef(
        name="fig1",
        title="Figure 1: TPC-H throughput test vs. number of disks "
              "(DL785, RAID 5)",
        point_fn=figure1_point,
        defaults={"disks": list(FIG1_DISK_COUNTS)},
        profile="dl785"))
    register_experiment(ExperimentDef(
        name="fig2",
        title="Figure 2: uncompressed vs. compressed scan on the flash node",
        point_fn=figure2_point,
        defaults={"compressed": [False, True]},
        profile="flash_scan_node"))
    register_experiment(ExperimentDef(
        name="scan",
        title="Flash column-scan microbenchmark (free knob grid over "
              "compression, DVFS, codec, scale)",
        point_fn=run_scan, profile="flash_scan_node"))
    register_experiment(ExperimentDef(
        name="batching",
        title="A3: FIFO vs. batched scheduling with array spin-down "
              "(consolidation in time, §4.2)",
        point_fn=batching_point,
        defaults={"policy": ["fifo", "batched"]}, profile="commodity"))
    register_experiment(ExperimentDef(
        name="svc_policies",
        title="Serving: dispatch-policy sweep, 3 x 350k queries on a "
              "16-node fleet (consolidation in space, §4.2)",
        point_fn=svc.service_point,
        defaults={"policy": policies},
        profile="commodity"))
    register_experiment(ExperimentDef(
        name="svc_smoke",
        title="Serving: small dispatch-policy sweep for CI smoke / "
              "observatory gating",
        point_fn=svc.service_point,
        defaults={"policy": policies, "queries": 20_000},
        profile="commodity"))
    register_experiment(ExperimentDef(
        name="svc_fleet",
        title="Serving: power-aware packing vs. fleet size",
        point_fn=svc.service_point,
        defaults={"queries": 150_000, "nodes": [8, 16, 32, 64]},
        profile="commodity"))
    register_experiment(ExperimentDef(
        name="svc_hetero",
        title="Serving: heterogeneous fleet composition x load x SLA "
              "frontier (wimpy-vs-beefy crossover, arXiv 1208.1933)",
        point_fn=svc.hetero_point,
        defaults={"composition": ["beefy", "wimpy", "mixed"],
                  "load": [0.05, 0.2, 0.6, 1.2], "sla_scale": [1.0, 0.35]},
        profile="commodity"))
    register_experiment(ExperimentDef(
        name="svc_pvc_qed",
        title="Serving: PVC frequency governor x QED batching, "
              "energy-vs-p95 Pareto frontier vs. power_aware "
              "(arXiv 0909.1767)",
        point_fn=svc.pvc_qed_point,
        defaults={"config": ["power_aware", "pvc", "qed", "pvc_qed"],
                  "sla_headroom": [0.35, 0.7]},
        profile="commodity"))
    register_experiment(ExperimentDef(
        name="svc_etl",
        title="Serving: batch ETL as scheduled tenants — eager vs. "
              "delayed vs. consolidated marginal Joules under "
              "freshness SLAs (§3-§4 consolidation in time)",
        point_fn=etl_point,
        defaults={"mode": ["none", "eager", "delayed", "consolidated"],
                  "load": [1.0, 1.6]},
        profile="commodity"))
    # load and engine: late knobs the two mega sweeps were pinned with
    mega = {"policy": policies, "nodes": 256, "load": 30.0, "engine": "auto"}
    register_experiment(ExperimentDef(
        name="svc_mega",
        title="Serving: fleet-scale dispatch sweep, 10M queries x 256 "
              "nodes on the vectorized array-of-events core",
        point_fn=svc.service_point,
        defaults={**mega, "queries": 10_000_000},
        profile="commodity"))
    register_experiment(ExperimentDef(
        name="svc_mega_smoke",
        title="Serving: scaled-down svc_mega for CI smoke / "
              "observatory gating (same fleet and load shape)",
        point_fn=svc.service_point,
        defaults={**mega, "queries": 200_000},
        profile="commodity"))
    register_experiment(ExperimentDef(
        name="svc_mega_calibration",
        title="Serving: reference loop vs. event core on one 1M-query "
              "stream — byte-identity proof and speedup price",
        point_fn=svc.mega_calibration_point, profile="commodity"))
    register_experiment(ExperimentDef(
        name="chaos_smoke",
        title="Chaos: small fault-injection run for CI smoke / "
              "observatory gating (crashes, throttling, disk, timeouts)",
        point_fn=chaos_point,
        defaults={"queries": 20_000, "nodes": 8}, profile="commodity"))
    register_experiment(ExperimentDef(
        name="chaos_frontier",
        title="Chaos: availability-vs-energy frontier, 500k queries on "
              "16 nodes across fault intensities",
        point_fn=chaos_point,
        defaults={"queries": 500_000, "intensity": [0.5, 1.0, 2.0]},
        profile="commodity"))
    register_experiment(ExperimentDef(
        name="proportionality",
        title="A8: duty-cycle utilization sweep, real vs. ideal "
              "proportional machine",
        point_fn=run_duty_cycle,
        defaults={"utilization": [0.0, 0.25, 0.5, 0.75, 1.0]},
        profile="commodity"))


_register_builtin_experiments()
