"""Serving results: per-tenant SLA outcomes plus fleet energy.

A :class:`ServiceReport` is the serving analogue of
:class:`~repro.workloads.throughput.ThroughputReport`: one dispatch
policy's outcome over an open-loop arrival stream, carrying the
fleet-level energy, the per-tenant latency quantiles the SLA is written
against, and per-node utilization so the consolidation story ("idle
nodes sleep") is visible in the numbers.  It speaks the unified report
protocol — ``to_dict``/``from_dict`` invert exactly — so serving sweeps
cache, pool, and serialize like every other experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.errors import ReproError
from repro.records import Record


class ServiceError(ReproError):
    """Fleet-serving configuration or bookkeeping failure."""


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """The ``q``-quantile of an ascending list or array (linear interpolation).

    Raises on an empty sequence — an SLA over zero completions is
    undefined, consistently with :mod:`repro.core.metrics`.
    """
    if len(sorted_values) == 0:
        raise ServiceError("no samples: quantile of an empty run")
    if not 0.0 <= q <= 1.0:
        raise ServiceError(f"quantile {q} out of [0, 1]")
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return float(sorted_values[lo] * (1.0 - frac)
                 + sorted_values[hi] * frac)


@dataclass
class TenantStats(Record):
    """One tenant's SLA ledger for a serving run.

    ``crashed`` counts arrivals lost to node crashes after every retry
    was exhausted (zero on any healthy run); a tenant with zero
    completions did not survive the run — its latency fields are 0.0
    and :attr:`sla_met` is False by definition.
    """

    tenant: str
    completed: int
    rejected: int
    mean_latency_seconds: float
    p50_latency_seconds: float
    p95_latency_seconds: float
    p99_latency_seconds: float
    sla_p95_seconds: float
    crashed: int = 0

    @property
    def survived(self) -> bool:
        """Whether the tenant completed any queries at all."""
        return self.completed > 0

    @property
    def sla_met(self) -> bool:
        return self.survived and \
            self.p95_latency_seconds <= self.sla_p95_seconds


@dataclass
class NodeStats(Record):
    """One node's duty ledger: how long it was up, busy, and booting."""

    node: str
    completed: int
    on_seconds: float
    busy_seconds: float
    energy_joules: float
    boots: int
    crashes: int = 0
    #: the :class:`~repro.service.spec.NodeClass` this node belongs to
    node_class: str = "node"


@dataclass
class ClassStats(Record):
    """One node class's rollup: the composition-level duty ledger.

    The heterogeneous-fleet reading of the §2.4 story lives here: which
    class carried the queries, which class burned the Joules, which
    class the autoscaler kept booting.  Rolled up from
    :class:`NodeStats` by :func:`rollup_classes`; nodes of duplicate
    class names merge into one row.
    """

    node_class: str
    count: int
    completed: int
    on_seconds: float
    busy_seconds: float
    energy_joules: float
    boots: int
    crashes: int = 0


def rollup_classes(nodes: list[NodeStats]) -> list["ClassStats"]:
    """Fold per-node ledgers into per-class rows (first-seen order)."""
    by_class: dict[str, ClassStats] = {}
    for n in nodes:
        row = by_class.get(n.node_class)
        if row is None:
            by_class[n.node_class] = ClassStats(
                node_class=n.node_class, count=1, completed=n.completed,
                on_seconds=n.on_seconds, busy_seconds=n.busy_seconds,
                energy_joules=n.energy_joules, boots=n.boots,
                crashes=n.crashes)
        else:
            row.count += 1
            row.completed += n.completed
            row.on_seconds += n.on_seconds
            row.busy_seconds += n.busy_seconds
            row.energy_joules += n.energy_joules
            row.boots += n.boots
            row.crashes += n.crashes
    return list(by_class.values())


@dataclass
class FaultStats(Record):
    """The chaos ledger of one serving run.

    Injected-fault counts cover events the engine actually applied;
    ``faults_skipped`` counts scheduled events that found their node
    already down (crash-on-crashed, crash-on-parked).  The query-side
    counts reconcile exactly with the report:
    ``queries_offered == queries_completed + queries_rejected +
    queries_lost`` — every arrival is completed, rejected at admission
    (including shed and retry-exhausted timeouts), or attributed to a
    crash.
    """

    crashes: int = 0
    recoveries: int = 0
    throttle_windows: int = 0
    disk_failures: int = 0
    timeout_windows: int = 0
    faults_skipped: int = 0
    #: arrivals destroyed by a crash and never completed by a retry
    queries_lost: int = 0
    #: arrivals destroyed by a crash but completed on a later attempt
    queries_recovered: int = 0
    #: re-dispatch attempts performed (crash recoveries + timeout hits)
    retries: int = 0
    #: dispatch attempts that hit a timeout window
    timeouts: int = 0
    #: arrivals rejected by the shed policy (subset of rejected)
    queries_shed: int = 0
    #: replacement nodes the autoscaler booted at crash instants
    emergency_boots: int = 0
    #: injected crash downtime inside the run (node-seconds)
    node_seconds_lost: float = 0.0
    #: node_seconds_lost / (n_nodes * makespan)
    downtime_fraction: float = 0.0


@dataclass
class ServiceReport(Record):
    """Outcome of serving one arrival stream under one dispatch policy."""

    policy: str
    n_nodes: int
    queries_offered: int
    queries_completed: int
    queries_rejected: int
    makespan_seconds: float
    energy_joules: float
    p50_latency_seconds: float
    p95_latency_seconds: float
    p99_latency_seconds: float
    mean_latency_seconds: float
    node_seconds_on: float
    tenants: list[TenantStats] = field(default_factory=list)
    nodes: list[NodeStats] = field(default_factory=list)
    #: chaos ledger; None on a fault-free run
    faults: Optional[FaultStats] = None
    #: per-node-class rollups (one row per class, declaration order)
    classes: list[ClassStats] = field(default_factory=list)
    #: the serialized :class:`~repro.service.spec.FleetSpec` that built
    #: the fleet (provenance; None on reports from older ledgers)
    fleet: Optional[dict[str, Any]] = None
    #: which serving core produced this report (``"event"`` or
    #: ``"loop"``); runtime-only metadata — excluded from equality and
    #: :meth:`to_dict`, so the two engines' reports stay byte-identical
    #: and ledger records / cache keys never see it
    engine: Optional[str] = field(default=None, compare=False)
    #: why ``engine="auto"`` fell back to the reference loop: the
    #: router has no kernel
    #: (:func:`~repro.service.engine.event_core_unsupported`); None
    #: otherwise.  Runtime-only metadata like :attr:`engine`.
    engine_reason: Optional[str] = field(default=None, compare=False)
    #: per-arrival latencies in stream order (NaN where rejected);
    #: runtime-only metadata like :attr:`engine` — excluded from
    #: equality and :meth:`to_dict`.  The pipelines layer reads these
    #: to derive per-stage completion windows without re-simulating.
    latencies: Optional[Any] = field(default=None, compare=False,
                                     repr=False)

    # -- derived metrics (empty runs raise, like core.metrics) --------

    @property
    def joules_per_query(self) -> float:
        """The headline serving metric: energy per completed query."""
        if self.queries_completed <= 0:
            raise ServiceError("no queries completed: Joules/query "
                               "undefined")
        return self.energy_joules / self.queries_completed

    @property
    def average_active_nodes(self) -> float:
        """Time-averaged powered-on node count."""
        if self.makespan_seconds <= 0:
            raise ServiceError("empty run: active-node average undefined")
        return self.node_seconds_on / self.makespan_seconds

    @property
    def slas_met(self) -> bool:
        """True when every tenant's p95 target held."""
        return all(t.sla_met for t in self.tenants)
