"""Multi-tenant open-loop arrival streams for fleet serving.

The ROADMAP north star serves "heavy traffic from millions of users";
this module generates that traffic.  Each :class:`Tenant` is an
independent open-loop Poisson source (arrivals do not wait for
completions — the defining property of SLA-facing serving, as opposed
to the closed-loop TPC-H throughput test of Figure 1) with its own mix
over :class:`QueryClass` shapes and its own p95 SLA target.

Streams are materialized as flat numpy arrays rather than event-object
lists: a million-query stream is three ~8 MB arrays, which is what lets
``svc_policies`` sweep three dispatch policies over 10^6 queries in
seconds.  Generation is deterministic: tenant ``i`` under ``seed``
draws from ``numpy`` 's PCG64 seeded with ``SeedSequence([seed, i])``,
so adding or reordering *other* tenants never perturbs a tenant's
arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.service.report import ServiceError


@dataclass(frozen=True)
class QueryClass:
    """One query shape: a name and its service demand on a speed-1 node."""

    name: str
    service_seconds: float

    def __post_init__(self) -> None:
        if self.service_seconds <= 0:
            raise ServiceError(
                f"query class {self.name!r}: service time must be positive")


@dataclass(frozen=True)
class Tenant:
    """One open-loop traffic source with an SLA.

    ``mix`` maps query-class names to relative weights (normalized at
    stream-build time).
    """

    name: str
    rate_per_s: float
    sla_p95_seconds: float
    mix: tuple[tuple[str, float], ...]
    #: batch tenants carry a *freshness budget* rather than a latency
    #: SLA: their ``sla_p95_seconds`` is the planned release-to-deadline
    #: gap, and the dispatcher's admission limit never rejects them —
    #: batch work is infinitely patient, so backlog-based rejection
    #: (a latency guard) does not apply.  See
    #: :mod:`repro.workloads.pipelines.tenants`.
    batch: bool = False

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ServiceError(
                f"tenant {self.name!r}: arrival rate must be positive")
        if not self.mix:
            raise ServiceError(f"tenant {self.name!r}: empty query mix")
        if any(w < 0 for _, w in self.mix) or \
                sum(w for _, w in self.mix) <= 0:
            raise ServiceError(
                f"tenant {self.name!r}: mix weights must be non-negative "
                "and sum > 0")


#: The default serving mix: a latency-sensitive dashboard tenant, a
#: mid-weight reporting tenant, and a heavy analytics tenant.  The
#: heavy tail (2.5 s analytic scans amid 50 ms lookups) is what makes
#: dispatch policy matter: an oblivious router queues cheap queries
#: behind expensive ones, a backlog-aware one does not.
DEFAULT_CLASSES: tuple[QueryClass, ...] = (
    QueryClass("point", 0.05),
    QueryClass("report", 0.30),
    QueryClass("analytic", 2.50),
)

DEFAULT_TENANTS: tuple[Tenant, ...] = (
    Tenant("dashboard", rate_per_s=40.0, sla_p95_seconds=2.0,
           mix=(("point", 1.0),)),
    Tenant("reporting", rate_per_s=6.0, sla_p95_seconds=4.0,
           mix=(("point", 0.2), ("report", 0.8))),
    Tenant("analytics", rate_per_s=0.4, sla_p95_seconds=15.0,
           mix=(("report", 0.2), ("analytic", 0.8))),
)


@dataclass
class StreamColumns:
    """The marshalled view of a stream both serving engines consume.

    ``times``/``service_seconds``/``sla_seconds`` are the numpy columns
    the vectorized event core batches over; :meth:`lists` hands the
    reference loop the same data as plain Python lists (scalar float
    reads off a list are ~2x faster than off an ndarray, which is why
    the loop engine always worked on ``.tolist()`` copies).  Built once
    per stream and cached, so repeated simulations — and the
    faults engine — stop re-marshalling per call.

    A batching policy's releases are a stream too: one row per shared
    execution (release instant, combined demand, and its first
    member's tenant, SLA and batch flag), with ``members`` naming the
    arrivals each row serves.
    """

    #: arrival instants, ascending (numpy float64 view)
    times: np.ndarray
    #: per-arrival service demand on a speed-1 node
    service_seconds: np.ndarray
    #: per-arrival tenant index
    tenant_index: np.ndarray
    #: per-arrival p95 SLA target (tenant's, broadcast per arrival)
    sla_seconds: np.ndarray
    #: per-arrival batch flag (``Tenant.batch`` broadcast), or None
    #: when no tenant is a batch tenant — the hot paths test for None
    #: instead of scanning an all-False column
    batch_flags: Optional[np.ndarray] = None
    #: per row, the arrival indices a shared execution serves (oldest
    #: first), or None for an ordinary stream: one row per arrival
    members: Optional[list[tuple[int, ...]]] = None
    _lists: Optional[tuple[list, list, list]] = \
        field(default=None, repr=False, compare=False)

    def lists(self) -> tuple[list[float], list[float], list[float]]:
        """``(times, service_seconds, sla_seconds)`` as Python lists —
        the reference loop's marshalling, materialized once."""
        if self._lists is None:
            self._lists = (self.times.tolist(),
                           self.service_seconds.tolist(),
                           self.sla_seconds.tolist())
        return self._lists

    def __len__(self) -> int:
        return len(self.times)


@dataclass
class ArrivalStream:
    """A merged, time-ordered arrival sequence across all tenants."""

    tenants: tuple[Tenant, ...]
    classes: tuple[QueryClass, ...]
    #: arrival instants, ascending (seconds)
    times: np.ndarray
    #: per-arrival service demand on a speed-1 node (seconds)
    service_seconds: np.ndarray
    #: per-arrival tenant index into :attr:`tenants`
    tenant_index: np.ndarray
    #: per-arrival class index into :attr:`classes`
    class_index: np.ndarray
    _columns: Optional[StreamColumns] = \
        field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.times)

    def columns(self) -> StreamColumns:
        """The columnar (numpy) view of this stream, built once.

        Both serving engines marshal through this accessor: the
        vectorized event core consumes the arrays directly, the
        reference loop takes :meth:`StreamColumns.lists`.  The
        ``sla_seconds`` column is the per-arrival broadcast of each
        tenant's p95 target, replacing the per-call ``sla_of`` rebuild
        the engines used to repeat."""
        if self._columns is None:
            sla_of = np.array([t.sla_p95_seconds for t in self.tenants])
            batch_of = np.array([t.batch for t in self.tenants])
            self._columns = StreamColumns(
                times=self.times,
                service_seconds=self.service_seconds,
                tenant_index=self.tenant_index,
                sla_seconds=sla_of[self.tenant_index],
                batch_flags=(batch_of[self.tenant_index]
                             if batch_of.any() else None),
            )
        return self._columns

    @property
    def duration_seconds(self) -> float:
        """Span from time zero to the last arrival."""
        return float(self.times[-1]) if len(self.times) else 0.0


def _tenant_counts(tenants: Sequence[Tenant], total: int) -> list[int]:
    """Split ``total`` arrivals across tenants proportional to rate
    (largest-remainder rounding, so counts sum exactly to ``total``)."""
    rates = [t.rate_per_s for t in tenants]
    whole = sum(rates)
    raw = [total * r / whole for r in rates]
    counts = [int(x) for x in raw]
    remainders = sorted(range(len(raw)),
                        key=lambda i: (raw[i] - counts[i], -i),
                        reverse=True)
    for i in remainders[: total - sum(counts)]:
        counts[i] += 1
    return counts


def build_stream(queries: int,
                 tenants: Sequence[Tenant] = DEFAULT_TENANTS,
                 seed: int = 0) -> ArrivalStream:
    """Generate a merged multi-tenant Poisson stream of ``queries``
    over the default query classes."""
    if queries < 1:
        raise ServiceError("need at least one query")
    if not tenants:
        raise ServiceError("need at least one tenant")
    classes = DEFAULT_CLASSES
    class_of = {c.name: i for i, c in enumerate(classes)}
    service = np.array([c.service_seconds for c in classes])

    chunks_t, chunks_c, chunks_tenant = [], [], []
    for i, (tenant, n) in enumerate(
            zip(tenants, _tenant_counts(tenants, queries))):
        if n == 0:
            continue
        for name, _ in tenant.mix:
            if name not in class_of:
                raise ServiceError(
                    f"tenant {tenant.name!r} mixes unknown query class "
                    f"{name!r}")
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        times = rng.exponential(1.0 / tenant.rate_per_s, n).cumsum()
        weights = np.array([w for _, w in tenant.mix], dtype=float)
        picks = rng.choice(len(tenant.mix), size=n,
                           p=weights / weights.sum())
        cls = np.array([class_of[name] for name, _ in tenant.mix])[picks]
        chunks_t.append(times)
        chunks_c.append(cls)
        chunks_tenant.append(np.full(n, i, dtype=np.int32))

    times = np.concatenate(chunks_t)
    cls = np.concatenate(chunks_c).astype(np.int32)
    tenant_idx = np.concatenate(chunks_tenant)
    order = np.argsort(times, kind="stable")
    times = times[order]
    cls = cls[order]
    return ArrivalStream(
        tenants=tuple(tenants),
        classes=tuple(classes),
        times=times,
        service_seconds=service[cls],
        tenant_index=tenant_idx[order],
        class_index=cls,
    )


def build_diurnal_stream(day_seconds: float,
                         peak_seconds: float,
                         peak_load: float = 1.0,
                         offpeak_load: float = 0.15,
                         seed: int = 0) -> ArrivalStream:
    """Generate a two-phase diurnal stream of the default tenants and
    query classes.

    The homogeneous-Poisson :func:`build_stream` has no notion of "off
    peak", which makes the batch-ETL question unanswerable — delaying
    work into a window identical to the one it left saves nothing.
    This builder carves the ``[0, day_seconds)`` window into a *peak*
    phase ``[0, peak_seconds)`` and a *trough* ``[peak_seconds,
    day_seconds)``, scaling every tenant's rate by ``peak_load`` and
    ``offpeak_load`` respectively.

    Each (tenant, phase) cell is a *conditioned* Poisson process:
    ``round(rate * load * phase_length)`` arrivals placed as sorted
    uniforms over the phase window — exact phase boundaries,
    deterministic counts, and per-cell ``SeedSequence([seed, i,
    phase])`` lanes, so changing one phase's load (or adding tenants)
    never perturbs another cell's arrivals.  Tenants whose cells are
    all empty are dropped from the stream (per-tenant latency
    quantiles are undefined over zero arrivals).
    """
    if day_seconds <= 0:
        raise ServiceError("day_seconds must be positive")
    if not 0 < peak_seconds < day_seconds:
        raise ServiceError(
            "peak_seconds must fall inside the day window")
    if peak_load < 0 or offpeak_load < 0:
        raise ServiceError("phase load multipliers cannot be negative")
    tenants, classes = DEFAULT_TENANTS, DEFAULT_CLASSES
    class_of = {c.name: i for i, c in enumerate(classes)}
    service = np.array([c.service_seconds for c in classes])
    phases = ((0.0, peak_seconds, peak_load),
              (peak_seconds, day_seconds, offpeak_load))

    kept: list[Tenant] = []
    chunks_t, chunks_c, chunks_tenant = [], [], []
    for i, tenant in enumerate(tenants):
        t_chunks, c_chunks = [], []
        for phase, (start, end, load) in enumerate(phases):
            n = int(round(tenant.rate_per_s * load * (end - start)))
            if n == 0:
                continue
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, i, phase]))
            times = start + np.sort(rng.uniform(0.0, end - start, n))
            weights = np.array([w for _, w in tenant.mix], dtype=float)
            picks = rng.choice(len(tenant.mix), size=n,
                               p=weights / weights.sum())
            cls = np.array([class_of[name]
                            for name, _ in tenant.mix])[picks]
            t_chunks.append(times)
            c_chunks.append(cls)
        if not t_chunks:
            continue
        n_tenant = sum(len(c) for c in t_chunks)
        chunks_t.extend(t_chunks)
        chunks_c.extend(c_chunks)
        chunks_tenant.append(np.full(n_tenant, len(kept), dtype=np.int32))
        kept.append(tenant)

    if not kept:
        raise ServiceError("diurnal stream has no arrivals: raise a "
                           "phase load or the day length")
    times = np.concatenate(chunks_t)
    cls = np.concatenate(chunks_c).astype(np.int32)
    tenant_idx = np.concatenate(chunks_tenant)
    order = np.argsort(times, kind="stable")
    times = times[order]
    cls = cls[order]
    return ArrivalStream(
        tenants=tuple(kept),
        classes=tuple(classes),
        times=times,
        service_seconds=service[cls],
        tenant_index=tenant_idx[order],
        class_index=cls,
    )
