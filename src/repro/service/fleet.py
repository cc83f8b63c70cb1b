"""The fleet simulator: millions of queries against a node cluster.

:func:`simulate_service` plays an :class:`~repro.service.workload.
ArrivalStream` against a fleet declared by a
:class:`~repro.service.spec.FleetSpec` — homogeneous or a composition
of node classes — under a :class:`~repro.service.dispatch.
DispatchPolicy`, with the :class:`~repro.service.autoscale.Autoscaler`
stepping at epoch boundaries for policies that want it.  Everything is
closed-form: nodes are FCFS single pipes (``busy_until`` floats), so
one pass over the time-ordered arrivals yields exact waits, and energy
follows from the utilization-linear power identity in
:mod:`repro.service.node`.  That is what fits 10^6 queries in seconds
— the discrete-event engine stays out of the per-query path.

Two serving cores implement that pass.  The **reference loop** below
walks one arrival at a time through ``policy.route`` and is the
semantic ground truth: third-party routers run on it, and the chaos
engine's closure is its fault-aware sibling.  The **event core**
(:mod:`repro.service.engine`) replays the identical arithmetic over
the stream's columnar arrays with O(log n) routing structures, ~10-30x
faster — one loop generated per (router, options) from a single
statement of the serving step (this loop's ``policy.admits`` /
``policy.frequency`` / ``node.serve`` calls, as source fragments) —
and is picked automatically (``engine="auto"``) whenever the router
has a kernel; the two are byte-identical by contract (see the
engine-equivalence suite).  Watching a run does not change which core
serves it: both emit the same per-query ``(node, end)`` columns
(:class:`~repro.service.engine.ServedColumns`), and the flight
recording and the telemetry power series are derived from those
columns after the pass — neither core calls an observer per query.

Telemetry is mirrored, not sacrificed: when a
:func:`repro.telemetry.capture` collector is installed, the fleet
builds one real :class:`~repro.sim.Simulation` +
:class:`~repro.hardware.meter.EnergyMeter` + one
:class:`~repro.hardware.device.Device` per node, builds every device's
power step function from the run's transitions once the pass is over,
and opens a root
:class:`~repro.telemetry.spans.EnergySpan` per powered-on interval per
node — so ``python -m repro.runner trace svc_policies`` shows the same
per-node timelines and Joules any metered experiment would.

A batching policy (QED) changes what is served, not how: its hold
queues read arrivals and the clock, never the fleet, so
:meth:`~repro.service.dispatch.DispatchPolicy.releases` runs once,
ahead of serving, and every interpreter serves the releases as a
stream of shared executions.

Every interpreter of that pass — the loop, the event core, and the
chaos engine of :mod:`repro.faults.engine` — enters through
:func:`_prepare` (validate the run, pick the engine, build nodes and
observers, compute a batching policy's releases) and leaves through
:func:`_assemble_report` (close the books, fold the report), so the
serving semantics around the per-query arithmetic are stated once.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.observe import current_collector, current_recorder
from repro.service.autoscale import Autoscaler
from repro.service.dispatch import (DispatchContext, DispatchPolicy,
                                    make_policy)
from repro.service.engine import ServedColumns, event_core_unsupported
from repro.service.node import FleetNode, books_close_at
from repro.service.report import (FaultStats, ServiceError, ServiceReport,
                                  TenantStats, quantile, rollup_classes)
from repro.service.spec import FleetSpec
from repro.service.workload import ArrivalStream, StreamColumns


class _TelemetryMirror:
    """Replays fleet power transitions into real metered devices.

    Nothing is written to a device while the run is in flight.  Every
    power transition is a two-sample *step* — the draw from ``t0`` and
    the draw it falls back to at ``t1`` — and the mirror only logs
    them: boots, drains and crashes as they happen, executions either
    one :meth:`serve` call at a time (the chaos loop, whose executions
    can be truncated, passes each window and its busy draw explicitly)
    or, for the healthy passes, as the whole run's ``(node, end)``
    columns through :meth:`served`.
    :meth:`finish` then builds each device's power step function in
    one pass, in the order a per-query replay would have recorded it,
    and advances the shared clock once, to the fleet's end time.
    Every node carries its own :class:`NodePowerModel`, so a
    heterogeneous fleet's devices draw their class's watts.
    """

    def __init__(self, collector,
                 fleet_nodes: Sequence[FleetNode]) -> None:
        from repro.hardware.device import Device
        from repro.hardware.meter import EnergyMeter
        from repro.sim import Simulation

        self.collector = collector
        self.sim = Simulation()
        self.meter = EnergyMeter(self.sim)  # self-registers while captured
        self.devices = []
        self.models = [node.model for node in fleet_nodes]
        self._spans: list = [None] * len(fleet_nodes)
        self._drained_until = 0.0  # end of the latest drain window
        #: logged steps ``(k, node, t0, watts0, t1, watts1)``; ``k`` is
        #: the arrival the step precedes when executions arrive as
        #: columns (0 otherwise: log order is replay order)
        self._steps: list[tuple] = []
        self._served: Optional[tuple] = None
        for i, node in enumerate(fleet_nodes):
            device = Device(self.sim, f"svc.{node.name}",
                            initial_power_watts=node.model.idle_watts)
            self.meter.attach(device)
            self.devices.append(device)
            self._spans[i] = collector.stack.open(
                f"svc.{node.name}.on", 0.0, {}, root=True)

    def serve(self, i: int, start: float, end: float,
              busy_watts: Optional[float] = None) -> None:
        """Log one execution window; ``busy_watts`` overrides the
        peak draw for downclocked (PVC) or throttled executions."""
        model = self.models[i]
        self._steps.append(
            (0, i, start,
             model.peak_watts if busy_watts is None else busy_watts,
             end, model.idle_watts))

    def served(self, times: np.ndarray, lanes: np.ndarray,
               ends: np.ndarray, dvfs: list[tuple]) -> None:
        """Take a healthy pass's executions as columns: per row its
        arrival (a shared execution's release), the node of a
        full-speed serve (``-1`` = none) and the completion instant,
        plus the ``(row, node, start, frequency, busy_watts)`` rows of
        the downclocked ones."""
        self._served = (times, lanes, ends, dvfs)

    def power_on(self, i: int, now: float, k: int = 0) -> None:
        model = self.models[i]
        boot_watts = (model.boot_joules / model.boot_seconds
                      if model.boot_seconds > 0 else 0.0)
        self._steps.append((k, i, now, boot_watts,
                            now + model.boot_seconds, model.idle_watts))
        self._spans[i] = self.collector.stack.open(
            f"{self.devices[i].name}.on", now, {}, root=True)
        self.collector.count("svc.boots")

    def power_off(self, i: int, now: float, k: int = 0) -> None:
        model = self.models[i]
        drain_watts = (model.drain_joules / model.drain_seconds
                       if model.drain_seconds > 0 else 0.0)
        drained = now + model.drain_seconds
        self._steps.append((k, i, now, drain_watts, drained, 0.0))
        self._drained_until = max(self._drained_until, drained)
        self._close_span(i, now)

    def crash(self, i: int, now: float) -> None:
        """The node just stops drawing power: zero watts from ``now``,
        no drain rectangle."""
        self._steps.append((0, i, now, 0.0, now, 0.0))
        self._close_span(i, now)

    def _close_span(self, i: int, now: float) -> None:
        span = self._spans[i]
        if span is not None:
            self.collector.stack.close(span, now, {})
            self._spans[i] = None

    def sync(self, nodes: Sequence[FleetNode], k: int = 0) -> None:
        """Log the autoscaler's on/off flips; a pass that reports its
        executions through :meth:`served` says which arrival ``k`` the
        epoch step ran ahead of."""
        for i, node in enumerate(nodes):
            span_open = self._spans[i] is not None
            if node.on and not span_open:
                # power_on happened this epoch step, at node.on_since
                self.power_on(i, node.on_since, k)
            elif not node.on and span_open:
                # power_off left busy_until at off-time + drain window
                self.power_off(
                    i, node.busy_until - node.model.drain_seconds, k)

    def _replay(self) -> None:
        """Build every device's power series from the logged steps and
        the served columns.

        Per node the steps replay in ``(k, log order)`` with the
        column executions last within their ``k``.  A step's ``t1`` is
        the node's ``busy_until`` once it is taken (a completion, the
        end of a boot or drain window), so a column execution — whose
        start the kernels do not emit — starts at ``max(previous
        step's t1, arrival)``: the FCFS pipe's own rule, and an exact
        selection, not arithmetic.
        """
        steps = np.array(self._steps, dtype=np.float64).reshape(-1, 6)
        # rows of (k, node, t0 or NaN = derive it, watts0, t1, watts1,
        # arrival): the logged steps first, so a stable sort keeps them
        # ahead of the execution that shares their k
        rows = [np.column_stack((steps, np.zeros(len(steps))))]
        if self._served is not None:
            times, lanes, ends, dvfs = self._served
            idle = np.array([m.idle_watts for m in self.models])
            peak = np.array([m.peak_watts for m in self.models])
            ks = np.nonzero(lanes >= 0)[0]
            on = lanes[ks]
            rows.append(np.column_stack(
                (ks, on, np.full(len(ks), np.nan), peak[on], ends[ks],
                 idle[on], times[ks])))
            if dvfs:
                dk, dn, start, _freq, watts = np.array(
                    dvfs, dtype=np.float64).T
                dk, dn = dk.astype(np.int64), dn.astype(np.int64)
                rows.append(np.column_stack(
                    (dk, dn, start, watts, ends[dk], idle[dn], times[dk])))
        table = np.concatenate(rows)
        if not len(table):
            return
        _k, node, t0, w0, t1, w1, arrival = \
            table[np.lexsort((table[:, 0], table[:, 1]))].T
        busy_until = np.concatenate(([0.0], t1[:-1]))
        busy_until[np.concatenate(([True], node[1:] != node[:-1]))] = 0.0
        t0 = np.where(np.isnan(t0), np.maximum(busy_until, arrival), t0)
        ts = np.column_stack((t0, t1)).ravel()
        ws = np.column_stack((w0, w1)).ravel()
        bounds = 2 * np.searchsorted(node, np.arange(len(self.devices) + 1))
        for i, device in enumerate(self.devices):
            device.power_series.extend(ts[bounds[i]:bounds[i + 1]],
                                       ws[bounds[i]:bounds[i + 1]])

    def finish(self, end: float, report: ServiceReport) -> None:
        self._replay()
        # a drain window still in flight when the books close: the
        # closed form charged its whole lump at power-off, so the
        # meters run on to the end of it — with the nodes that are
        # still on going dark at ``end``, where their books closed
        draining = self._drained_until > end
        self.sim.clock.advance_to(max(end, self._drained_until,
                                      self.sim.now))
        for i, span in enumerate(self._spans):
            if span is not None and draining:
                self.devices[i].power_series.record(end, 0.0)
            self._close_span(i, end)
        self.collector.count("svc.queries_completed",
                             report.queries_completed)
        self.collector.count("svc.queries_rejected",
                             report.queries_rejected)
        if report.faults is not None:
            for key, value in report.faults.to_dict().items():
                if isinstance(value, int):
                    self.collector.count(f"fault.{key}", value)


class _Run(NamedTuple):
    """One validated run, as :func:`_prepare` hands it to whichever
    interpreter serves it; ``run[:6]`` is what a per-query loop reads."""

    policy: DispatchPolicy
    autoscaler: Optional[Autoscaler]
    nodes: list[FleetNode]
    #: indices of the powered-on nodes (mutated as the run scales)
    on_ids: list[int]
    mirror: Optional[_TelemetryMirror]
    #: the installed :class:`~repro.flightrec.recorder.FlightRecorder`
    rec: Optional[object]
    stream: ArrivalStream
    fleet: FleetSpec
    #: ``"event"`` or ``"loop"``
    engine: str
    engine_reason: Optional[str]
    #: what is served: the stream's columns, or a batching policy's
    #: releases of them (:meth:`~DispatchPolicy.releases`)
    cols: StreamColumns


#: the most autoscaler epochs a run may step over its arrivals: the
#: longest committed stream (chaos_frontier's 3 h) needs 360 at 30 s,
#: ~10^5 at 0.1 s; at 20-30 us a step, 10^6 take under a minute
MAX_EPOCH_STEPS = 1_000_000


def _choose_engine(engine: str,
                   policy: DispatchPolicy) -> tuple[str, Optional[str]]:
    """Pick the serving core: ``(ServiceReport.engine,
    ServiceReport.engine_reason)``."""
    reason = event_core_unsupported(policy)
    if reason is None and engine != "loop":
        return "event", None
    if engine == "event":
        raise ServiceError(
            f"engine='event' cannot serve this configuration: {reason} "
            "(use engine='auto' to fall back to the reference loop)")
    return "loop", reason if engine == "auto" else None


def _prepare(stream: ArrivalStream, fleet: Optional[FleetSpec], policy,
             policy_kwargs: dict, autoscaler: Optional[Autoscaler],
             engine: str, faults=None) -> _Run:
    """The front door every interpreter enters through: validate the
    run, pick the engine, build the nodes and the observers.

    ``faults`` is the chaos engine's
    :class:`~repro.faults.schedule.FaultSchedule` (None on a healthy
    run)."""
    if engine not in ("auto", "event", "loop"):
        raise ServiceError(
            f"unknown engine {engine!r}: pass 'auto', 'event', or 'loop'")
    if fleet is None:
        fleet = FleetSpec.homogeneous(16)
    elif not isinstance(fleet, FleetSpec):
        raise ServiceError(
            f"fleet must be a FleetSpec, got {type(fleet).__name__}")
    if len(stream) == 0:
        raise ServiceError("empty arrival stream")
    if faults is not None and faults.n_nodes != fleet.n_nodes:
        from repro.faults.schedule import FaultError
        raise FaultError(
            f"schedule covers {faults.n_nodes} nodes but the fleet has "
            f"{fleet.n_nodes}")
    policy = make_policy(policy, **policy_kwargs)
    if not policy.autoscaled:
        autoscaler = None
    elif autoscaler is None:
        autoscaler = Autoscaler(fleet.classes[0].model)
    if autoscaler is not None:
        smallest = float(stream.times[-1]) / MAX_EPOCH_STEPS
        if autoscaler.epoch_seconds < smallest:
            raise ServiceError(
                f"epoch_seconds={autoscaler.epoch_seconds!r} would step "
                f"the autoscaler more than {MAX_EPOCH_STEPS:,} times over "
                f"this stream; the smallest epoch_seconds it accepts is "
                f"{smallest!r}")

    collector = current_collector()
    rec = current_recorder()
    engine, engine_reason = _choose_engine(engine, policy)

    nodes = [FleetNode(name, model, node_class=class_name)
             for name, class_name, model in fleet.members()]
    mirror = (None if collector is None
              else _TelemetryMirror(collector, nodes))
    if rec is not None:
        rec.begin_run("fleet" if faults is None else "chaos", stream,
                      nodes, policy.name, autoscaler is not None)
    cols = stream.columns()
    if policy.batching:
        cols = policy.releases(cols)
    return _Run(policy, autoscaler, nodes, list(range(len(nodes))),
                mirror, rec, stream, fleet, engine, engine_reason, cols)


def simulate_service(stream: ArrivalStream,
                     fleet: Optional[FleetSpec] = None,
                     policy: DispatchPolicy | str = "power_aware",
                     autoscaler: Optional[Autoscaler] = None,
                     engine: str = "auto",
                     **policy_kwargs) -> ServiceReport:
    """Serve ``stream`` on the ``fleet``; returns the report.

    ``fleet`` is a :class:`~repro.service.spec.FleetSpec` (default: 16
    calibrated ``commodity`` nodes).  ``policy`` may be a registered
    name or a ready :class:`DispatchPolicy`.  An ``autoscaler`` is only
    engaged when the policy declares ``autoscaled`` (packing); the
    all-on baselines keep the whole fleet powered, which is exactly the
    §2.4 non-proportionality problem the packing policy exists to fix.

    ``engine`` selects the serving core: ``"auto"`` (default) runs the
    vectorized event core of :mod:`repro.service.engine` whenever the
    router has a kernel and falls back to the reference loop
    otherwise; ``"event"`` insists on the fast core (raising
    :class:`ServiceError` with the fallback reason); ``"loop"`` always
    runs the reference loop.  Both
    engines produce byte-identical reports — the one picked is recorded
    in :attr:`ServiceReport.engine`, and why ``"auto"`` fell back to
    the loop in :attr:`ServiceReport.engine_reason` (runtime metadata,
    excluded from serialization).

    A run under a :class:`~repro.faults.schedule.FaultSchedule` is
    :func:`repro.faults.engine.simulate_faulty_service`'s.
    """
    run = _prepare(stream, fleet, policy, policy_kwargs, autoscaler,
                   engine)
    policy, autoscaler, nodes, on_ids, mirror, rec = run[:6]

    cols = run.cols
    if run.engine == "event":
        # resolved per call: perfbench's traced pass replaces the
        # module attribute for the duration of one repetition
        from repro.service.engine import serve_event
        return _assemble_report(run, *serve_event(
            stream, cols, run.fleet, policy, autoscaler, nodes, on_ids,
            rec, mirror))

    n = len(cols)
    times, services, slas = cols.lists()

    # epochs stop with the workload: a batching policy's releases after
    # the last arrival must not keep the autoscaler cycling a fleet
    # with nothing left to absorb
    last_arrival = float(stream.times[-1])
    epoch = autoscaler.epoch_seconds if autoscaler is not None else 0.0
    next_epoch = (epoch if autoscaler is not None and epoch <= last_arrival
                  else float("inf"))

    # batch tenants (pipelines) are exempt from the admission limit:
    # backlog rejection guards latency, and batch work has none to
    # guard — it only has a freshness deadline
    batch_list = (None if cols.batch_flags is None
                  else cols.batch_flags.tolist())

    # the same columns the event kernels emit, one store per row
    out = ServedColumns(cols, rec, mirror)
    ends = [np.nan] * n
    lanes = [-1] * n
    starts = out.starts
    last_completion = 0.0
    dvfs = policy.dvfs
    emit_dvfs = None if out.dvfs is None else out.dvfs.append
    for k in range(n):
        t = times[k]
        while t >= next_epoch:
            autoscaler.step(next_epoch, nodes, on_ids)
            next_epoch += epoch
            if next_epoch > last_arrival:
                next_epoch = float("inf")
            if mirror is not None:
                mirror.sync(nodes, k)
        s = services[k]
        if autoscaler is not None:
            autoscaler.observe(s)
        ctx = DispatchContext(nodes, on_ids, t, s, slas[k])
        i = policy.route(ctx)
        node = nodes[i]
        if not policy.admits(node, t) and \
                (batch_list is None or not batch_list[k]):
            out.rejected.append((k, i))
            continue
        if dvfs and (freq := policy.frequency(ctx, i)) < 1.0:
            busy_watts = node.model.dvfs_watts(freq)
            start, _done = node.serve_active(t, s, busy_watts, freq)
            if emit_dvfs is not None:
                emit_dvfs((k, i, start, freq, busy_watts))
        else:
            if starts is not None:
                starts[k] = node.busy_until if node.busy_until > t else t
            node.serve(t, s)
            lanes[k] = i
        ends[k] = node.busy_until
        if node.busy_until > last_completion:
            last_completion = node.busy_until
    out.flush(slice(0, n), ends, lanes)
    latencies, admitted = out.hand_over(stream.times, nodes)

    return _assemble_report(run, latencies, admitted, last_completion)


def _assemble_report(run: _Run,
                     latencies: np.ndarray,
                     completed: np.ndarray,
                     last_completion: float,
                     lost: Optional[np.ndarray] = None,
                     faults: Optional[FaultStats] = None,
                     crash_intervals: Sequence[tuple[float, float]] = ()
                     ) -> ServiceReport:
    """Close the books and fold the run into a :class:`ServiceReport`
    — the single tail every interpreter shares, so quantile math and
    energy rollups cannot drift between them.

    ``latencies`` holds one entry per arrival, read only where
    ``completed`` is set.  The chaos engine also passes its ``lost``
    mask (crash-lost arrivals; everything neither completed nor lost
    was rejected), its ``faults`` ledger — closed here, once the end
    of the run is known — and the ``(crashed_at, repaired_at)``
    intervals behind it.  A healthy run that completes nothing is a
    :class:`ServiceError`; a chaos run reports zeros, because losing
    everything is a result there.
    """
    stream, nodes = run.stream, run.nodes
    cols = stream.columns()
    end = books_close_at(nodes,
                         max(last_completion, float(cols.times[-1])))
    if faults is not None:
        # a crash that struck a powered-on node after the serving
        # window still closed that node's energy interval at the crash
        # instant; the fleet (and the telemetry mirror) must integrate
        # idle draw on the survivors out to the same instant or the
        # books won't balance
        for crashed_at, _repair_at in crash_intervals:
            if crashed_at > end:
                end = crashed_at
        faults.node_seconds_lost = sum(
            max(0.0, min(repair, end) - crashed)
            for crashed, repair in crash_intervals)
        faults.downtime_fraction = (
            faults.node_seconds_lost / (len(nodes) * end)
            if end > 0 else 0.0)
    node_stats = [node.finalize(end) for node in nodes]

    lat = latencies[completed]
    if lat.size:
        p50, p95, p99 = np.quantile(lat, [0.50, 0.95, 0.99])
        mean = float(lat.mean())
    elif faults is None:
        raise ServiceError("policy admitted no queries")
    else:
        p50 = p95 = p99 = mean = 0.0
    rejected = ~completed if lost is None else ~(completed | lost)
    tenant_idx = cols.tenant_index
    tenants = []
    for ti, tenant in enumerate(stream.tenants):
        mask = tenant_idx == ti
        t_lat = np.sort(latencies[mask & completed])
        if not t_lat.size and faults is None:
            raise ServiceError(
                f"tenant {tenant.name!r} completed no queries")
        tenants.append(TenantStats(
            tenant=tenant.name,
            completed=t_lat.size,
            rejected=int((mask & rejected).sum()),
            crashed=0 if lost is None else int((mask & lost).sum()),
            mean_latency_seconds=float(t_lat.mean()) if t_lat.size else 0.0,
            p50_latency_seconds=quantile(t_lat, 0.50) if t_lat.size else 0.0,
            p95_latency_seconds=quantile(t_lat, 0.95) if t_lat.size else 0.0,
            p99_latency_seconds=quantile(t_lat, 0.99) if t_lat.size else 0.0,
            sla_p95_seconds=tenant.sla_p95_seconds,
        ))

    report = ServiceReport(
        policy=run.policy.name,
        n_nodes=len(nodes),
        queries_offered=len(latencies),
        queries_completed=int(completed.sum()),
        queries_rejected=int(rejected.sum()),
        makespan_seconds=end,
        energy_joules=sum(s.energy_joules for s in node_stats),
        p50_latency_seconds=float(p50),
        p95_latency_seconds=float(p95),
        p99_latency_seconds=float(p99),
        mean_latency_seconds=mean,
        node_seconds_on=sum(s.on_seconds for s in node_stats),
        tenants=tenants,
        nodes=node_stats,
        faults=faults,
        classes=rollup_classes(node_stats),
        fleet=run.fleet.to_dict(),
        engine=run.engine,
        engine_reason=run.engine_reason,
        latencies=latencies,
    )
    if run.rec is not None:
        run.rec.end_run(end, report, latencies=latencies)
    if run.mirror is not None:
        run.mirror.finish(end, report)
    return report
