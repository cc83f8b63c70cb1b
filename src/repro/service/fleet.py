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
semantic ground truth every hook (telemetry, flight recording,
batching, faults) runs on.  The **event core**
(:mod:`repro.service.engine`) replays the identical arithmetic over
the stream's columnar arrays with O(log n) routing structures, ~10-30x
faster, and is picked automatically (``engine="auto"``) whenever the
configuration allows; the two are byte-identical by contract (see the
engine-equivalence suite).

Telemetry is mirrored, not sacrificed: when a
:func:`repro.telemetry.capture` collector is installed, the fleet
builds one real :class:`~repro.sim.Simulation` +
:class:`~repro.hardware.meter.EnergyMeter` + one
:class:`~repro.hardware.device.Device` per node, replays every power
transition into the device step functions, and opens a root
:class:`~repro.telemetry.spans.EnergySpan` per powered-on interval per
node — so ``python -m repro.runner trace svc_policies`` shows the same
per-node timelines and Joules any metered experiment would.

The legacy ``n_nodes=``/``model=`` parameters still work as deprecated
shims that build a homogeneous :class:`FleetSpec` (they warn on use,
like the :mod:`repro` facade's PEP 562 shims warn on access).
"""

from __future__ import annotations

import warnings
from typing import Optional, Sequence

import numpy as np

from repro.service.autoscale import Autoscaler
from repro.service.dispatch import (DispatchContext, DispatchPolicy,
                                    dispatch_candidates, make_policy)
from repro.service.node import (FleetNode, NodePowerModel,
                                books_close_at)
from repro.service.report import (ServiceError, ServiceReport, TenantStats,
                                  quantile, rollup_classes)
from repro.service.spec import FleetSpec
from repro.service.workload import ArrivalStream


def _resolve_fleet(fleet: Optional[FleetSpec],
                   n_nodes: Optional[int],
                   model: Optional[NodePowerModel],
                   default_nodes: int = 16) -> FleetSpec:
    """The v2 surface contract: ``fleet=`` is primary, the legacy
    ``n_nodes=``/``model=`` pair is a deprecated shim building a
    homogeneous spec, and mixing the two is an error."""
    if fleet is not None:
        if n_nodes is not None or model is not None:
            raise ServiceError(
                "pass either fleet= or the deprecated n_nodes=/model= "
                "shims, not both")
        if not isinstance(fleet, FleetSpec):
            raise ServiceError(
                f"fleet must be a FleetSpec, got {type(fleet).__name__}")
        return fleet
    if n_nodes is None and model is None:
        return FleetSpec.homogeneous(default_nodes)
    warnings.warn(
        "the n_nodes=/model= parameters are deprecated and will be "
        "removed in 2.0; pass fleet=FleetSpec.homogeneous(n, model) "
        "(or FleetSpec.of(...)) instead",
        DeprecationWarning, stacklevel=3)
    return FleetSpec.homogeneous(
        n_nodes if n_nodes is not None else default_nodes, model)


def _build_nodes(fleet: FleetSpec) -> list[FleetNode]:
    return [FleetNode(name, model, on=True, node_class=class_name)
            for name, class_name, model in fleet.members()]


class _TelemetryMirror:
    """Replays fleet power transitions into real metered devices.

    Per-node transitions are time-ordered (a FCFS pipe starts queries
    in dispatch order), so each device's power step function is
    recorded directly; the shared clock only advances once, at
    :meth:`finish`, to the fleet's end time.  Every node carries its
    own :class:`NodePowerModel`, so a heterogeneous fleet's devices
    draw their class's watts.
    """

    def __init__(self, collector, fleet_nodes: Sequence[FleetNode],
                 start_on: bool) -> None:
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
        for i, node in enumerate(fleet_nodes):
            device = Device(self.sim, f"svc.{node.name}",
                            initial_power_watts=(node.model.idle_watts
                                                 if start_on else 0.0))
            self.meter.attach(device)
            self.devices.append(device)
            if start_on:
                self._spans[i] = collector.stack.open(
                    f"svc.{node.name}.on", 0.0, {}, root=True)

    def serve(self, i: int, start: float, end: float,
              busy_watts: Optional[float] = None) -> None:
        """Record one execution window; ``busy_watts`` overrides the
        peak draw for downclocked (PVC) or throttled executions."""
        model = self.models[i]
        series = self.devices[i].power_series
        series.record(start, model.peak_watts
                      if busy_watts is None else busy_watts)
        series.record(end, model.idle_watts)

    def power_on(self, i: int, now: float) -> None:
        model = self.models[i]
        series = self.devices[i].power_series
        boot_watts = (model.boot_joules / model.boot_seconds
                      if model.boot_seconds > 0 else 0.0)
        series.record(now, boot_watts)
        series.record(now + model.boot_seconds, model.idle_watts)
        self._spans[i] = self.collector.stack.open(
            f"{self.devices[i].name}.on", now, {}, root=True)
        self.collector.count("svc.boots")

    def power_off(self, i: int, now: float) -> None:
        model = self.models[i]
        series = self.devices[i].power_series
        drain_watts = (model.drain_joules / model.drain_seconds
                       if model.drain_seconds > 0 else 0.0)
        drained = now + model.drain_seconds
        series.record(now, drain_watts)
        series.record(drained, 0.0)
        self._drained_until = max(self._drained_until, drained)
        span = self._spans[i]
        if span is not None:
            self.collector.stack.close(span, now, {})
            self._spans[i] = None

    def finish(self, end: float, report: ServiceReport) -> None:
        # a drain window still in flight when the books close: the
        # closed form charged its whole lump at power-off, so the
        # meters run on to the end of it — with the nodes that are
        # still on going dark at ``end``, where their books closed
        draining = self._drained_until > end
        self.sim.clock.advance_to(max(end, self._drained_until,
                                      self.sim.now))
        for i, span in enumerate(self._spans):
            if span is not None:
                if draining:
                    self.devices[i].power_series.record(end, 0.0)
                self.collector.stack.close(span, end, {})
                self._spans[i] = None
        self.collector.count("svc.queries_completed",
                             report.queries_completed)
        self.collector.count("svc.queries_rejected",
                             report.queries_rejected)


def simulate_service(stream: ArrivalStream,
                     fleet: Optional[FleetSpec] = None,
                     policy: DispatchPolicy | str = "power_aware",
                     autoscaler: Optional[Autoscaler] = None,
                     faults=None,
                     retry=None,
                     shed=None,
                     engine: str = "auto",
                     n_nodes: Optional[int] = None,
                     model: Optional[NodePowerModel] = None,
                     **policy_kwargs) -> ServiceReport:
    """Serve ``stream`` on the ``fleet``; returns the report.

    ``fleet`` is a :class:`~repro.service.spec.FleetSpec` (default: 16
    calibrated ``commodity`` nodes); the legacy ``n_nodes=``/``model=``
    pair still works as a deprecated shim for a homogeneous fleet
    (removal announced for 2.0).  ``policy`` may be a registered name
    or a ready :class:`DispatchPolicy`.  An ``autoscaler`` is only
    engaged when the policy declares ``autoscaled`` (packing); the
    all-on baselines keep the whole fleet powered, which is exactly the
    §2.4 non-proportionality problem the packing policy exists to fix.

    ``engine`` selects the serving core: ``"auto"`` (default) runs the
    vectorized event core of :mod:`repro.service.engine` whenever the
    configuration permits and falls back to the reference loop
    otherwise; ``"event"`` insists on the fast core (raising
    :class:`ServiceError` with the fallback reason if the configuration
    needs the loop); ``"loop"`` always runs the reference loop.  Both
    engines produce byte-identical reports — the one picked is recorded
    in :attr:`ServiceReport.engine`, and why ``"auto"`` fell back to
    the loop in :attr:`ServiceReport.engine_reason` (runtime metadata,
    excluded from serialization).

    Passing a :class:`~repro.faults.schedule.FaultSchedule` as
    ``faults`` hands the run to the chaos engine
    (:func:`repro.faults.engine.simulate_faulty_service`): same
    closed-form pipes, but the schedule's crashes, throttles, disk
    failures, and timeout windows are merged into the timeline, with
    ``retry`` (:class:`~repro.faults.policies.RetryPolicy`) and
    ``shed`` (:class:`~repro.faults.policies.ShedPolicy`) steering the
    degradation.  The returned report then carries a
    :class:`~repro.service.report.FaultStats` ledger.
    """
    if engine not in ("auto", "event", "loop"):
        raise ServiceError(
            f"unknown engine {engine!r}: pass 'auto', 'event', or 'loop'")
    if faults is not None:
        from repro.faults.engine import simulate_faulty_service
        # resolve the fleet here so a deprecated n_nodes=/model= call
        # warns at *this* frame's caller, not at the delegation below
        return simulate_faulty_service(
            stream, faults, fleet=_resolve_fleet(fleet, n_nodes, model),
            policy=policy, autoscaler=autoscaler, retry=retry, shed=shed,
            engine=engine, **policy_kwargs)
    if retry is not None or shed is not None:
        raise ServiceError("retry/shed policies only apply to a fault "
                           "run: pass a FaultSchedule as faults=")
    fleet = _resolve_fleet(fleet, n_nodes, model)
    if len(stream) == 0:
        raise ServiceError("empty arrival stream")
    policy = make_policy(policy, **policy_kwargs)
    if policy.autoscaled and autoscaler is None:
        autoscaler = Autoscaler(fleet.classes[0].model)
    if not policy.autoscaled:
        autoscaler = None

    nodes = _build_nodes(fleet)
    n_total = len(nodes)
    on_ids = list(range(n_total))

    from repro.telemetry import current_collector
    collector = current_collector()

    from repro.flightrec.context import current_recorder
    rec = current_recorder()

    from repro.service.engine import event_core_unsupported, serve_event
    reason = event_core_unsupported(policy, collector, rec,
                                    stream=stream)
    if engine == "event" and reason is not None:
        raise ServiceError(
            f"engine='event' cannot serve this configuration: {reason} "
            "(use engine='auto' to fall back to the reference loop)")
    use_event = reason is None and engine != "loop"

    cols = stream.columns()
    n = len(cols)
    tenant_idx = cols.tenant_index

    if use_event:
        latencies, admitted, last_completion = serve_event(
            stream, fleet, policy, autoscaler, nodes, on_ids)
        report = _assemble_report(stream, fleet, policy, nodes,
                                  latencies, admitted, last_completion,
                                  float(cols.times[-1]))
        report.engine = "event"
        report.latencies = latencies
        return report

    mirror = (None if collector is None else
              _TelemetryMirror(collector, nodes, start_on=True))
    if rec is not None:
        rec.begin_run("fleet", stream, nodes, policy.name,
                      autoscaler is not None)

    times, services, slas = cols.lists()
    latencies = np.empty(n)
    admitted = np.ones(n, dtype=bool)

    epoch = autoscaler.epoch_seconds if autoscaler is not None else 0.0
    next_epoch = epoch if autoscaler is not None else float("inf")

    # batch tenants (pipelines) are exempt from the admission limit:
    # backlog rejection guards latency, and batch work has none to
    # guard — it only has a freshness deadline
    batch_list = (None if cols.batch_flags is None
                  else cols.batch_flags.tolist())

    if policy.batching:
        last_completion = _serve_batched(
            policy, nodes, on_ids, autoscaler, mirror, rec, times,
            services, tenant_idx, slas, latencies, admitted, batch_list)
    else:
        last_completion = 0.0
        dvfs = policy.dvfs
        detail = rec is not None and rec.detail
        lane = None if rec is None else rec.serve_lane
        emit_dvfs = None if rec is None else rec.dvfs_serves.append
        for k in range(n):
            t = times[k]
            while t >= next_epoch:
                autoscaler.step(next_epoch, nodes, on_ids)
                next_epoch += epoch
                if mirror is not None:
                    _mirror_power_state(mirror, nodes)
            s = services[k]
            if autoscaler is not None:
                autoscaler.observe(s)
            ctx = DispatchContext(nodes, on_ids, t, s, slas[k])
            i = policy.route(ctx)
            if detail:
                rec.events.append((t, "dispatch", i, int(tenant_idx[k]),
                                   k, dispatch_candidates(ctx, i)))
            node = nodes[i]
            if not policy.admits(node, t) and \
                    (batch_list is None or not batch_list[k]):
                admitted[k] = False
                latencies[k] = np.nan
                if rec is not None:
                    rec.events.append(
                        (t, "reject", i, int(tenant_idx[k]), k, {}))
                continue
            if dvfs and (freq := policy.frequency(ctx, i)) < 1.0:
                model_i = node.model
                busy_watts = model_i.idle_watts \
                    + (model_i.peak_watts - model_i.idle_watts) * freq ** 3
                start, done = node.serve_active(t, s, busy_watts, freq)
                latencies[k] = done - t
                if emit_dvfs is not None:
                    emit_dvfs((k, i, start, freq, busy_watts))
            else:
                busy_watts = None
                if mirror is not None:
                    start = node.busy_until if node.busy_until > t else t
                latencies[k] = node.serve(t, s)
                if lane is not None:
                    lane[k] = i
            if node.busy_until > last_completion:
                last_completion = node.busy_until
            if mirror is not None:
                mirror.serve(i, start, node.busy_until, busy_watts)

    report = _assemble_report(stream, fleet, policy, nodes, latencies,
                              admitted, last_completion, times[-1])
    report.engine = "loop"
    report.engine_reason = reason if engine == "auto" else None
    report.latencies = latencies
    if rec is not None:
        rec.end_run(report.makespan_seconds, report, latencies=latencies)
    if mirror is not None:
        mirror.finish(report.makespan_seconds, report)
    return report


def _assemble_report(stream: ArrivalStream,
                     fleet: FleetSpec,
                     policy: DispatchPolicy,
                     nodes: Sequence[FleetNode],
                     latencies: np.ndarray,
                     admitted: np.ndarray,
                     last_completion: float,
                     last_arrival: float) -> ServiceReport:
    """Finalize the fleet and fold the run into a
    :class:`ServiceReport` — the single assembly tail both serving
    engines share, so quantile math and energy rollups cannot drift
    between them."""
    tenant_idx = stream.tenant_index
    end = books_close_at(nodes, max(last_completion, last_arrival))
    node_stats = [node.finalize(end) for node in nodes]

    lat = latencies[admitted]
    if lat.size == 0:
        raise ServiceError("policy admitted no queries")
    p50, p95, p99 = np.quantile(lat, [0.50, 0.95, 0.99])
    tenants = []
    for ti, tenant in enumerate(stream.tenants):
        mask = tenant_idx == ti
        t_lat = np.sort(latencies[mask & admitted])
        t_rejected = int((mask & ~admitted).sum())
        if t_lat.size == 0:
            raise ServiceError(
                f"tenant {tenant.name!r} completed no queries")
        samples = t_lat.tolist()
        tenants.append(TenantStats(
            tenant=tenant.name,
            completed=int(t_lat.size),
            rejected=t_rejected,
            mean_latency_seconds=float(t_lat.mean()),
            p50_latency_seconds=quantile(samples, 0.50),
            p95_latency_seconds=quantile(samples, 0.95),
            p99_latency_seconds=quantile(samples, 0.99),
            sla_p95_seconds=tenant.sla_p95_seconds,
        ))

    return ServiceReport(
        policy=policy.name,
        n_nodes=len(nodes),
        queries_offered=len(latencies),
        queries_completed=int(admitted.sum()),
        queries_rejected=int((~admitted).sum()),
        makespan_seconds=end,
        energy_joules=sum(s.energy_joules for s in node_stats),
        p50_latency_seconds=float(p50),
        p95_latency_seconds=float(p95),
        p99_latency_seconds=float(p99),
        mean_latency_seconds=float(lat.mean()),
        node_seconds_on=sum(s.on_seconds for s in node_stats),
        tenants=tenants,
        nodes=node_stats,
        classes=rollup_classes(node_stats),
        fleet=fleet.to_dict(),
    )


def _serve_batched(policy: DispatchPolicy,
                   nodes: Sequence[FleetNode],
                   on_ids: list[int],
                   autoscaler: Optional[Autoscaler],
                   mirror: Optional[_TelemetryMirror],
                   rec,
                   times: list[float],
                   services: list[float],
                   tenant_idx,
                   slas: list[float],
                   latencies,
                   admitted,
                   batch_list: Optional[list[bool]] = None) -> float:
    """Drive a ``batching`` policy's hold/release protocol (QED).

    Arrivals enter the policy's hold queues through
    :meth:`~repro.service.dispatch.DispatchPolicy.offer`; the merged
    timeline interleaves arrivals with queue release deadlines
    (:meth:`next_deadline`/:meth:`due`), so a batch executes the
    instant its latency headroom runs out, never later.  Released
    batches route through the policy's ordinary :meth:`route`/
    :meth:`admits` hooks as *one* shared execution — every member
    completes at the batch end, and a rejected batch rejects every
    member.  The autoscaler observes the batch's *combined* (shared)
    demand at release, so consolidation sees the work QED actually
    creates, not the work it absorbed.  With a zero hold window every
    arrival releases immediately as a batch of one, reproducing the
    un-batched engine event for event.

    Returns the last completion instant (mutates ``latencies``,
    ``admitted``, the nodes, and ``on_ids`` in place).
    """
    n = len(times)
    inf = float("inf")
    epoch = autoscaler.epoch_seconds if autoscaler is not None else 0.0
    next_epoch = epoch if autoscaler is not None else inf
    # epochs stop with the workload, exactly as the chaos engine's do:
    # post-stream releases must not keep the autoscaler cycling a
    # fleet with nothing left to absorb
    last_arrival = times[-1]
    last_completion = 0.0
    dvfs = policy.dvfs
    detail = rec is not None and rec.detail

    def step_epochs(t: float) -> None:
        nonlocal next_epoch
        while t >= next_epoch and next_epoch <= last_arrival:
            autoscaler.step(next_epoch, nodes, on_ids)
            next_epoch += epoch
            if mirror is not None:
                _mirror_power_state(mirror, nodes)

    def execute(batch) -> None:
        nonlocal last_completion
        t = batch.release_at
        s = batch.service_seconds
        if autoscaler is not None:
            autoscaler.observe(s)
        ctx = DispatchContext(nodes, on_ids, t, s, batch.sla_seconds)
        i = policy.route(ctx)
        if detail:
            rec.events.append((t, "dispatch", i, None, batch.members[0],
                               dispatch_candidates(ctx, i)))
        node = nodes[i]
        if not policy.admits(node, t) and \
                (batch_list is None or not batch_list[batch.members[0]]):
            for k in batch.members:
                admitted[k] = False
                latencies[k] = np.nan
            if rec is not None:
                rec.events.append((t, "reject", i, None, None,
                                   {"members": list(batch.members)}))
            return
        if dvfs and (freq := policy.frequency(ctx, i)) < 1.0:
            model_i = node.model
            busy_watts = model_i.idle_watts \
                + (model_i.peak_watts - model_i.idle_watts) * freq ** 3
            start, done = node.serve_active(t, s, busy_watts, freq)
        else:
            freq = 1.0
            busy_watts = None
            start = node.busy_until if node.busy_until > t else t
            node.serve(t, s)
            done = node.busy_until
        # serve()/serve_active() count one completion; the other
        # members of the shared execution complete with it
        node.completed += len(batch.members) - 1
        for k in batch.members:
            latencies[k] = done - times[k]
        if done > last_completion:
            last_completion = done
        if mirror is not None:
            mirror.serve(i, start, done, busy_watts)
        if rec is not None:
            rec.batch_serves.append(
                (batch.members, i, t, start, done, s, freq, busy_watts))

    k = 0
    while True:
        t_arr = times[k] if k < n else inf
        deadline = policy.next_deadline()
        if deadline <= t_arr and deadline < inf:
            step_epochs(deadline)
            for batch in policy.due(deadline):
                execute(batch)
        elif k < n:
            step_epochs(t_arr)
            for batch in policy.offer(k, t_arr, services[k],
                                      int(tenant_idx[k]), slas[k]):
                execute(batch)
            k += 1
        else:
            break
    for batch in policy.flush():
        execute(batch)
    return last_completion


def _mirror_power_state(mirror: _TelemetryMirror,
                        nodes: Sequence[FleetNode]) -> None:
    """Propagate autoscaler on/off flips into the mirror devices."""
    for i, node in enumerate(nodes):
        span_open = mirror._spans[i] is not None
        if node.on and not span_open:
            # power_on happened this epoch step, at node.on_since
            mirror.power_on(i, node.on_since)
        elif not node.on and span_open:
            # power_off left busy_until at off-time + drain window
            mirror.power_off(
                i, node.busy_until - node.model.drain_seconds)
