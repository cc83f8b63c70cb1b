"""The chaos engine: fleet serving under a deterministic fault plan.

:func:`simulate_faulty_service` is the fault-tolerant sibling of
:func:`repro.service.fleet.simulate_service`: the same closed-form
FCFS pipes and utilization-linear energy identity, but arrivals now
share the timeline with a :class:`~repro.faults.schedule.FaultSchedule`
— node crashes, thermal throttling to a lower DVFS state, RAID-group
disk failures, and transient dispatch-timeout windows.  The merged
timeline is a single heap of (time, priority, sequence) events, so a
chaos run is exactly as deterministic as a healthy one: same stream,
same schedule, byte-identical report.

Degradation is graceful, not silent.  A crash truncates the in-flight
query at the crash instant, retracts everything queued behind it, and
re-dispatches the destroyed work onto survivors under a
:class:`~repro.faults.policies.RetryPolicy` (exponential backoff, a
bounded attempt budget); a :class:`~repro.faults.policies.ShedPolicy`
refuses arrivals that could no longer meet their tenant's SLA; the
:class:`~repro.service.autoscale.Autoscaler` prices replacement boots
at crash instants against its break-even rule.  Every arrival ends in
exactly one bucket — completed, rejected, or crash-lost — and the
:class:`~repro.service.report.FaultStats` ledger reconciles them.

Telemetry keeps its exactness guarantee through every transition: the
mirror replays truncated executions, zero-power crash gaps, and
recovery boots into real metered devices, so the trace energy matches
the closed form to the same 1e-9 relative tolerance as the healthy
path.  Because a crash rewrites a node's recent history (queued work
is retracted), mirror records are deferred: completions are emitted
only once they are *settled* — confirmed to predate every later fault
on their node.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import deque
from typing import Optional

import numpy as np

from repro.faults.policies import RetryPolicy, ShedPolicy
from repro.faults.schedule import FaultError, FaultSchedule
from repro.service.autoscale import Autoscaler
from repro.service.dispatch import (DispatchContext, DispatchPolicy,
                                    dispatch_candidates)
from repro.service.fleet import _assemble_report, _prepare
from repro.service.report import FaultStats, ServiceReport
from repro.service.spec import FleetSpec
from repro.service.workload import ArrivalStream

# arrival-state codes (per-query resolution ledger)
_PENDING, _COMPLETED, _REJECTED, _LOST = 0, 1, 2, 3
# heap priorities: faults and repairs rewrite the world the
# re-dispatches then see, so they win ties; batch releases run last so
# a released batch dispatches onto the post-fault fleet
_PRIO_FAULT, _PRIO_REDISPATCH, _PRIO_RELEASE = 0, 1, 2
_EMPTY: frozenset = frozenset()


def _merge_windows(windows: list[tuple[float, float]]) \
        -> tuple[list[float], list[float]]:
    """Union overlapping [start, end) windows; returns (starts, ends)
    as parallel ascending lists for bisection."""
    windows.sort()
    starts: list[float] = []
    ends: list[float] = []
    for s, e in windows:
        if starts and s <= ends[-1]:
            if e > ends[-1]:
                ends[-1] = e
        else:
            starts.append(s)
            ends.append(e)
    return starts, ends


def simulate_faulty_service(stream: ArrivalStream,
                            schedule: FaultSchedule,
                            fleet: Optional[FleetSpec] = None,
                            policy: DispatchPolicy | str = "power_aware",
                            autoscaler: Optional[Autoscaler] = None,
                            retry: Optional[RetryPolicy] = None,
                            shed: Optional[ShedPolicy] = None,
                            engine: str = "auto",
                            **policy_kwargs) -> ServiceReport:
    """Serve ``stream`` on a fleet while ``schedule`` breaks it.

    ``fleet`` is a :class:`~repro.service.spec.FleetSpec` (default: 16
    calibrated ``commodity`` nodes).  Chaos runs always execute on the
    reference loop — fault windows rewrite per-node history, which the
    vectorized event core of :mod:`repro.service.engine` cannot replay
    — so ``engine`` accepts ``"auto"``/``"loop"`` (both run the loop)
    and rejects ``"event"``.  On a
    heterogeneous fleet every fault prices against the struck node's
    *own* power curve — a throttled wimpy node's busy draw follows the
    cubic DVFS rule on its class's idle/peak watts, a crashed node
    retracts its own marginal Joules, and the autoscaler's emergency
    replacement boots are gated by each spare's own break-even time.

    Semantics per fault kind:

    * ``crash`` — the node loses power at the fault instant: the
      in-flight query is destroyed mid-execution, the queue behind it
      is retracted, no drain lump is paid, and the node is bootable
      again only at crash + downtime.  Destroyed queries re-dispatch
      onto survivors after ``retry`` backoff until the attempt budget
      runs out (then they count as *lost*).  A crash that lands on an
      already-down node is skipped; one that lands inside the atomic
      boot window fires at the window's end.
    * ``throttle`` — the node drops to DVFS fraction *f* for the
      window: service times divide by *f*, busy power is
      ``idle + (peak - idle) * f**3`` (the cubic dynamic-power rule,
      :meth:`~repro.service.node.NodePowerModel.dvfs_watts`).
      Overlapping windows compound.
    * ``disk`` — the node's RAID group runs degraded for the rebuild:
      service times divide by the event severity (see
      :func:`~repro.faults.schedule.degraded_speed_factor`); power is
      unchanged.
    * ``timeout`` — dispatch attempts routed to the node during the
      window fail after ``retry.timeout_detect_seconds`` and re-route
      to a survivor (degraded-mode dispatch); an arrival that burns
      its whole attempt budget on timeouts is rejected.

    PVC and QED policies run under faults since the flight recorder
    landed: a DVFS governor's downclock composes with any active
    throttle window (effective cubic factor is their product), and a
    batching policy's hold queues release through the same event heap
    — a released batch routes, sheds, crashes, and retries as one
    unit, with every member sharing the outcome.

    The returned :class:`~repro.service.report.ServiceReport` carries a
    :class:`~repro.service.report.FaultStats` ledger reconciling every
    arrival: ``offered == completed + rejected + lost``, exactly.

    >>> from repro.faults.schedule import FaultEvent, FaultSchedule
    >>> from repro.service.spec import FleetSpec
    >>> from repro.service.workload import build_stream
    >>> stream = build_stream(200, seed=1)
    >>> crash = FaultEvent(kind="crash", node=0, start=1.0, duration=30.0)
    >>> plan = FaultSchedule(n_nodes=4, horizon_seconds=60.0,
    ...                      events=(crash,))
    >>> report = simulate_faulty_service(
    ...     stream, plan, fleet=FleetSpec.homogeneous(4),
    ...     policy="round_robin")
    >>> report.faults.crashes
    1
    >>> report.queries_offered == (report.queries_completed
    ...                            + report.queries_rejected
    ...                            + report.queries_lost)
    True
    """
    run = _prepare(stream, fleet, policy, policy_kwargs, autoscaler,
                   engine, faults=schedule)
    policy, autoscaler, nodes, on_ids, mirror, rec = run[:6]
    if retry is None:
        retry = RetryPolicy()
    n_nodes = len(nodes)
    models = [node.model for node in nodes]
    rec_detail = rec is not None and rec.detail
    batching = policy.batching
    dvfs = policy.dvfs

    times, services, slas = stream.columns().lists()
    tenant_idx = stream.tenant_index
    n = len(times)
    latencies = np.full(n, np.nan)
    state = np.zeros(n, dtype=np.int8)
    was_crashed = np.zeros(n, dtype=bool)
    attempts = [0] * n

    # -- per-node fault state (each node on its class's power curve) --
    throttle_active: list[list[float]] = [[] for _ in range(n_nodes)]
    disk_active: list[list[float]] = [[] for _ in range(n_nodes)]
    speed_mult = [1.0] * n_nodes
    throttle_factor = [1.0] * n_nodes
    busy_watts = [m.dvfs_watts(1.0) for m in models]
    #: unsettled executions per node: (job, start, end, scaled, watts,
    #: frequency) — job is an arrival index or a released Batch
    pending: list[deque] = [deque() for _ in range(n_nodes)]

    def recompute(i: int) -> None:
        tf = 1.0
        for f in throttle_active[i]:
            tf *= f
        df = 1.0
        for f in disk_active[i]:
            df *= f
        speed_mult[i] = tf * df
        throttle_factor[i] = tf
        busy_watts[i] = models[i].dvfs_watts(tf)

    # -- the merged event timeline ------------------------------------
    heap: list[tuple] = []
    seq = 0

    def push(at: float, prio: int, kind: str, payload) -> None:
        nonlocal seq
        heapq.heappush(heap, (at, prio, seq, kind, payload))
        seq += 1

    stats = FaultStats()
    crash_intervals: list[tuple[float, float]] = []
    timeout_raw: list[list[tuple[float, float]]] = \
        [[] for _ in range(n_nodes)]
    for event in schedule.events:
        if event.kind == "timeout":
            timeout_raw[event.node].append((event.start, event.end))
            stats.timeout_windows += 1
        else:
            push(event.start, _PRIO_FAULT, "fault", event)
    timeout_windows = [_merge_windows(w) for w in timeout_raw]

    def in_timeout(i: int, now: float) -> bool:
        starts, ends = timeout_windows[i]
        pos = bisect_right(starts, now) - 1
        return pos >= 0 and now < ends[pos]

    # -- settlement: confirm completions that predate later faults ----
    last_completion = 0.0

    def settle(i: int, upto: float) -> None:
        q = pending[i]
        while q and q[0][2] <= upto:
            job, start, end, _scaled, watts, freq = q.popleft()
            if type(job) is int:
                latencies[job] = end - times[job]
                state[job] = _COMPLETED
                if rec is not None:
                    rec.fault_serves.append(
                        (job, i, start, end, watts, freq, None))
            else:
                for m in job.members:
                    latencies[m] = end - times[m]
                    state[m] = _COMPLETED
                if rec is not None:
                    rec.fault_serves.append(
                        (job.members, i, start, end, watts, freq,
                         job.service_seconds))
            if mirror is not None:
                mirror.serve(i, start, end, watts)

    # -- dispatch (and re-dispatch) -----------------------------------
    # ``job`` is an arrival index, or (when the policy batches) a
    # released Batch dispatched as one shared execution: its combined
    # demand routes, executes, and sheds as a unit, and every member
    # shares the outcome (latency, rejection, crash loss)
    def dispatch(job, now: float, excluded: frozenset) -> None:
        nonlocal last_completion
        ids = (on_ids if not excluded
               else [i for i in on_ids if i not in excluded])
        if not ids and excluded:
            # every survivor is excluded: forget the exclusions and
            # spend attempts anywhere rather than stall
            ids = on_ids
        if not ids:
            # total blackout: boot a repaired spare, else park the
            # query until the earliest repair completes
            spare = next((i for i in range(n_nodes)
                          if not nodes[i].on
                          and nodes[i].busy_until <= now), None)
            if spare is None:
                wake = min(nodes[i].busy_until for i in range(n_nodes))
                push(wake, _PRIO_REDISPATCH, "redispatch", (job, _EMPTY))
                return
            nodes[spare].power_on(now)
            on_ids.append(spare)
            stats.emergency_boots += 1
            if mirror is not None:
                mirror.power_on(spare, now)
            if rec is not None:
                rec.events.append((now, "boot", spare, None, None,
                                   {"reason": "blackout"}))
            ids = on_ids
        if type(job) is int:
            who = (job,)
            s = services[job]
            sla = slas[job]
        else:
            who = job.members
            s = job.service_seconds
            sla = job.sla_seconds
        ctx = DispatchContext(nodes, ids, now, s, sla)
        i = policy.route(ctx)
        node = nodes[i]
        for m in who:
            attempts[m] += 1
        if rec_detail:
            rec.events.append(
                (now, "dispatch", i,
                 int(tenant_idx[who[0]]) if len(who) == 1 else None,
                 who[0], dispatch_candidates(ctx, i)))
        if in_timeout(i, now):
            stats.timeouts += 1
            if retry.exhausted(attempts[who[0]]):
                state[list(who)] = _REJECTED
                if rec is not None:
                    rec.events.append(
                        (now, "reject", i, None, who[0],
                         {"reason": "timeout", "members": list(who)}))
            else:
                stats.retries += 1
                delay = (retry.timeout_detect_seconds
                         + retry.backoff_seconds(attempts[who[0]]))
                push(now + delay, _PRIO_REDISPATCH, "redispatch",
                     (job, excluded | {i}))
                if rec is not None:
                    rec.events.append(
                        (now, "timeout", i, None, who[0],
                         {"retry_at": now + delay,
                          "members": list(who)}))
                    rec.events.append(
                        (now, "retry", i, None, who[0],
                         {"reason": "timeout", "members": list(who)}))
            return
        if not policy.admits(node, now):
            state[list(who)] = _REJECTED
            if rec is not None:
                rec.events.append((now, "reject", i, None, who[0],
                                   {"members": list(who)}))
            return
        if shed is not None and shed.sheds(
                node.backlog(now),
                s / (node.model.speed_factor * speed_mult[i]), sla):
            state[list(who)] = _REJECTED
            stats.queries_shed += len(who)
            if rec is not None:
                rec.events.append((now, "shed", i, None, who[0],
                                   {"members": list(who)}))
            return
        freq = 1.0
        w = busy_watts[i]
        mult = speed_mult[i]
        if dvfs:
            freq = policy.frequency(ctx, i)
            if freq < 1.0:
                # compose the governor's downclock with any throttle
                # fault: both follow the cubic dynamic-power rule, so
                # the effective cubic factor is their product
                w = models[i].dvfs_watts(throttle_factor[i] * freq)
                mult = mult * freq
        start, end = node.serve_active(now, s, w, mult)
        if len(who) > 1:
            node.completed += len(who) - 1
        pending[i].append((job, start, end, end - start, w, freq))
        if end > last_completion:
            last_completion = end

    # -- fault application --------------------------------------------
    def do_crash(i: int, now: float, downtime: float) -> None:
        node = nodes[i]
        if not node.on:
            stats.faults_skipped += 1
            return
        if now < node.boot_until:
            # the boot window is atomic: the lump is unsplittable, so
            # a mid-boot crash fires the instant the boot completes
            push(node.boot_until, _PRIO_FAULT, "crash_deferred",
                 (i, downtime))
            return
        settle(i, now)
        q = pending[i]
        lost: list = []          # destroyed jobs, in queue order
        lost_queries = 0
        retract_busy = 0.0
        retract_joules = 0.0
        if q and q[0][1] < now:
            # in-flight execution: ran up to the crash, then destroyed
            job0, s0, _e0, scaled0, w0, _f0 = q.popleft()
            unexecuted = scaled0 - (now - s0)
            retract_busy += unexecuted
            retract_joules += (w0 - node.model.idle_watts) * unexecuted
            lost.append(job0)
            lost_queries += (1 if type(job0) is int
                             else len(job0.members))
            if mirror is not None:
                mirror.serve(i, s0, now, w0)
            if rec is not None:
                rec.events.append(
                    (now, "truncated_serve", i, None,
                     job0 if type(job0) is int else job0.members[0],
                     {"start": s0, "end": now, "watts": w0}))
        while q:
            job2, _s2, _e2, scaled2, w2, _f2 = q.popleft()
            retract_busy += scaled2
            retract_joules += (w2 - node.model.idle_watts) * scaled2
            lost.append(job2)
            lost_queries += (1 if type(job2) is int
                             else len(job2.members))
        node.retract(retract_busy, retract_joules, lost_queries)
        repair_at = now + downtime
        node.crash(now, repair_at)
        on_ids.remove(i)
        stats.crashes += 1
        crash_intervals.append((now, repair_at))
        if mirror is not None:
            mirror.crash(i, now)
        if rec is not None:
            rec.events.append((now, "crash", i, None, None,
                               {"repair_at": repair_at,
                                "lost": lost_queries}))
        push(repair_at, _PRIO_FAULT, "repair", i)
        for job2 in lost:
            members = (job2,) if type(job2) is int else job2.members
            for m in members:
                was_crashed[m] = True
            if retry.exhausted(attempts[members[0]]):
                state[list(members)] = _LOST
                if rec is not None:
                    rec.events.append(
                        (now, "lost", i, None, members[0],
                         {"members": list(members)}))
            else:
                stats.retries += 1
                push(now + retry.backoff_seconds(attempts[members[0]]),
                     _PRIO_REDISPATCH, "redispatch", (job2, _EMPTY))
                if rec is not None:
                    rec.events.append(
                        (now, "retry", i, None, members[0],
                         {"reason": "crash", "members": list(members)}))
        if autoscaler is not None:
            booted = autoscaler.emergency(now, nodes, on_ids, downtime)
            if mirror is not None:
                for b in booted:
                    mirror.power_on(b, now)

    def do_repair(i: int, now: float) -> None:
        node = nodes[i]
        stats.recoveries += 1
        if rec is not None:
            rec.events.append((now, "repair", i, None, None, {}))
        if node.on:
            return
        if autoscaler is None or not on_ids:
            # all-on fleets restore their node count; an autoscaled
            # fleet leaves the repaired node parked as a spare (unless
            # the fleet has gone dark, which liveness can't wait out)
            if node.busy_until <= now:
                node.power_on(now)
                on_ids.append(i)
                on_ids.sort()
                if mirror is not None:
                    mirror.power_on(i, now)
                if rec is not None:
                    rec.events.append((now, "boot", i, None, None,
                                       {"reason": "repair"}))

    # -- batch release plumbing (only when the policy batches) --------
    # every policy interaction reschedules one wake-up at the earliest
    # outstanding hold deadline; stale wake-ups (the queue already
    # flushed full) fall through ``due`` as no-ops
    scheduled_releases: set[float] = set()

    def schedule_release() -> None:
        nd = policy.next_deadline()
        if nd != float("inf") and nd not in scheduled_releases:
            scheduled_releases.add(nd)
            push(nd, _PRIO_RELEASE, "release", None)

    def execute_batch(batch, now: float) -> None:
        # the autoscaler observes the *combined* (shared) demand at
        # release — consolidation pressure follows executed work
        if autoscaler is not None:
            autoscaler.observe(batch.service_seconds)
        dispatch(batch, now, _EMPTY)

    # -- the run -------------------------------------------------------
    epoch = autoscaler.epoch_seconds if autoscaler is not None else 0.0
    next_epoch = epoch if autoscaler is not None else float("inf")
    # epochs stop with the workload (legacy semantics): late fault and
    # repair events must not keep the autoscaler power-cycling a fleet
    # that has nothing left to serve
    last_arrival = times[-1]
    k_next = 0
    while k_next < n or heap:
        if heap and (k_next >= n or heap[0][0] <= times[k_next]):
            t, _prio, _seq, kind, payload = heapq.heappop(heap)
        else:
            t, kind, payload = times[k_next], "arrival", k_next
            k_next += 1
        while t >= next_epoch and next_epoch <= last_arrival:
            for i in list(on_ids):
                settle(i, next_epoch)
            autoscaler.step(next_epoch, nodes, on_ids)
            if mirror is not None:
                mirror.sync(nodes)
            next_epoch += epoch
        if kind == "arrival":
            if batching:
                ti = int(tenant_idx[payload])
                for batch in policy.offer(payload, t, services[payload],
                                          ti, slas[payload]):
                    execute_batch(batch, t)
                schedule_release()
            else:
                if autoscaler is not None:
                    autoscaler.observe(services[payload])
                dispatch(payload, t, _EMPTY)
        elif kind == "release":
            scheduled_releases.discard(t)
            for batch in policy.due(t):
                execute_batch(batch, t)
            schedule_release()
        elif kind == "redispatch":
            job, excluded = payload
            dispatch(job, t, excluded)
        elif kind == "fault":
            event = payload
            if event.kind == "crash":
                do_crash(event.node, t, event.duration)
            elif event.kind == "throttle":
                throttle_active[event.node].append(event.severity)
                recompute(event.node)
                stats.throttle_windows += 1
                push(event.end, _PRIO_FAULT, "fault_end",
                     ("throttle", event.node, event.severity))
                if rec is not None:
                    rec.events.append(
                        (t, "throttle_start", event.node, None, None,
                         {"severity": event.severity,
                          "until": event.end}))
            else:  # disk
                disk_active[event.node].append(event.severity)
                recompute(event.node)
                stats.disk_failures += 1
                push(event.end, _PRIO_FAULT, "fault_end",
                     ("disk", event.node, event.severity))
                if rec is not None:
                    rec.events.append(
                        (t, "disk_fail", event.node, None, None,
                         {"severity": event.severity,
                          "until": event.end}))
        elif kind == "fault_end":
            which, i, severity = payload
            lanes = throttle_active if which == "throttle" else disk_active
            lanes[i].remove(severity)
            recompute(i)
            if rec is not None:
                rec.events.append(
                    (t, "throttle_end" if which == "throttle"
                     else "disk_recover", i, None, None,
                     {"severity": severity}))
        elif kind == "crash_deferred":
            i, downtime = payload
            do_crash(i, t, downtime)
        else:  # repair
            do_repair(payload, t)

    if batching:
        # every open hold had a scheduled release, so this is normally
        # empty; it guards third-party batching policies whose
        # ``next_deadline`` under-reports
        for batch in policy.flush():
            execute_batch(batch, batch.release_at)

    # -- close the books ----------------------------------------------
    # every execution still pending ends by ``last_completion``
    for i in range(n_nodes):
        settle(i, last_completion)
    if int((state == _PENDING).sum()):  # pragma: no cover - invariant
        raise FaultError("internal: arrivals left unresolved")
    completed = state == _COMPLETED
    lost = state == _LOST
    stats.queries_lost = int(lost.sum())
    stats.queries_recovered = int((was_crashed & completed).sum())
    stats.emergency_boots += (autoscaler.emergency_boots
                              if autoscaler is not None else 0)
    return _assemble_report(run, latencies, completed, last_completion,
                            lost=lost, faults=stats,
                            crash_intervals=crash_intervals)
