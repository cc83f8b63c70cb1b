"""The chaos engine: fleet serving under a deterministic fault plan.

:func:`simulate_faulty_service` is the fault-tolerant sibling of
:func:`repro.service.fleet.simulate_service`: the same closed-form
FCFS pipes and utilization-linear energy identity, but arrivals now
share the timeline with a :class:`~repro.faults.schedule.FaultSchedule`
— node crashes, thermal throttling to a lower DVFS state, RAID-group
disk failures, and transient dispatch-timeout windows.  The merged
timeline is a single heap of (time, priority, sequence) events, so a
chaos run is exactly as deterministic as a healthy one: same stream,
same schedule, byte-identical report.  Its rows are served by a
generated event-core kernel (``faulted``, :mod:`repro.service.engine`)
or, with ``engine="loop"``, by this module's reference closure; both
call the same functions for everything but a row's first attempt.

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
is retracted), a completion booked at serve time is emitted to the
observers only once it is *settled* — confirmed to predate every later
fault on its node.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_right
from collections import deque
from itertools import chain
from types import SimpleNamespace
from typing import Optional

import numpy as np

from repro.faults.policies import RetryPolicy, ShedPolicy
from repro.faults.schedule import FaultError, FaultSchedule
from repro.service.autoscale import Autoscaler
from repro.service.dispatch import DispatchContext, DispatchPolicy
from repro.service.engine import kernel_for, ladder_rows
from repro.service.fleet import _assemble_report, _prepare
from repro.service.pvc import FREQUENCY_STEPS
from repro.service.report import FaultStats, ServiceReport
from repro.service.spec import FleetSpec
from repro.service.workload import ArrivalStream

# arrival-state codes (per-query resolution ledger)
_PENDING, _COMPLETED, _REJECTED, _LOST = 0, 1, 2, 3
# heap priorities: faults and repairs rewrite the world the
# re-dispatches then see, so they win ties; the served stream's rows
# run after every heap event at their instant, so a released batch
# dispatches onto the post-fault fleet
_PRIO_FAULT, _PRIO_REDISPATCH = 0, 1
_EMPTY: frozenset = frozenset()
_INF = float("inf")


def _alone(k: int) -> tuple[int]:
    """The members of an ordinary stream's row ``k``: arrival ``k``."""
    return (k,)


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
    calibrated ``commodity`` nodes).  ``engine`` picks the serving core
    as for :func:`~repro.service.fleet.simulate_service`: ``"auto"`` and
    ``"event"`` take the generated ``faulted`` kernel wherever the
    router has one (``"event"`` raises naming why not), ``"loop"`` the
    reference closure the kernels are held to.  On a
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
    batching policy's releases (computed before serving by
    :meth:`~repro.service.qed.QEDPolicy.releases`) are the rows this
    engine serves — a released batch routes, sheds, crashes, and
    retries as one unit, with every member sharing the outcome.

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
    ...                            + report.faults.queries_lost)
    True
    """
    run = _prepare(stream, fleet, policy, policy_kwargs, autoscaler,
                   engine, faults=schedule)
    policy, autoscaler, nodes, on_ids, mirror, rec = run[:6]
    if retry is None:
        retry = RetryPolicy()
    n_nodes = len(nodes)
    models = [node.model for node in nodes]
    dvfs = policy.dvfs

    # a row of the served stream is an arrival or, under a batching
    # policy, one shared execution; ``members(row)`` names its arrivals.
    # Every member shares its row's outcome, so the books are per row
    cols = run.cols
    times, services, slas = cols.lists()
    n = len(times)
    members = _alone if cols.members is None else cols.members.__getitem__
    width = (b"\x01" * n if cols.members is None
             else array("l", map(len, cols.members)))
    arrivals = stream.columns().lists()[0]
    # batch tenants are exempt from the admission limit, as on the loop
    batch_list = (None if cols.batch_flags is None
                  else cols.batch_flags.tolist())
    #: per row: its latest completion (read where it completed), its
    #: state, whether a crash destroyed it once, its dispatch attempts
    ends = array("d", [np.nan]) * n
    state = bytearray(n)
    was_crashed = bytearray(n)
    attempts = [0] * n

    # -- per-node fault state (each node on its class's power curve) --
    throttle_active: list[list[float]] = [[] for _ in range(n_nodes)]
    disk_active: list[list[float]] = [[] for _ in range(n_nodes)]
    speed_mult = [1.0] * n_nodes
    throttle_factor = [1.0] * n_nodes
    busy_watts = [0.0] * n_nodes
    #: per node, the governed kernel's ladder rows (see ``recompute``)
    steps_of: list[list[tuple]] = [[] for _ in range(n_nodes)]
    #: unsettled executions per node: (row, start, end, end - start,
    #: watts, frequency)
    pending: list[deque] = [deque() for _ in range(n_nodes)]
    pvc = None
    if run.engine == "event":
        kernel, router, pvc, outer = kernel_for(policy, autoscaler,
                                                faulted=True)
    steps = [f for f in FREQUENCY_STEPS if f < 1.0] if pvc else []

    def recompute(i: int) -> None:
        tf = 1.0
        for f in throttle_active[i]:
            tf *= f
        df = 1.0
        for f in disk_active[i]:
            df *= f
        speed_mult[i] = tf * df
        throttle_factor[i] = tf
        model = models[i]
        busy_watts[i] = model.dvfs_watts(tf)
        # each downclock step composed with the throttle (the cubic
        # rule) and the degraded speed, as ``dispatch`` composes them
        steps_of[i] = ladder_rows(model, steps, speed_mult[i], tf)

    for i in range(n_nodes):
        recompute(i)

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
    #: per node: its merged windows as (starts, ends), None if none
    timeout_windows = [_merge_windows(w) if w else None
                       for w in timeout_raw]

    def in_timeout(i: int, now: float) -> bool:
        windows = timeout_windows[i]
        pos = -1 if windows is None else bisect_right(windows[0], now) - 1
        return pos >= 0 and now < windows[1][pos]

    # -- settlement: confirm completions that predate later faults ----
    last_completion = 0.0

    def settle(i: int, upto: float) -> None:
        q = pending[i]
        while q and q[0][2] <= upto:
            job, start, end, _scaled, watts, freq = q.popleft()
            if rec is not None:
                rec.batch_serves.append((members(job), i, start, start,
                                         end, services[job], freq, watts))
            if mirror is not None:
                mirror.serve(i, start, end, watts)

    # -- dispatch (and re-dispatch) -----------------------------------
    # ``job`` is a row of the served stream: a shared execution's
    # combined demand routes, executes, and sheds as a unit, and every
    # member shares the outcome (latency, rejection, crash loss)
    def dispatch(job, now: float, excluded: frozenset = _EMPTY) -> None:
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
        s = services[job]
        sla = slas[job]
        ctx = DispatchContext(nodes, ids, now, s, sla)
        i = policy.route(ctx)
        node = nodes[i]
        attempts[job] += 1
        if in_timeout(i, now):
            timed_out(job, i, now, excluded)
            return
        if not policy.admits(node, now) and \
                (batch_list is None or not batch_list[job]):
            refused(job, i, now, "reject")
            return
        if shed is not None and shed.sheds(
                node.backlog(now),
                s / (node.model.speed_factor * speed_mult[i]), sla):
            refused(job, i, now, "shed")
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
        node.completed += width[job] - 1
        pending[i].append((job, start, end, end - start, w, freq))
        ends[job] = end
        state[job] = _COMPLETED
        if end > last_completion:
            last_completion = end

    def timed_out(job, i: int, now: float,
                  excluded: frozenset = _EMPTY) -> None:
        """The attempt routed to ``i`` timed out: retry or reject."""
        who = members(job)
        stats.timeouts += 1
        if retry.exhausted(attempts[job]):
            state[job] = _REJECTED
            if rec is not None:
                rec.events.append(
                    (now, "reject", i, None, who[0],
                     {"reason": "timeout", "members": list(who)}))
            return
        stats.retries += 1
        delay = (retry.timeout_detect_seconds
                 + retry.backoff_seconds(attempts[job]))
        push(now + delay, _PRIO_REDISPATCH, "redispatch",
             (job, excluded | {i}))
        if rec is not None:
            rec.events.append(
                (now, "timeout", i, None, who[0],
                 {"retry_at": now + delay, "members": list(who)}))
            rec.events.append(
                (now, "retry", i, None, who[0],
                 {"reason": "timeout", "members": list(who)}))

    def refused(job, i: int, now: float, kind: str) -> None:
        """The attempt routed to ``i`` was rejected or shed."""
        who = members(job)
        state[job] = _REJECTED
        if kind == "shed":
            stats.queries_shed += len(who)
        if rec is not None:
            rec.events.append((now, kind, i, None, who[0],
                               {"members": list(who)}))

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
        lost: list = []          # destroyed (row, members), in queue order
        lost_queries = 0
        retract_busy = 0.0
        retract_joules = 0.0
        if q and q[0][1] < now:
            # in-flight execution: ran up to the crash, then destroyed
            job0, s0, _e0, scaled0, w0, _f0 = q.popleft()
            who0 = members(job0)
            unexecuted = scaled0 - (now - s0)
            retract_busy += unexecuted
            retract_joules += (w0 - node.model.idle_watts) * unexecuted
            lost.append((job0, who0))
            lost_queries += len(who0)
            if mirror is not None:
                mirror.serve(i, s0, now, w0)
            if rec is not None:
                rec.events.append(
                    (now, "truncated_serve", i, None, who0[0],
                     {"start": s0, "end": now, "watts": w0}))
        while q:
            job2, _s2, _e2, scaled2, w2, _f2 = q.popleft()
            who2 = members(job2)
            retract_busy += scaled2
            retract_joules += (w2 - node.model.idle_watts) * scaled2
            lost.append((job2, who2))
            lost_queries += len(who2)
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
        for job2, who in lost:
            # booked complete when served; the crash took that back
            state[job2] = _PENDING
            was_crashed[job2] = True
            if retry.exhausted(attempts[job2]):
                state[job2] = _LOST
                if rec is not None:
                    rec.events.append(
                        (now, "lost", i, None, who[0],
                         {"members": list(who)}))
            else:
                stats.retries += 1
                push(now + retry.backoff_seconds(attempts[job2]),
                     _PRIO_REDISPATCH, "redispatch", (job2, _EMPTY))
                if rec is not None:
                    rec.events.append(
                        (now, "retry", i, None, who[0],
                         {"reason": "crash", "members": list(who)}))
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

    def apply(t: float, kind: str, payload) -> None:
        """One event off the heap: a redispatch, a fault, a fault
        window's end, a deferred crash or a repair."""
        if kind == "redispatch":
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

    # -- the run -------------------------------------------------------
    # epochs stop with the workload (legacy semantics): late releases,
    # fault and repair events must not keep the autoscaler
    # power-cycling a fleet that has nothing left to serve
    last_arrival = arrivals[-1]
    if run.engine == "event":
        last = kernel(cols, run.fleet, router, outer, pvc, steps_of, nodes,
                      on_ids, autoscaler, last_arrival, SimpleNamespace(
            mirror=mirror, books=(  # in the order ``_FAULTED`` unpacks
                heap, pending, ends, state, attempts, width,
                timeout_windows, speed_mult, busy_watts,
                bytes(n) if batch_list is None else batch_list,
                _INF if shed is None else shed.slack_fraction, settle,
                timed_out, refused, apply, dispatch)))
        last_completion = max(last_completion, last)
    else:  # the reference closure: the differential oracle
        epoch = autoscaler.epoch_seconds if autoscaler is not None else 0.0
        next_epoch = epoch if autoscaler is not None else _INF
        k_next = 0
        while k_next < n or heap:
            if heap and (k_next >= n or heap[0][0] <= times[k_next]):
                t, _prio, _seq, kind, payload = heapq.heappop(heap)
            else:
                t, kind, payload = times[k_next], "row", k_next
                k_next += 1
            while t >= next_epoch and next_epoch <= last_arrival:
                for i in list(on_ids):
                    settle(i, next_epoch)
                autoscaler.step(next_epoch, nodes, on_ids)
                if mirror is not None:
                    mirror.sync(nodes)
                next_epoch += epoch
            if kind == "row":
                # the autoscaler observes a shared execution's combined
                # demand: consolidation pressure follows executed work
                if autoscaler is not None:
                    autoscaler.observe(services[payload])
                dispatch(payload, t)
            else:
                apply(t, kind, payload)

    # -- close the books ----------------------------------------------
    # every execution still pending ends by ``last_completion``
    for i in range(n_nodes):
        settle(i, last_completion)
    state_of, crashed_of, end_of = (np.frombuffer(state, dtype=np.uint8),
                                    np.frombuffer(was_crashed, dtype=bool),
                                    np.frombuffer(ends))
    if cols.members is not None:  # each arrival takes its row's books
        row_of = np.repeat(np.arange(n), width)[np.argsort(np.fromiter(
            chain.from_iterable(cols.members), np.int64, len(arrivals)))]
        state_of, crashed_of, end_of = (state_of[row_of],
                                        crashed_of[row_of], end_of[row_of])
    if int((state_of == _PENDING).sum()):  # pragma: no cover - invariant
        raise FaultError("internal: arrivals left unresolved")
    completed = state_of == _COMPLETED
    lost = state_of == _LOST
    latencies = np.where(completed, end_of - stream.columns().times, np.nan)
    stats.queries_lost = int(lost.sum())
    stats.queries_recovered = int((crashed_of & completed).sum())
    stats.emergency_boots += (autoscaler.emergency_boots
                              if autoscaler is not None else 0)
    return _assemble_report(run, latencies, completed, last_completion,
                            lost=lost, faults=stats,
                            crash_intervals=crash_intervals)
