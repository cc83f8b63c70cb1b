"""The vectorized array-of-events serving core.

:func:`repro.service.fleet.simulate_service` owns two engines.  The
**reference loop** walks arrivals one ``DispatchContext`` at a time —
every query allocates a context, scans the fleet inside
``policy.route``, and pays a method call per bookkeeping update.  That
is ~2-30 µs per query depending on the policy, which caps frontier
sweeps near 10^6 queries.  This module is the **event core**: the same
simulation expressed over the columnar arrays of
:meth:`~repro.service.workload.ArrivalStream.columns`, with routing
served by O(log n) incremental structures instead of per-arrival fleet
scans.

**One statement of the serving step.**  What happens to a routed
arrival — :meth:`DispatchPolicy.admits
<repro.service.dispatch.DispatchPolicy.admits>`, the FCFS start, the
PVC ladder of :meth:`PVCPolicy.frequency
<repro.service.pvc.PVCPolicy.frequency>`, the energy books of
``FleetNode.serve`` / ``serve_active``, the autoscaler's epoch step —
is written once, as the source fragments below (``_ADMIT``, ``_SERVE``,
``_PLAIN``, ``_PVC``, ``_EPOCH``), inside three loop skeletons.  A router
contributes only what is its own, four fragments — ``SETUP`` /
``SELECT`` / ``SERVED`` and ``REJECTED`` (what a refused arrival gives
back):

* ``least_loaded`` — one binary heap of ``(busy_until, index)``; the
  root *is* the first-strict-minimum scan result, and ``heapreplace``
  after each serve keeps it exact.  One line per fragment.
* ``power_aware`` — the packable nodes' *ranks* (positions in the
  reference scan's candidate order: cost rate, then index) in one heap,
  fed by a ``waiting`` heap keyed on ``busy_until``; arrivals (and so
  the pack bound) are monotone, so a node migrates between the two at
  most once per serve.  The routed rank is popped and goes back only
  while its node stays packable, so only ``waiting`` holds stale
  entries, dropped by exact ``busy_until`` comparison.
* ``cost_aware`` — a min-``busy_until`` segment tree per class block
  (:func:`_blocks`); the cheapest-fitting node is a leftmost descent
  with the same monotone float predicate the reference scan evaluates,
  and a serve walks the sibling minima back up, both as fragment text.
* ``round_robin`` — no structure at all: the rotation is a closed form
  (arrival ``k`` lands on slot ``(next + k) % n``), so a healthy run
  gets its own skeleton, ``_STRIDED``, in which each node's arrival
  lane is a strided slice and the same fragments run on per-pipe
  locals; a fault run rotates ``route``'s own cursor row by row.

:func:`_kernel` expands a skeleton for one ``(router, governed,
limited, outer_limited, autoscaled, lanes, faulted, starts, exempt)``
tuple, compiles it on first use (once per process) and registers the
text with :mod:`linecache`, so a traceback, ``pdb`` or a profiler shows
real lines.  An option that is off leaves no test behind in the loop;
the last four are derived from the run, not chosen (:func:`kernel_for`).
Under ``pvc(...)`` the ladder
runs on per-(class, step) constants (:func:`_pvc_tables`) computed
with the identical expressions the reference engine evaluates per
arrival.

**The contract is byte-identity, not approximation.**  A kernel
mutates the *real* :class:`~repro.service.node.FleetNode` objects with
the same float operations, in the same order, as
``FleetNode.serve``/``serve_active`` — the fragments are those methods'
bodies, bound to the skeleton's names — and the
real :class:`~repro.service.autoscale.Autoscaler` steps the real nodes
at epoch boundaries, so energy books, boot decisions, and
``ServiceReport.to_dict()`` match the reference loop bit for bit (the
equivalence suite pins this across policies, fleets, and seeds).
Floating-point order is load-bearing everywhere: heaps compare exact
``busy_until`` values, interval accumulators add in arrival order, and
no sum is ever re-associated.

**Observers cost the kernels nothing.**  A kernel calls no hook: per
query it emits a completion instant and the serving node
(:class:`ServedColumns`; latencies are ``ends - times``, one
vectorized subtraction per chunk), and after it returns the installed
flight recorder takes the node lane and the telemetry mirror derives
every device's power series from the same columns — so a recorded or
telemetry-captured run is an event-core run.  The reference loop
emits the identical columns, which is what makes a recording or trace
equal between the engines dict for dict.

**A batching policy is a stream.**  QED's hold queues never read the
fleet, so its releases are computed before serving
(:meth:`QEDPolicy.releases <repro.service.qed.QEDPolicy.releases>`)
and a kernel serves them as it serves arrivals: each row is one
shared execution, routed, admitted, governed and autoscaled on its
combined demand.  The kernels
unwrap :class:`~repro.service.qed.QEDPolicy` to the governor and router
it wraps, admit against the smallest wrapper limit (the loop's
``admits`` chain) and stop autoscaler epochs at the stream's last
arrival.  :meth:`ServedColumns.hand_over` then fans every execution
out to its members.

**A fault run is a merged timeline.**  The ``_FAULTED`` skeleton
serves :func:`repro.faults.engine.simulate_faulty_service`'s rows
between the events of its heap and the autoscaler's epochs: a row's
first attempt routes through the router's fragments and is served on
``serve_active``'s lane at the node's fault-scaled speed, and crashes,
repairs, redispatches and blackout boots stay that engine's functions,
after each of which ``SETUP`` rebuilds the router's structure.

A router without a kernel (a third-party one) is the one thing the core
declines (:func:`event_core_unsupported`); ``engine="auto"`` then takes
the loop.
"""

from __future__ import annotations

import functools
import linecache
import re
import textwrap
from bisect import bisect_right
from heapq import heappop, heappush, heappushpop, heapreplace
from itertools import chain
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from repro.service.autoscale import Autoscaler
from repro.service.dispatch import (CostAware, DispatchPolicy, LeastLoaded,
                                    PowerAwarePacking, RoundRobin)
from repro.service.node import FleetNode, NodePowerModel
from repro.service.pvc import FREQUENCY_STEPS, PVCPolicy
from repro.service.qed import QEDPolicy
from repro.service.report import ServiceError
from repro.service.spec import FleetSpec
from repro.service.workload import ArrivalStream, StreamColumns

#: arrivals marshalled per chunk — bounds the Python-list working set
#: (a 10M-query stream never holds more than ~1.5 MB of scalar floats)
CHUNK = 65536

_INF = float("inf")


def event_core_unsupported(policy: DispatchPolicy) -> Optional[str]:
    """Why ``policy`` must run on the reference loop: ``None`` when its
    router has a kernel, else the one-line reason (used verbatim in the
    ``engine="event"`` error and as ``ServiceReport.engine_reason``)."""
    if type(_layers(policy)[-1]) not in _ROUTERS:
        return f"policy {policy.name!r} has no vectorized kernel"
    return None


def _layers(policy: DispatchPolicy) -> list[DispatchPolicy]:
    """``policy`` and the policies it wraps, outermost first: a
    :class:`~repro.service.qed.QEDPolicy` and a
    :class:`~repro.service.pvc.PVCPolicy` (exact types — a subclass may
    override their hooks) are unwrapped, and the last layer is the
    router."""
    layers = [policy]
    if type(policy) is QEDPolicy:
        policy = policy.inner
        layers.append(policy)
    if type(policy) is PVCPolicy:
        layers.append(policy.inner)
    return layers


class ServedColumns:
    """What a serving pass emits per row, in stream order — the one
    input the latency array, the flight recording and the telemetry
    mirror's power series are all derived from.

    A row is an arrival, or a batching policy's shared execution
    (``cols.members``).  A pass appends one completion instant (NaN =
    rejected) and one *lane* (the node of a full-speed serve, ``-1`` =
    rejected or downclocked) per row and hands them over a chunk at a
    time through :meth:`flush`; rejections and downclocked executions,
    the rare rows that carry more than that, go to ``rejected`` and
    ``dvfs``.  The full-length ``ends``/``lanes`` columns and the
    ``dvfs`` rows are only kept when something after the pass reads
    them: an observer, or the fan-out of shared executions; otherwise
    a kernel builds no lanes (``lanes`` of :func:`_kernel`).
    """

    __slots__ = ("cols", "rec", "mirror", "latencies", "ends", "lanes",
                 "starts", "rejected", "dvfs")

    def __init__(self, cols: StreamColumns, rec=None, mirror=None) -> None:
        """``cols`` is the stream the pass serves; ``rec`` / ``mirror``
        the run's installed flight recorder and telemetry mirror, if
        any (an autoscaled pass calls ``mirror.sync(nodes, k)`` after
        every epoch step, ahead of row ``k``)."""
        n = len(cols)
        kept = rec is not None or mirror is not None \
            or cols.members is not None
        self.cols = cols
        self.rec = rec
        self.mirror = mirror
        self.latencies = np.empty(n)
        self.ends = np.empty(n) if kept else None
        self.lanes = np.empty(n, dtype=np.int64) if kept else None
        #: per full-speed row, its exact start: only a recorded batching
        #: run reads it (its shared-execution rows carry the start)
        self.starts: Optional[list[float]] = (
            [0.0] * n if rec is not None and cols.members is not None
            else None)
        #: ``(row, node it was routed to)`` per rejection
        self.rejected: list[tuple[int, int]] = []
        #: ``(row, node, start, frequency, busy_watts)`` per
        #: downclocked execution — the flight recorder's own row
        self.dvfs: Optional[list[tuple]] = [] if kept else None

    def flush(self, where: slice, ends: list[float], lanes) -> None:
        """File one chunk: ``latency = end - arrival`` is the
        subtraction a per-query loop would do, done once per chunk."""
        chunk = np.array(ends, dtype=np.float64)
        self.latencies[where] = chunk - self.cols.times[where]
        if self.ends is not None:
            self.ends[where] = chunk
            self.lanes[where] = lanes

    def hand_over(self, arrivals: np.ndarray,
                  nodes: Sequence[FleetNode]) -> tuple[np.ndarray,
                                                       np.ndarray]:
        """Give the installed observers their columns; returns the
        per-arrival ``(latencies, admitted mask)``.  ``arrivals`` are
        the stream's arrival instants.  ``rejected`` becomes the
        recorder's ``reject`` rows here."""
        cols, rec = self.cols, self.rec
        if self.mirror is not None:
            self.mirror.served(cols.times, self.lanes, self.ends, self.dvfs)
        if cols.members is not None:
            return self._fan_out(arrivals, nodes)
        if rec is not None:
            times, tenant = cols.times, cols.tenant_index
            rec.serve_lane = self.lanes
            rec.dvfs_serves = self.dvfs
            rec.events.extend(
                (float(times[k]), "reject", i, int(tenant[k]), k, {})
                for k, i in self.rejected)
        return self.latencies, ~np.isnan(self.latencies)

    def _fan_out(self, arrivals: np.ndarray,
                 nodes: Sequence[FleetNode]) -> tuple[np.ndarray,
                                                      np.ndarray]:
        """Shared executions to their members: every member completes
        at its execution's end (a rejected execution rejects them all),
        the serving node counts the members beyond the one the pass
        counted, and the recorder gets one shared-execution row per
        served row and one ``members`` reject row per rejected one."""
        members = self.cols.members
        sizes = np.fromiter(map(len, members), np.int64, len(members))
        flat = np.fromiter(chain.from_iterable(members), np.int64,
                           int(sizes.sum()))
        latencies = np.full(len(arrivals), np.nan)
        latencies[flat] = (self.ends[np.repeat(np.arange(len(members)),
                                               sizes)] - arrivals[flat])
        node_of = self.lanes.copy()
        for k, i, *_ in self.dvfs:
            node_of[k] = i
        served = np.nonzero(~np.isnan(self.ends))[0]
        extra = np.zeros(len(nodes), dtype=np.int64)
        np.add.at(extra, node_of[served], sizes[served] - 1)
        for node, more in zip(nodes, extra.tolist()):
            node.completed += more
        rec = self.rec
        if rec is not None:
            release = self.cols.times.tolist()
            combined = self.cols.service_seconds.tolist()
            ends = self.ends.tolist()
            row_of = {k: (i, start, freq, watts)
                      for k, i, start, freq, watts in self.dvfs}
            for k in served.tolist():
                i, start, freq, watts = row_of.get(
                    k, (int(node_of[k]), self.starts[k], 1.0, None))
                rec.batch_serves.append(
                    (members[k], i, release[k], start, ends[k],
                     combined[k], freq, watts))
            rec.events.extend(
                (release[k], "reject", i, None, None,
                 {"members": list(members[k])})
                for k, i in self.rejected)
        return latencies, ~np.isnan(latencies)


def serve_event(stream: ArrivalStream,
                cols: StreamColumns,
                fleet: FleetSpec,
                policy: DispatchPolicy,
                autoscaler: Optional[Autoscaler],
                nodes: Sequence[FleetNode],
                on_ids: list[int],
                rec=None,
                mirror=None) -> tuple[np.ndarray, np.ndarray, float]:
    """Run the event core over ``cols`` — ``stream``'s arrivals, or a
    batching policy's releases of them; returns ``(latencies,
    admitted, last_completion)`` per arrival.

    ``nodes``/``on_ids`` are the live fleet (mutated in place, exactly
    as the reference loop mutates them); the caller finalizes the
    nodes and assembles the report, so both engines share one tail.
    ``rec`` / ``mirror`` are the run's installed flight recorder and
    telemetry mirror: they receive the kernel's columns once it
    returns, and cost the kernel nothing per query.
    """
    reason = event_core_unsupported(policy)
    if reason is not None:
        raise ServiceError(f"event core cannot run this config: {reason}")
    out = ServedColumns(cols, rec, mirror)
    kernel, router, pvc, outer = kernel_for(
        policy, autoscaler, lanes=out.lanes is not None,
        starts=out.starts is not None, batch=cols.batch_flags is not None)
    last = kernel(cols, fleet, router, outer, pvc,
                  None if pvc is None else _pvc_tables(nodes),
                  nodes, on_ids, autoscaler, float(stream.times[-1]), out)
    return (*out.hand_over(stream.times, nodes), last)


def kernel_for(policy: DispatchPolicy, autoscaler: Optional[Autoscaler],
               lanes: bool = False, faulted: bool = False,
               starts: bool = False, batch: bool = False) -> tuple:
    """``(kernel, router, PVC governor, outer limit)`` for ``policy``:
    the outer limit is the smallest wrapper limit (every one admits).
    ``batch`` says the stream has batch tenants, which a limit exempts."""
    *wrappers, router = _layers(policy)
    pvc = next((p for p in wrappers if type(p) is PVCPolicy), None)
    outer = min((p.admission_limit_seconds for p in wrappers
                 if p.admission_limit_seconds is not None), default=None)
    limited = router.admission_limit_seconds is not None
    exempt = batch and (limited or outer is not None)
    return _kernel(type(router), pvc is not None, limited, outer is not None,
                   autoscaler is not None, lanes, faulted, starts,
                   exempt), router, pvc, outer


def ladder_rows(model: NodePowerModel, steps: Sequence[float],
                mult: float = 1.0, throttle: float = 1.0) -> list[tuple]:
    """One node's downclock ladder, a row per sub-unity step ``f``.

    Each row is ``(f, speed_factor * (mult * f), busy_watts -
    idle_watts, busy_watts)`` with ``busy_watts =
    model.dvfs_watts(throttle * f)`` — the exact expressions the
    reference engines evaluate per arrival (the cubic draw and
    ``FleetNode.serve_active``'s scaled divisor).  A fault run passes
    its node's speed multiplier and throttle; a healthy one keeps both
    at 1.0, and since ``1.0 * f == f`` its rows are ``f``'s exactly.
    """
    return [(f, model.speed_factor * (mult * f), w - model.idle_watts, w)
            for f, w in ((f, model.dvfs_watts(throttle * f)) for f in steps)]


def _pvc_tables(nodes: Sequence[FleetNode]) -> list[list]:
    """Per-node :func:`ladder_rows`, computed once per model so
    byte-identity survives the hoisting."""
    steps = [f for f in FREQUENCY_STEPS if f < 1.0]
    by_model: dict = {}
    for node in nodes:
        if node.model not in by_model:
            by_model[node.model] = ladder_rows(node.model, steps)
    return [by_model[node.model] for node in nodes]


# -- the serving step, as source --------------------------------------
#
# From here to `_kernel` the module is *text*: Python fragments with
# ``$name`` placeholders that `_expand` substitutes.  Lower-case
# placeholders are the names a skeleton binds a fragment to (where the
# routed pipe's books live, how a query is numbered); upper-case ones
# are blocks.  Every fragment sees the arrival as ``t, s, q`` (instant,
# service seconds, SLA seconds), the routed node's index as ``i`` and
# its ``busy_until`` as ``bu``.

#: ``DispatchPolicy.admits`` said no (``backlog`` is
#: ``FleetNode.backlog``) and the row is not a batch tenant's, which a
#: limit exempts (``exempt``): the arrival is counted against the node
#: it was routed to (``REFUSE``) and never touches the books
_BACKLOG = "backlog = bu - t if bu > t else 0.0\n"
_ADMIT = """\
if $over_limit:
    $REFUSE
    $REJECTED
    continue
"""

#: one admitted execution on an FCFS pipe — the common body of
#: ``FleetNode.serve`` and ``serve_active``; ``$STEP`` settles ``scaled``
#: and which energy lane pays for it, ``$EMIT`` books the completion
_SERVE = """\
scaled = s / $sf
start = bu if bu > t else t
$STEP
end = start + scaled
$busy_until = end
$busy += scaled
$COUNT
$EMIT
"""

#: ``FleetNode.serve``: full speed, priced by the linear identity;
#: a recorded batching run keeps the start (``starts``)
_PLAIN = """\
$LINEAR
$lane_on
$START
"""

#: ``PVCPolicy.frequency`` + ``FleetNode.serve_active``: the deepest
#: step (rows ascend) whose slowed execution still fits the SLA
#: headroom runs downclocked and prices its own Joules; while the
#: ladder is tested ``scaled`` is still the full-speed execution time
_PVC = """\
budget = q * headroom
for row in steps_of[i]:
    if backlog + scaled / row[0] <= budget:
        scaled = s / row[1]
        $active += row[2] * scaled
        $lane_off
        $DVFS
        break
else:
    $PLAIN
"""

#: the reference loop's epoch handling: the real autoscaler steps the
#: real nodes, then the router re-reads the on-set (``SETUP`` again).
#: Epochs stop with the workload: a batching policy's releases after
#: the last arrival (``stop``) must not keep the autoscaler cycling a
#: fleet with nothing left to absorb
_EPOCH_OPEN = """\
epoch = autoscaler.epoch_seconds
next_epoch = epoch if epoch <= stop else _INF
demand = autoscaler._epoch_demand_seconds
mirror = out.mirror
"""
_EPOCH_STEP = """\
while t >= next_epoch:
    autoscaler._epoch_demand_seconds = demand
    $SETTLE
    autoscaler.step(next_epoch, nodes, on_ids)
    demand = 0.0
    next_epoch += epoch
    if next_epoch > stop:
        next_epoch = _INF
    if mirror is not None:
        mirror.sync(nodes, $k)
"""
_EPOCH = """\
if t >= next_epoch:
    $EPOCH_STEP
    $RESETUP
demand += s
"""
_EPOCH_CLOSE = "autoscaler._epoch_demand_seconds = demand\n"

_PROLOGUE = """\
times = cols.times
services = cols.service_seconds
slas = cols.sla_seconds
n = len(cols)
$LIMITS
nan = float("nan")
rejected = out.rejected
emit_dvfs = None if out.dvfs is None else out.dvfs.append
last_completion = 0.0
"""

#: the chunked arrival loop: route, admit, serve, tell the router.
#: The books are the real node's attributes, so the autoscaler can
#: step between any two arrivals.
_CHUNKED = """\
def kernel(cols, fleet, router, outer, pvc, steps_of, nodes, on_ids,
           autoscaler, stop, out):
    $PROLOGUE
    sf_of = [node.model.speed_factor for node in nodes]
    $SETUP
    $EPOCH_OPEN
    for a in range(0, n, CHUNK):
        tl = times[a:a + CHUNK].tolist()
        sl = services[a:a + CHUNK].tolist()
        ql = slas[a:a + CHUNK].tolist()
        ends = []
        append = ends.append
        $LANES
        for t, s, q in zip(tl, sl, ql):
            $EPOCH
            $SELECT
            node = nodes[i]
            bu = node.busy_until
            $ADMIT
            $SERVE
            $LATEST
            $SERVED
        $CHUNK_LATEST
        out.flush(slice(a, a + len(ends)), ends, $lanes)
    $EPOCH_CLOSE
    return last_completion
"""


def _node_books(governed: bool, rejecting: bool,
                lanes: bool) -> dict[str, str]:
    """``_CHUNKED``'s bindings.  The books are the same under every
    option, because the autoscaler may close a node's books between any
    two arrivals.  The latest completion is one ``max`` per chunk
    unless a rejection's NaN can sit in the chunk."""
    return dict(
        sf="sf_of[i]", busy_until="node.busy_until",
        busy="node._interval_busy", active="node._interval_active_joules",
        LINEAR="node._interval_linear_busy += scaled\n",
        COUNT="node.completed += 1\n", k="a + len(ends)",
        LATEST="if end > last_completion:\n    last_completion = end\n"
        * rejecting,
        CHUNK_LATEST="" if rejecting else
        "last_completion = max(last_completion, max(ends))\n",
        LANES="lanes = []\nlane_append = lanes.append\n" * lanes,
        lanes="lanes" if lanes else "None",
        lane_on="lane_append(i)" * lanes, lane_off="lane_append(-1)" * lanes)


#: round_robin's closed-form rotation: the node at slot ``j`` serves
#: the arrival lane ``(j - next) % n_on :: n_on``, so every pipe runs
#: as an independent recurrence over a strided slice with its books in
#: locals (round_robin is never autoscaled, so the rotation never
#: changes mid-run and there is no epoch step to bind)
_STRIDED = """\
def kernel(cols, fleet, router, outer, pvc, steps_of, nodes, on_ids,
           autoscaler, stop, out):
    $PROLOGUE
    n_on = len(on_ids)
    start0 = router._next
    # route() runs (and counts) for every arrival, rejected included
    router._next = start0 + n
    for slot in range(n_on):
        first = (slot - start0) % n_on
        if first >= n:
            continue
        i = on_ids[slot]
        node = nodes[i]
        sf = node.model.speed_factor
        bu = node.busy_until
        ib = il = ia = 0.0
        cnt = 0
        ends = []
        append = ends.append
        lane = slice(first, None, n_on)
        for $arrival:
            $ADMIT
            $SERVE
        $TALLY
        node.busy_until = bu
        node._interval_busy = ib
        node._interval_linear_busy = il
        node._interval_active_joules = ia
        node.completed = cnt
        if cnt and bu > last_completion:
            last_completion = bu
        out.flush(lane, ends, i)
    # the strided lanes filed every query under its slot's node and the
    # rare rows slot by slot: restore the lane's meaning and arrival
    # order
    rejected.sort()
    if out.dvfs is not None:
        out.dvfs.sort()
        out.lanes[[row[0] for row in rejected + out.dvfs]] = -1
    return last_completion
"""


def _local_books(governed: bool, rejecting: bool,
                 lanes: bool) -> dict[str, str]:
    """``_STRIDED``'s bindings.  A tally the options make redundant is
    read off once the lane is done, not kept per query: with no
    governor ``FleetNode.serve`` adds the same sequence to both busy
    lanes, and with no limit every arrival completes.  Only the
    governor reads the SLA column; a strided lane files its node once
    (``flush``), so ``lanes`` changes nothing here."""
    return dict(
        arrival="t, s, q in zip(times[lane].tolist(), "
        "services[lane].tolist(), slas[lane].tolist())" if governed else
        "t, s in zip(times[lane].tolist(), services[lane].tolist())",
        sf="sf", busy_until="bu", busy="ib", active="ia",
        LINEAR="il += scaled\n" * governed,
        COUNT="cnt += 1\n" * rejecting,
        TALLY="il = ib\n" * (not governed)
        + "cnt = len(ends)\n" * (not rejecting),
        k="first + len(ends) * n_on", lane_on="", lane_off="")


#: a chaos run's rows, event heap and epochs in the chaos engine's
#: order (an event at or before a row's instant first, an epoch before
#: either); the rows between two events run as one inner loop over the
#: router's structure, rebuilt (``SETUP``) after every event.  A
#: timeout, a reject or a shed leaves the node untouched, so the router
#: gets back (``REJECTED``) what selection took.
_FAULTED = """\
def kernel(cols, fleet, router, outer, pvc, steps_of, nodes, on_ids,
           autoscaler, stop, out):
    times, services, slas = cols.lists()
    n = len(times)
    $LIMITS
    (timeline, pending, ends, state, attempts, width, windows, mult, watts,
     batch, shed_slack, settle, timed_out, refused, apply,
     dispatch) = out.books
    sf_of = [node.model.speed_factor for node in nodes]
    idle_of = [node.model.idle_watts for node in nodes]
    last_completion = 0.0
    $FIXED
    $EPOCH_OPEN
    k = 0
    while k < n or timeline:
        if timeline and (k >= n or timeline[0][0] <= times[k]):
            t, _, _, kind, payload = heappop(timeline)
            $EPOCH_STEP
            apply(t, kind, payload)
            continue
        if not on_ids:  # a dark fleet: boot a spare or park the row
            t = times[k]
            $EPOCH_STEP
            $DEMAND
            dispatch(k, t)
            k += 1
            continue
        $SETUP
        until = timeline[0][0] if timeline else _INF
        for k in range(k, n):
            t = times[k]
            if t >= until:
                break
            s = services[k]
            q = slas[k]
            $EPOCH
            $SELECT
            node = nodes[i]
            bu = node.busy_until
            attempts[k] = 1
            tw = windows[i]
            if tw is not None:
                wi = bisect_right(tw[0], t) - 1
                if wi >= 0 and t < tw[1][wi]:
                    timed_out(k, i, t)
                    until = timeline[0][0] if timeline else _INF
                    $REJECTED
                    continue
            $ADMIT
            if backlog + s / (sf_of[i] * mult[i]) > shed_slack * q:
                refused(k, i, t, "shed")
                $REJECTED
                continue
            $SERVE
            $LATEST
            $SERVED
        else:
            k = n
    $EPOCH_CLOSE
    return last_completion
"""


def _fault_books(governed: bool, rejecting: bool,
                 autoscaled: bool) -> dict[str, str]:
    """``_FAULTED``'s bindings: ``FleetNode.serve_active``'s lane at
    the node's fault-scaled speed (``mult``) and busy draw."""
    return dict(
        sf="sf_of[i]" if governed else "(sf_of[i] * mult[i])",
        busy_until="node.busy_until", busy="node._interval_busy",
        active="node._interval_active_joules",
        LINEAR="scaled = s / (sf_of[i] * mult[i])\n" * governed
        + "w = watts[i]\nfreq = 1.0\n$active += (w - idle_of[i]) * scaled\n",
        DVFS="w = row[3]\nfreq = row[0]\n", lane_on="", lane_off="",
        COUNT="node.completed += width[k]\n",
        EMIT="ends[k] = end\nstate[k] = 1  # completed\n"
        "pending[i].append((k, start, end, end - start, w, freq))\n",
        LATEST="if end > last_completion:\n    last_completion = end\n",
        ADMIT=_BACKLOG + _ADMIT * rejecting, k="0", row="k",
        REFUSE='refused(k, i, t, "reject")\n',
        SETTLE="for j in on_ids:\n    settle(j, next_epoch)\n",
        RESETUP="break\n", DEMAND="demand += services[k]\n" * autoscaled)


class _Router(NamedTuple):
    """What a router adds to a skeleton.  ``fixed`` + ``setup`` run
    before the first arrival and again after every autoscaler epoch
    step (the on-set changed; ``fixed`` reads no node state, so
    ``_FAULTED`` runs it once); ``select`` leaves the routed node's
    index in ``i``; ``served`` sees the admitted execution's ``end``,
    and ``rejected`` runs instead when the arrival is refused (the
    node's books are untouched)."""

    skeleton: str
    #: ``(governed, rejecting, lanes) -> bindings`` for its names
    books: Callable[[bool, bool, bool], dict]
    fixed: str = ""
    setup: str = ""
    select: str = ""
    served: str = ""
    rejected: str = ""


#: a healthy rotation is ``_STRIDED``'s closed form; ``_FAULTED`` runs
#: ``select``, ``RoundRobin.route`` itself, so that a redispatch's
#: ``route`` call continues the same rotation
_ROUND_ROBIN = _Router(
    _STRIDED, _local_books,
    select="i = on_ids[router._next % len(on_ids)]\nrouter._next += 1\n")

#: join-the-shortest-queue off a ``(busy_until, index)`` heap: the root
#: is exactly the reference scan's first-strict-minimum, and only the
#: served root ever changes, so the heap is never stale
_LEAST_LOADED = _Router(
    _CHUNKED, _node_books,
    setup="heap = sorted((nodes[i].busy_until, i) for i in on_ids)\n",
    select="i = heap[0][1]\n",
    served="heapreplace(heap, (end, i))\n")

#: packing over two heaps.  ``waiting`` orders nodes past the pack
#: bound by ``busy_until``; ``ranks`` holds the packable ones as their
#: rank in the reference scan's candidate order (cost rate ascending,
#: then index).  The bound ``t + pack`` is monotone within an epoch
#: segment and ``busy_until`` only grows, so classification moves one
#: way between serves, and ``waiting``'s stale entries are recognized
#: by exact ``busy_until`` mismatch.  Selection pops ranks in order
#: until one fits the SLA (the cheapest fitting rate's lowest index),
#: else keeps the first (the cheapest rate's lowest index), else spills
#: to ``waiting``'s root (least-loaded); the chosen rank is out of the
#: heap until ``served`` / ``rejected`` put it back, only while its
#: node is still packable.
_POWER_AWARE = _Router(
    _CHUNKED, _node_books,
    fixed="""\
pack = router.pack_backlog_seconds
rate_of = [(node.model.peak_watts - node.model.idle_watts)
           / node.model.speed_factor for node in nodes]
node_at = [c for _, c in sorted(zip(rate_of, range(len(nodes))))]
rank_of = [0] * len(nodes)
for r, c in enumerate(node_at):
    rank_of[c] = r
""",
    setup="""\
ranks = []
packable = [False] * len(nodes)
waiting = sorted((nodes[i].busy_until, i) for i in on_ids)
""",
    select="""\
bound = t + pack
r = -1
while waiting and waiting[0][0] <= bound:
    due, c = heappop(waiting)
    if due == nodes[c].busy_until and not packable[c]:
        packable[c] = True
        if r >= 0:
            heappush(ranks, r)
        r = rank_of[c]
if r >= 0:  # the last migrant enters as the first candidate leaves
    r = heappushpop(ranks, r)
elif ranks:
    r = heappop(ranks)
if r >= 0:
    i = node_at[r]
    bu = nodes[i].busy_until
    if not (bu - t if bu > t else 0.0) + s / sf_of[i] <= q:
        missed = []
        while ranks:
            m = heappop(ranks)
            c = node_at[m]
            bu = nodes[c].busy_until
            if (bu - t if bu > t else 0.0) + s / sf_of[c] <= q:
                missed.append(r)
                i = c
                break
            missed.append(m)
        for m in missed:
            heappush(ranks, m)
else:  # nothing packable: spill to the least-loaded node
    due, i = waiting[0]
    while due != nodes[i].busy_until:
        heappop(waiting)
        due, i = waiting[0]
""",
    served="""\
if packable[i] and end <= bound:
    heappush(ranks, rank_of[i])
else:
    packable[i] = False
    heappush(waiting, (end, i))
""",
    rejected="""\
if packable[i]:
    heappush(ranks, rank_of[i])
""")

#: marginal-Joules routing over per-class segment trees.  Within a
#: class every node shares the arrival's marginal cost and execution
#: time, so the reference scan reduces to per-block queries: the block
#: minimum ``busy_until`` decides whether any member fits the SLA
#: budget (the estimate is monotone in ``busy_until``) and a leftmost
#: descent recovers the exact first-index tie-break.  Blocks are
#: index-contiguous in declaration order, so taking the first block at
#: a strict minimum reproduces the scan's cross-class tie-breaks.
_COST_AWARE = _Router(
    _CHUNKED, _node_books,
    fixed="slack = router.sla_slack_fraction\n",
    setup="blocks = _blocks(fleet, nodes)\n",
    select="""\
fit = q * slack
best_cost = fast_est = _INF
block = fast_block = None
for b in blocks:
    m = b[0][1]
    if m == _INF:
        continue  # no powered-on member
    exe = s / b[3]
    est = (m - t if m > t else 0.0) + exe
    if est < fast_est:
        fast_est = est
        fast_block = b
    if est <= fit:
        cost = b[4] * exe
        if cost < best_cost:
            best_cost = cost
            block = b
            best_exe = exe
p = 1
if block is not None:
    # the lowest index whose estimate fits
    seg, size, lo, _, _ = block
    while p < size:
        p <<= 1
        m = seg[p]
        if not (m - t if m > t else 0.0) + best_exe <= fit:
            p += 1
else:
    # nothing fits: the lowest index at the fastest block's minimum
    seg, size, lo, _, _ = fast_block
    m = seg[1]
    m = m if m > t else t
    while p < size:
        p <<= 1
        if not seg[p] <= m:
            p += 1
i = lo + p - size
""",
    # ``p`` is still ``i``'s leaf; stop where a parent's minimum holds
    served="""\
seg[p] = m = end
while p > 1:
    sib = seg[p ^ 1]
    if sib < m:
        m = sib
    p >>= 1
    if seg[p] == m:
        break
    seg[p] = m
""")

#: routers with a vectorized kernel (exact types: a subclass may
#: override route(), so it must take the reference loop)
_ROUTERS = {RoundRobin: _ROUND_ROBIN,
            LeastLoaded: _LEAST_LOADED,
            PowerAwarePacking: _POWER_AWARE,
            CostAware: _COST_AWARE}

_BLOCK_LINE = re.compile(r"^([ \t]*)\$(\w+)\n", re.MULTILINE)
_INLINE = re.compile(r"\$(\w+)")


def _expand(template: str, fragments: dict[str, str]) -> str:
    """Substitute every ``$name`` in ``template``, fragments included.

    A placeholder alone on its line takes a block — any number of
    lines, re-indented to the placeholder's column, none if the
    fragment is empty; anywhere else it takes the text as is.

    >>> print(_expand("for x in xs:\\n    $BODY\\n    $TRACE\\n",
    ...               {"BODY": "y = $f(x)\\nout.append(y)\\n", "f": "abs",
    ...                "TRACE": ""}), end="")
    for x in xs:
        y = abs(x)
        out.append(y)
    """
    def block(match: re.Match) -> str:
        text = fragments[match[2]]
        if text and not text.endswith("\n"):
            text += "\n"
        return textwrap.indent(text, match[1])

    while "$" in template:
        # blocks first: a block may bring block placeholders of its own
        template, blocks = _BLOCK_LINE.subn(block, template)
        if not blocks:
            template = _INLINE.sub(lambda match: fragments[match[1]],
                                   template)
    return template


@functools.cache
def _kernel(router_type: type, governed: bool, limited: bool,
            outer_limited: bool, autoscaled: bool, lanes: bool,
            faulted: bool = False, starts: bool = False,
            exempt: bool = False) -> Callable:
    """The serving loop for one router under one set of options,
    generated on first use and compiled once per process.

    ``governed`` is a PVC wrapper around the router, ``limited`` /
    ``outer_limited`` an admission limit on the router / on a wrapper
    (the kernel is handed the smallest as ``outer``), ``autoscaled`` a
    live autoscaler, whose epochs stop after the instant ``stop``.
    The rest is derived, not chosen (:func:`kernel_for`): ``lanes``,
    the pass keeps its columns (:class:`ServedColumns`), so the kernel
    emits lanes and dvfs rows; ``faulted``, the run has a fault
    schedule, so the kernel is the ``_FAULTED`` skeleton, whose
    observers are served by the chaos engine's ``settle`` and which
    takes no lanes; ``starts``, the pass keeps each full-speed row's
    start; ``exempt``, the stream's batch tenants bypass the limits, as
    they always do under ``_FAULTED``.
    What is off is absent from the source, not tested in the loop.
    Read a kernel with ``linecache.getlines(kernel.__code__.co_filename)``.
    """
    router = _ROUTERS[router_type]
    over = ["backlog > outer"] * outer_limited + ["backlog > limit"] * limited
    over_limit = " or ".join(over)
    if exempt or faulted:
        over_limit = f"({over_limit}) and not batch[$row]"
    skeleton, books = (
        (_FAULTED, _fault_books(governed, bool(over), autoscaled))
        if faulted else
        (router.skeleton, router.books(governed, bool(over), lanes)))
    source = _expand(skeleton, {
        "SETTLE": "", "EMIT": "append(end)\n", "FIXED": router.fixed,
        "RESETUP": router.fixed + router.setup,
        "PROLOGUE": _PROLOGUE,
        "LIMITS": "limit = router.admission_limit_seconds\n" * limited
        + "headroom = pvc.sla_headroom\n" * governed
        + "batch = cols.batch_flags.tolist()\n" * exempt
        + "starts = out.starts\n" * starts,
        "SETUP": router.fixed * (not faulted) + router.setup,
        "SELECT": router.select,
        "SERVED": router.served, "REJECTED": router.rejected,
        "ADMIT": _BACKLOG * bool(over or governed) + _ADMIT * bool(over),
        "over_limit": over_limit, "row": "$k",
        "REFUSE": "rejected.append(($k, i))\nappend(nan)\n$lane_off\n",
        "SERVE": _SERVE, "STEP": _PVC if governed else _PLAIN,
        "PLAIN": _PLAIN, "START": "starts[$k] = start\n" * starts,
        "DVFS": "emit_dvfs(($k, i, start, row[0], row[3]))\n" * lanes,
        "EPOCH_OPEN": _EPOCH_OPEN * autoscaled, "EPOCH": _EPOCH * autoscaled,
        "EPOCH_STEP": _EPOCH_STEP * autoscaled,
        "EPOCH_CLOSE": _EPOCH_CLOSE * autoscaled, **books})
    filename = "<repro.service.engine kernel: %s>" % " ".join(
        [router_type.name] + ["pvc"] * governed + ["limit"] * limited
        + ["outer_limit"] * outer_limited + ["autoscaled"] * autoscaled
        + ["lanes"] * lanes + ["starts"] * starts + ["exempt"] * exempt
        + ["faulted"] * faulted)
    # mtime None: linecache.checkcache keeps entries it cannot stat
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    scope: dict = {}
    exec(compile(source, filename, "exec"), globals(), scope)
    return scope["kernel"]


def _blocks(fleet: FleetSpec, nodes: Sequence[FleetNode]) -> list[tuple]:
    """The ``cost_aware`` fragments' structure: the fleet's non-empty
    classes in declaration (= node index) order, each a ``(seg, size,
    lo, speed_factor, peak_watts - idle_watts)`` tuple whose ``seg`` is
    a min-``busy_until`` segment tree over the class's node slots
    (leaves at ``size + index - lo``; powered-off and padding slots hold
    +inf), built from the nodes' current state."""
    blocks, lo = [], 0
    for c in fleet.classes:
        if not c.count:
            continue
        size = 1
        while size < c.count:
            size <<= 1
        seg = [_INF] * (2 * size)
        for p, node in enumerate(nodes[lo:lo + c.count], size):
            if node.on:
                seg[p] = node.busy_until
        for p in range(size - 1, 0, -1):
            left = seg[2 * p]
            right = seg[2 * p + 1]
            seg[p] = left if left < right else right
        blocks.append((seg, size, lo, c.model.speed_factor,
                       c.model.peak_watts - c.model.idle_watts))
        lo += c.count
    return blocks
