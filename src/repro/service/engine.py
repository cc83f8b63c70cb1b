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
``_PLAIN``, ``_PVC``, ``_EPOCH``), inside two loop skeletons.  A router
contributes only what is its own, a ``SETUP`` / ``SELECT`` / ``SERVED``
triple:

* ``least_loaded`` — one binary heap of ``(busy_until, index)``; the
  root *is* the first-strict-minimum scan result, and ``heapreplace``
  after each serve keeps it exact.  One line per fragment.
* ``power_aware`` — packable candidates live in per-cost-rate
  min-index heaps fed by a ``waiting`` heap keyed on ``busy_until``;
  because arrivals (and so the pack bound) are monotone, a node
  migrates between the two at most once per serve, with stale entries
  dropped lazily by exact ``busy_until`` comparison.
* ``cost_aware`` — one segment tree (:class:`_Block`) per class block
  over node ``busy_until``; the cheapest-fitting node is a leftmost
  descent with the same monotone float predicate the reference scan
  evaluates.
* ``round_robin`` — no structure at all: the rotation is a closed form
  (arrival ``k`` lands on slot ``(next + k) % n``), so it gets its own
  skeleton, ``_STRIDED``, in which each node's arrival lane is a
  strided slice and the same fragments run on per-pipe locals.

:func:`_kernel` expands a skeleton for one ``(router, governed,
limited, outer_limited, autoscaled)`` tuple, compiles it on first use
(once per process) and registers the text with :mod:`linecache`, so a
traceback, ``pdb`` or a profiler shows real lines.  An option that is
off leaves no test behind in the loop; under ``pvc(...)`` the ladder
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

Configurations the core cannot reproduce exactly — batching policies
(QED's hold/release protocol), fault schedules, admission-exempt batch
tenants under an admission limit, third-party routers, and
``record(detail=True)`` (per-arrival candidate tables need the live
``DispatchContext``) — are declined by :func:`event_core_unsupported`,
and ``engine="auto"`` falls back to the reference loop.
"""

from __future__ import annotations

import functools
import linecache
import re
import textwrap
from heapq import heappop, heappush, heapreplace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from repro.service.autoscale import Autoscaler
from repro.service.dispatch import (CostAware, DispatchPolicy, LeastLoaded,
                                    PowerAwarePacking, RoundRobin)
from repro.service.node import FleetNode
from repro.service.pvc import PVCPolicy
from repro.service.report import ServiceError
from repro.service.spec import FleetSpec
from repro.service.workload import ArrivalStream

#: arrivals marshalled per chunk — bounds the Python-list working set
#: (a 10M-query stream never holds more than ~1.5 MB of scalar floats)
CHUNK = 65536

_INF = float("inf")


def event_core_unsupported(policy: DispatchPolicy,
                           recorder=None,
                           faults: bool = False,
                           stream: Optional[ArrivalStream] = None
                           ) -> Optional[str]:
    """Why this configuration must run on the reference loop.

    Returns ``None`` when the event core can serve it, else a one-line
    reason (used verbatim in the ``engine="event"`` error and useful
    for debugging an unexpected ``auto`` fallback).
    """
    if faults:
        return "fault schedules replay on the reference loop"
    if recorder is not None and recorder.detail:
        return "detail recording needs per-arrival candidate tables"
    router = policy.inner if type(policy) is PVCPolicy else policy
    if stream is not None and any(t.batch for t in stream.tenants) and (
            policy.admission_limit_seconds is not None
            or router.admission_limit_seconds is not None):
        return ("batch tenants are admission-exempt, which the event "
                "core's vectorized admission does not model")
    if policy.batching or router.batching:
        return (f"policy {policy.name!r} batches arrivals "
                "(offer/due hold protocol)")
    if type(router) not in _ROUTERS:
        return f"policy {policy.name!r} has no vectorized kernel"
    return None


class ServedColumns:
    """What a serving pass emits per query, in arrival order — the one
    input the latency array, the flight recording and the telemetry
    mirror's power series are all derived from.

    A pass appends one completion instant (NaN = rejected) and one
    *lane* (the node of a full-speed serve, ``-1`` = rejected or
    downclocked) per query and hands them over a chunk at a time
    through :meth:`flush`; rejections and downclocked executions, the
    rare rows that carry more than that, go to ``rejected`` and
    ``dvfs``.  The full-length ``ends``/``lanes`` columns and the
    ``dvfs`` rows are only kept when an observer will read them.
    """

    __slots__ = ("cols", "rec", "mirror", "latencies", "ends", "lanes",
                 "rejected", "dvfs")

    def __init__(self, cols, rec=None, mirror=None) -> None:
        """``cols`` is the stream's ``StreamColumns``; ``rec`` /
        ``mirror`` the run's installed flight recorder and telemetry
        mirror, if any (an autoscaled pass calls ``mirror.sync(nodes,
        k)`` after every epoch step, ahead of arrival ``k``)."""
        n = len(cols)
        observed = rec is not None or mirror is not None
        self.cols = cols
        self.rec = rec
        self.mirror = mirror
        self.latencies = np.empty(n)
        self.ends = np.empty(n) if observed else None
        self.lanes = np.empty(n, dtype=np.int64) if observed else None
        #: ``(query, node it was routed to)`` per rejection
        self.rejected: list[tuple[int, int]] = []
        #: ``(query, node, start, frequency, busy_watts)`` per
        #: downclocked execution — the flight recorder's own row
        self.dvfs: Optional[list[tuple]] = [] if observed else None

    def flush(self, where: slice, ends: list[float], lanes) -> None:
        """File one chunk: ``latency = end - arrival`` is the
        subtraction a per-query loop would do, done once per chunk."""
        chunk = np.array(ends, dtype=np.float64)
        self.latencies[where] = chunk - self.cols.times[where]
        if self.ends is not None:
            self.ends[where] = chunk
            self.lanes[where] = lanes

    def hand_over(self) -> np.ndarray:
        """Give the installed observers their columns; returns the
        admitted mask.  ``rejected`` becomes the recorder's ``reject``
        rows here (the reference loop files its own as it goes and
        leaves the list empty)."""
        times, tenant = self.cols.times, self.cols.tenant_index
        if self.rec is not None:
            self.rec.serve_lane = self.lanes
            self.rec.dvfs_serves = self.dvfs
            self.rec.events.extend(
                (float(times[k]), "reject", i, int(tenant[k]), k, {})
                for k, i in self.rejected)
        if self.mirror is not None:
            self.mirror.served(times, self.lanes, self.ends, self.dvfs)
        return ~np.isnan(self.latencies)


def serve_event(stream: ArrivalStream,
                fleet: FleetSpec,
                policy: DispatchPolicy,
                autoscaler: Optional[Autoscaler],
                nodes: Sequence[FleetNode],
                on_ids: list[int],
                rec=None,
                mirror=None) -> tuple[np.ndarray, np.ndarray, float]:
    """Run the event core; returns ``(latencies, admitted,
    last_completion)``.

    ``nodes``/``on_ids`` are the live fleet (mutated in place, exactly
    as the reference loop mutates them); the caller finalizes the
    nodes and assembles the report, so both engines share one tail.
    ``rec`` / ``mirror`` are the run's installed flight recorder and
    telemetry mirror: they receive the kernel's columns once it
    returns, and cost the kernel nothing per query.
    """
    reason = event_core_unsupported(policy, recorder=rec)
    if reason is not None:  # pragma: no cover - guarded by the caller
        raise ServiceError(f"event core cannot run this config: {reason}")
    cols = stream.columns()
    pvc = policy if type(policy) is PVCPolicy else None
    router = policy.inner if pvc is not None else policy
    kernel = _kernel(
        type(router), pvc is not None,
        router.admission_limit_seconds is not None,
        pvc is not None and pvc.admission_limit_seconds is not None,
        autoscaler is not None)
    out = ServedColumns(cols, rec, mirror)
    last = kernel(cols, fleet, router, pvc,
                  None if pvc is None else _pvc_tables(pvc, nodes),
                  nodes, on_ids, autoscaler, out)
    return out.latencies, out.hand_over(), last


def _pvc_tables(pvc: PVCPolicy, nodes: Sequence[FleetNode]) -> list[list]:
    """Per-node downclock constants, one row per sub-unity step.

    Each row is ``(f, speed_factor * f, busy_watts - idle_watts,
    busy_watts)`` with ``busy_watts = model.dvfs_watts(f)`` — the exact
    expressions the reference engine evaluates per arrival (the cubic
    draw and ``FleetNode.serve_active``'s scaled divisor), precomputed
    once per (model, step) so byte-identity survives the hoisting.
    """
    steps = [f for f in pvc.frequency_steps if f < 1.0]
    by_model: dict = {}
    for node in nodes:
        model = node.model
        if model not in by_model:
            by_model[model] = [
                (f, model.speed_factor * f, watts - model.idle_watts, watts)
                for f, watts in ((f, model.dvfs_watts(f)) for f in steps)]
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
#: ``FleetNode.backlog``): the arrival is counted against the node it
#: was routed to and never touches the books
_BACKLOG = "backlog = bu - t if bu > t else 0.0\n"
_ADMIT = """\
if $over_limit:
    rejected.append(($k, i))
    append(nan)
    $lane_off
    continue
"""

#: one admitted execution on an FCFS pipe — the common body of
#: ``FleetNode.serve`` and ``serve_active``; ``$STEP`` settles ``scaled``
#: and which energy lane pays for it
_SERVE = """\
scaled = s / $sf
start = bu if bu > t else t
$STEP
end = start + scaled
$busy_until = end
$busy += scaled
$COUNT
append(end)
"""

#: ``FleetNode.serve``: full speed, priced by the linear identity
_PLAIN = """\
$LINEAR
$lane_on
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
        if emit_dvfs is not None:
            emit_dvfs(($k, i, start, row[0], row[3]))
        break
else:
    $PLAIN
"""

#: the reference loop's epoch handling: the real autoscaler steps the
#: real nodes, then the router re-reads the on-set (``SETUP`` again)
_EPOCH_OPEN = """\
epoch = next_epoch = autoscaler.epoch_seconds
demand = autoscaler._epoch_demand_seconds
mirror = out.mirror
"""
_EPOCH = """\
if t >= next_epoch:
    while t >= next_epoch:
        autoscaler._epoch_demand_seconds = demand
        autoscaler.step(next_epoch, nodes, on_ids)
        demand = 0.0
        next_epoch += epoch
        if mirror is not None:
            mirror.sync(nodes, $k)
    $SETUP
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
def kernel(cols, fleet, router, pvc, steps_of, nodes, on_ids, autoscaler,
           out):
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
        lanes = []
        lane_append = lanes.append
        for t, s, q in zip(tl, sl, ql):
            $EPOCH
            $SELECT
            node = nodes[i]
            bu = node.busy_until
            $ADMIT
            $SERVE
            if end > last_completion:
                last_completion = end
            $SERVED
        out.flush(slice(a, a + len(ends)), ends, lanes)
    $EPOCH_CLOSE
    return last_completion
"""


def _node_books(governed: bool, rejecting: bool) -> dict[str, str]:
    """``_CHUNKED``'s bindings — the same under every option, because
    the autoscaler may close a node's books between any two arrivals."""
    return dict(
        sf="sf_of[i]", busy_until="node.busy_until",
        busy="node._interval_busy", active="node._interval_active_joules",
        LINEAR="node._interval_linear_busy += scaled\n",
        COUNT="node.completed += 1\n", k="a + len(ends)",
        lane_on="lane_append(i)", lane_off="lane_append(-1)")


#: round_robin's closed-form rotation: the node at slot ``j`` serves
#: the arrival lane ``(j - next) % n_on :: n_on``, so every pipe runs
#: as an independent recurrence over a strided slice with its books in
#: locals (round_robin is never autoscaled, so the rotation never
#: changes mid-run and there is no epoch step to bind)
_STRIDED = """\
def kernel(cols, fleet, router, pvc, steps_of, nodes, on_ids, autoscaler,
           out):
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


def _local_books(governed: bool, rejecting: bool) -> dict[str, str]:
    """``_STRIDED``'s bindings.  A tally the options make redundant is
    read off once the lane is done, not kept per query: with no
    governor ``FleetNode.serve`` adds the same sequence to both busy
    lanes, and with no limit every arrival completes.  Only the
    governor reads the SLA column."""
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


class _Router(NamedTuple):
    """What a router adds to a skeleton.  ``setup`` runs before the
    first arrival and again after every autoscaler epoch step (the
    on-set changed); ``select`` leaves the routed node's index in
    ``i``; ``served`` sees the admitted execution's ``end``."""

    skeleton: str
    #: ``(governed, rejecting) -> bindings`` for the skeleton's names
    books: Callable[[bool, bool], dict]
    setup: str = ""
    select: str = ""
    served: str = ""


#: join-the-shortest-queue off a ``(busy_until, index)`` heap: the root
#: is exactly the reference scan's first-strict-minimum, and only the
#: served root ever changes, so the heap is never stale
_LEAST_LOADED = _Router(
    _CHUNKED, _node_books,
    setup="heap = sorted((nodes[i].busy_until, i) for i in on_ids)\n",
    select="i = heap[0][1]\n",
    served="heapreplace(heap, (end, i))\n")

#: packing over two lazy heaps.  ``waiting`` orders nodes past the pack
#: bound by ``busy_until``; per-cost-rate ``pack_heaps`` order the
#: packable candidates by index.  The bound ``t + pack`` is monotone
#: within an epoch segment and ``busy_until`` only grows, so
#: classification moves one way between serves and stale entries are
#: recognized by exact ``busy_until`` mismatch.  Selection walks rate
#: groups ascending — peek, SLA-test, stash-on-miss — reproducing the
#: reference scan's candidate order (index order within a rate, the
#: cheapest fitting rate wins, cheapest-rate min-index fallback,
#: least-loaded spill) without touching every node.
_POWER_AWARE = _Router(
    _CHUNKED, _node_books,
    setup="""\
pack = router.pack_backlog_seconds
rate_of = [(node.model.peak_watts - node.model.idle_watts)
           / node.model.speed_factor for node in nodes]
rates = sorted(set(rate_of))
gid_of = [rates.index(r) for r in rate_of]
pack_heaps = [[] for _ in rates]
in_pack = [False] * len(nodes)
# 0: past the bound (waiting) · 1: packable · 2: powered off
where = [2] * len(nodes)
for i in on_ids:
    where[i] = 0
waiting = sorted((nodes[i].busy_until, i) for i in on_ids)
""",
    select="""\
bound = t + pack
while waiting and waiting[0][0] <= bound:
    due, c = heappop(waiting)
    if where[c] == 0 and due == nodes[c].busy_until:
        where[c] = 1
        if not in_pack[c]:
            heappush(pack_heaps[gid_of[c]], c)
            in_pack[c] = True
i = fallback = -1
for gh in pack_heaps:
    stash = None
    while gh:
        c = gh[0]
        if where[c] != 1:
            heappop(gh)
            in_pack[c] = False
            continue
        if fallback < 0:
            fallback = c
        bu = nodes[c].busy_until
        if (bu - t if bu > t else 0.0) + s / sf_of[c] <= q:
            i = c
            break
        if stash is None:
            stash = []
        stash.append(heappop(gh))
    if stash:
        for c in stash:
            heappush(gh, c)
    if i >= 0:
        break
else:
    i = fallback  # nothing fits: the cheapest rate's lowest index
    while i < 0:  # nothing packable: spill to the least-loaded node
        due, c = waiting[0]
        if where[c] == 0 and due == nodes[c].busy_until:
            i = c
        else:
            heappop(waiting)
""",
    served="""\
if where[i] != 1 or end > bound:
    where[i] = 0
    heappush(waiting, (end, i))
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
    setup="""\
slack = router.sla_slack_fraction
blocks = _Block.cover(fleet, nodes)
""",
    select="""\
fit = q * slack
best_cost = fast_est = _INF
block = fast_block = None
for b in blocks:
    m = b.seg[1]
    if m == _INF:
        continue  # no powered-on member
    exe = s / b.sf
    est = (m - t if m > t else 0.0) + exe
    if est < fast_est:
        fast_est = est
        fast_block = b
    if est <= fit:
        cost = b.pmi * exe
        if cost < best_cost:
            best_cost = cost
            block = b
            best_exe = exe
if block is not None:
    i = block.leftmost_fit(t, best_exe, fit)
else:
    block = fast_block
    m = block.seg[1]
    i = block.leftmost_le(m if m > t else t)
""",
    served="block.update(i, end)\n")

#: routers with a vectorized kernel (exact types: a subclass may
#: override route(), so it must take the reference loop)
_ROUTERS = {RoundRobin: _Router(_STRIDED, _local_books),
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
            outer_limited: bool, autoscaled: bool) -> Callable:
    """The serving loop for one router under one set of options,
    generated on first use and compiled once per process.

    ``governed`` is a PVC wrapper around the router, ``limited`` /
    ``outer_limited`` an admission limit on the router / the wrapper,
    ``autoscaled`` a live autoscaler.  What is off is absent from the
    source, not tested in the loop.  Read a kernel with
    ``linecache.getlines(kernel.__code__.co_filename)``.
    """
    router = _ROUTERS[router_type]
    over = ["backlog > outer"] * outer_limited + ["backlog > limit"] * limited
    source = _expand(router.skeleton, {
        **router.books(governed, bool(over)),
        "PROLOGUE": _PROLOGUE,
        "LIMITS": "limit = router.admission_limit_seconds\n" * limited
        + "outer = pvc.admission_limit_seconds\n" * outer_limited
        + "headroom = pvc.sla_headroom\n" * governed,
        "SETUP": router.setup, "SELECT": router.select,
        "SERVED": router.served,
        "ADMIT": _BACKLOG * bool(over or governed) + _ADMIT * bool(over),
        "over_limit": " or ".join(over),
        "SERVE": _SERVE, "STEP": _PVC if governed else _PLAIN,
        "PLAIN": _PLAIN,
        "EPOCH_OPEN": _EPOCH_OPEN * autoscaled, "EPOCH": _EPOCH * autoscaled,
        "EPOCH_CLOSE": _EPOCH_CLOSE * autoscaled})
    filename = "<repro.service.engine kernel: %s>" % " ".join(
        [router_type.name] + ["pvc"] * governed + ["limit"] * limited
        + ["outer_limit"] * outer_limited + ["autoscaled"] * autoscaled)
    # mtime None: linecache.checkcache keeps entries it cannot stat
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    scope: dict = {}
    exec(compile(source, filename, "exec"), globals(), scope)
    return scope["kernel"]


class _Block:
    """One contiguous class block with a min-``busy_until`` segment
    tree over its node slots (powered-off slots hold +inf) — the
    ``cost_aware`` fragments' data structure, an ordinary class."""

    __slots__ = ("lo", "sf", "pmi", "size", "seg")

    def __init__(self, lo: int, hi: int, model, nodes) -> None:
        self.lo = lo
        self.sf = model.speed_factor
        self.pmi = model.peak_watts - model.idle_watts
        size = 1
        while size < hi - lo:
            size <<= 1
        self.size = size
        self.seg = seg = [_INF] * (2 * size)
        for p, node in enumerate(nodes[lo:hi], size):
            if node.on:
                seg[p] = node.busy_until
        for p in range(size - 1, 0, -1):
            left = seg[2 * p]
            right = seg[2 * p + 1]
            seg[p] = left if left < right else right

    @classmethod
    def cover(cls, fleet: FleetSpec, nodes) -> list["_Block"]:
        """The fleet's non-empty classes as blocks, in declaration
        (= node index) order, over the nodes' current state."""
        blocks, lo = [], 0
        for c in fleet.classes:
            if c.count:
                blocks.append(cls(lo, lo + c.count, c.model, nodes))
                lo += c.count
        return blocks

    def update(self, i: int, value: float) -> None:
        p = self.size + (i - self.lo)
        seg = self.seg
        seg[p] = value
        p >>= 1
        while p:
            left = seg[2 * p]
            right = seg[2 * p + 1]
            new = left if left < right else right
            if seg[p] == new:
                break
            seg[p] = new
            p >>= 1

    def leftmost_le(self, x: float) -> int:
        """Lowest node index whose ``busy_until`` is <= ``x`` (the
        caller guarantees one exists)."""
        seg = self.seg
        size = self.size
        p = 1
        while p < size:
            left = 2 * p
            p = left if seg[left] <= x else left + 1
        return self.lo + (p - size)

    def leftmost_fit(self, t: float, scaled: float, budget: float) -> int:
        """Lowest node index whose estimated latency fits ``budget``
        (exact reference predicate, evaluated on subtree minima — it
        is monotone in ``busy_until``, so the descent is exact)."""
        seg = self.seg
        size = self.size
        p = 1
        while p < size:
            left = 2 * p
            v = seg[left]
            if (v - t if v > t else 0.0) + scaled <= budget:
                p = left
            else:
                p = left + 1
        return self.lo + (p - size)
